"""Property tests over short random code streams: on the 4-synapse tree
both designs return finite, passive ledgers that conserve energy, and the
same run whatever form the stream takes; on random small trees the
closed-form kernel matches the per-step reference kernel."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acansim import (
    BaselineConfig,
    CircuitConfig,
    EnergyLedger,
    SimConfig,
    SynapseTreeConfig,
    energy_residual,
    run_baseline,
    run_neuron,
    tune_inductor,
)
from reference_kernel import assert_same_run, reference_kernel

CFG = tune_inductor(CircuitConfig())
BASE = BaselineConfig.from_circuit(CFG)

streams = st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=12)


def _check_finite_and_passive(ledger):
    for name in ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
                 "drive", "reconfig", "soma"):
        assert np.all(np.isfinite(getattr(ledger, name))), name
    for name in ("r_pc", "r_lc", "r_tg", "r_reset", "drive"):
        assert np.all(getattr(ledger, name) >= 0.0), name


def _check_conservation(ledger):
    # Idle baseline codes dissipate ~1e-39 J: the membrane sits ~1e-15 V off
    # V_REF (round-off in the step map's fixed point), which the V_REF source
    # term books to first order (~1e-24 J per cycle) and the reset loss to
    # second.  The floor at 1e-9 of the stored energy covers that and stays
    # six orders below the dissipation bound of any switching cycle.
    scale = max(abs(ledger.e_stored_first), abs(ledger.e_stored_last))
    assert abs(energy_residual(ledger)) <= 1e-3 * ledger.dissipated_total + 1e-9 * scale


def _check_input_forms(design, cfg, want, codes):
    # the stream as fresh lists and as one int array gives the tuples' run
    for form in ([list(code) for code in codes], np.array(codes, dtype=int)):
        got = design(cfg, form)
        for f in fields(EnergyLedger):
            assert np.array_equal(getattr(got.ledger_full, f.name),
                                  getattr(want.ledger_full, f.name)), f.name
        assert got.output_bits == want.output_bits
        np.testing.assert_array_equal(got.oracle_bits, want.oracle_bits)


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_neuron_ledger_finite_passive_conserving(codes):
    run = run_neuron(CFG, codes)
    _check_finite_and_passive(run.ledger_full)
    _check_conservation(run.ledger_full)
    _check_input_forms(run_neuron, CFG, run, codes)


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_baseline_ledger_finite_and_passive(codes):
    run = run_baseline(BASE, codes)
    _check_finite_and_passive(run.ledger_full)
    _check_input_forms(run_baseline, BASE, run, codes)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "baseline dense window is sized by the slowest mode: when the reset closes "
    "behind a falling edge it spans the whole cycle and the fast driver mode "
    "is under-resolved (residual 1.1% here, 4x smaller per step halving)"))
@settings(max_examples=25, deadline=None)
@example(codes=[(0, 0, 0, 1), (0, 0, 0, 0)])
@given(codes=streams)
def test_run_baseline_conserves_energy(codes):
    _check_conservation(run_baseline(BASE, codes).ledger_full)


@st.composite
def trees_and_streams(draw):
    # weights of 1 or 2 pF, so equal weights lump into shared phases; a
    # run-length stream, each code repeated 1 to 40 times, so repeated
    # cycles run as batches between recalibrations
    weights = draw(st.lists(st.sampled_from((1e-12, 2e-12)), min_size=2, max_size=5))
    runs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(weights)),
                                   st.integers(1, 40)), min_size=1, max_size=12))
    recal_every = draw(st.sampled_from((1, 2, 5, 16, 10_000)))
    return tuple(weights), [code for code, count in runs for _ in range(count)], recal_every


@settings(max_examples=25, deadline=None)
@given(case=trees_and_streams())
def test_closed_form_kernel_matches_reference_on_random_trees(case):
    weights, codes, recal_every = case
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=weights),
                                      sim=SimConfig(recal_every=recal_every)))
    base = BaselineConfig.from_circuit(cfg)
    runs = [run_neuron(cfg, codes, keep_trace=True), run_baseline(base, codes)]
    with reference_kernel():
        refs = [run_neuron(cfg, codes, keep_trace=True), run_baseline(base, codes)]
    for run, ref in zip(runs, refs):
        assert_same_run(run, ref)
