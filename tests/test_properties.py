"""Property tests over short random code streams on the 4-synapse tree:
both designs return finite, passive ledgers that conserve energy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acansim import (
    BaselineConfig,
    CircuitConfig,
    energy_residual,
    run_baseline,
    run_neuron,
    tune_inductor,
)

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


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_neuron_ledger_finite_passive_conserving(codes):
    ledger = run_neuron(CFG, codes).ledger_full
    _check_finite_and_passive(ledger)
    _check_conservation(ledger)


@settings(max_examples=25, deadline=None)
@given(codes=streams)
def test_run_baseline_ledger_finite_and_passive(codes):
    _check_finite_and_passive(run_baseline(BASE, codes).ledger_full)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "baseline dense window is sized by the slowest mode: when the reset closes "
    "behind a falling edge it spans the whole cycle and the fast driver mode "
    "is under-resolved (residual 1.1% here, 4x smaller per step halving)"))
@settings(max_examples=25, deadline=None)
@example(codes=[(0, 0, 0, 1), (0, 0, 0, 0)])
@given(codes=streams)
def test_run_baseline_conserves_energy(codes):
    _check_conservation(run_baseline(BASE, codes).ledger_full)
