"""Property tests over short random code streams: on the 4-synapse tree
both designs return finite, passive ledgers that conserve energy, and the
same run whatever form the stream takes; on random small trees the
closed-form kernel matches the per-step reference kernel, and so do its
divergence errors on steps that grow the state; on random circuits a run
either fails by name or returns finite results; on random per-cycle keys
pass 1's order of work tiles the run and batches only repeated cycles; on
random phase operators and start clouds the peak search returns the
exhaustive maximum."""

import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from acansim import (
    BaselineConfig,
    CircuitConfig,
    EnergyLedger,
    SimConfig,
    SimulationError,
    SynapseTreeConfig,
    energy_residual,
    engine,
    run_baseline,
    run_neuron,
    tune_inductor,
)
from acansim.engine import PhaseOperator, SwitchState, build_phase_system
from acansim.model import effective_pc_capacitance
from reference_kernel import Gathers, assert_same_run, reference_kernel

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


@st.composite
def cycle_keys(draw):
    # per-cycle kind indices from three kinds of part: constant runs,
    # nested periodic blocks (an inner block repeated, plus a tail, the
    # whole repeated and cut anywhere, so a partial period may trail) and
    # noise
    keys = st.integers(0, 4)
    out = []
    for part in draw(st.lists(st.sampled_from(("constant", "nested", "noise")),
                              min_size=1, max_size=6)):
        if part == "constant":
            out += [draw(keys)] * draw(st.integers(1, 40))
        elif part == "nested":
            inner = draw(st.lists(keys, min_size=1, max_size=3)) * draw(st.integers(1, 4))
            block = (inner + draw(st.lists(keys, max_size=3))) * draw(st.integers(1, 8))
            out += block[:draw(st.integers(1, len(block)))]
        else:
            out += draw(st.lists(keys, min_size=1, max_size=12))
    return out


@settings(max_examples=200, deadline=None)
@example(keys=[0])
@example(keys=[3] * 600)
@example(keys=([0, 1] * 3 + [2]) * 5 + [0, 1])
@given(keys=cycle_keys())
def test_periods_tile_the_run_and_batch_only_repeats(keys):
    order = engine._periods(np.array(keys))
    ran = 0   # cycles 0 .. ran - 1 ran in earlier items
    for k, p, count in order:
        # the items tile 0 .. n - 1 in order, with no gap and no overlap
        assert k == ran and count >= 1
        if p == 0:
            assert count == 1   # a lone cycle
        else:
            # every batched cycle has the key of the cycle p before it, and
            # the batch holds a whole period (``run_cycles`` reads the
            # period from its first p cycles)
            assert count >= p
            assert keys[k:k + count] == keys[k - p:k + count - p]
            # the first period ran in earlier items, so its slots exist
            assert 0 <= k - p
        ran += count
    assert ran == len(keys)


@st.composite
def growing_streams(draw):
    # a run-length stream (each code 1 to 12 times) repeated 1 to 3 times,
    # so pass 1 batches repeated cycles and periodic blocks, on steps that
    # grow the state by a factor 1 + eps: from no growth, through a guard
    # crossed late or early, to states that overflow float64 long before
    # the stream ends (eps 3e-3 grows them ~1e5x per cycle)
    runs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * 4), st.integers(1, 12)),
                         min_size=1, max_size=4))
    repeats = draw(st.integers(1, 3))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-7, 3e-3)))
    return [code for code, count in runs for _ in range(count)] * repeats, eps


# states that overflow in the batches after the divergence
OVERFLOWING = (([(1, 1, 0, 1)] * 12 + [(0, 1, 1, 0)] * 12) * 3, 3e-3)


@settings(max_examples=20, deadline=None)
@example(case=OVERFLOWING, design="adiabatic")
@example(case=OVERFLOWING, design="baseline")
@given(case=growing_streams(), design=st.sampled_from(("adiabatic", "baseline")))
def test_deferred_guard_names_the_reference_divergence(case, design):
    # pass 1 carries every cycle before any guard runs; the guard must
    # still raise the reference kernel's error, or leave its run, and no
    # overflow or invalid-value warning may escape
    codes, eps = case
    step_maps = engine.step_maps

    def grown(a, b, dt):
        e, f = step_maps(a, b, dt)
        return (1.0 + eps) * e, f

    def run():
        return run_neuron(CFG, codes) if design == "adiabatic" else run_baseline(BASE, codes)

    with mock.patch.object(engine, "step_maps", grown):
        with reference_kernel():
            try:
                ref, want = run(), None
            except SimulationError as err:
                want = str(err)
        event("ran" if want is None else "diverged")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                assert_same_run(run(), ref)
            else:
                with pytest.raises(SimulationError) as err:
                    run()
                assert str(err.value) == want


@st.composite
def circuits(draw):
    # an inductor and tank capacitor, a clock off the pair's resonance by
    # up to 60% either way, a step budget and stride, a recalibration rate
    cfg = CircuitConfig()
    l_pc = draw(st.floats(1e-4, 1e-2))
    pc = replace(cfg.pc, l_pc=l_pc, c_e=draw(st.floats(5e-12, 100e-12)))
    f_res = 1.0 / (2.0 * math.pi * math.sqrt(l_pc * effective_pc_capacitance(cfg.tree, pc, 0.0)))
    pc = replace(pc, f_nominal=f_res * draw(st.floats(0.4, 1.6)))
    stride = draw(st.sampled_from((1, 2, 4, 8, 16)))
    sim = SimConfig(steps_per_cycle=stride * draw(st.integers(-(-256 // stride), 4096 // stride)),
                    trace_stride=stride, recal_every=draw(st.integers(1, 20)))
    return replace(cfg, pc=pc, sim=sim)


def _extreme(**pc):
    cfg = CircuitConfig()
    return replace(cfg, pc=replace(cfg.pc, **pc), sim=SimConfig(steps_per_cycle=256, trace_stride=1))


# The drawn circuits are passive and the trapezoid rule is A-stable, so
# none of them diverges (a 400-example run found none); these valid
# extremes do: a feed voltage past the limit, and a feed inductor whose
# step maps turn the states NaN.  Configs are checked when built, so no
# circuit reaches a run only to fail validation.
@settings(max_examples=25, deadline=None)
@example(cfg=_extreme(v_dc=1e3), codes=[(1, 0, 1, 0)] * 3)
@example(cfg=_extreme(l_pc=1e300), codes=[(1, 0, 1, 0)] * 3)
@given(cfg=circuits(), codes=streams)
def test_random_circuits_fail_by_name_or_run_finite(cfg, codes):
    # a run raises a named error or returns finite ledgers, peaks and
    # samples: overflow past a divergence never reaches a result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run = run_neuron(cfg, codes, keep_trace=True)
        except (SimulationError, ValueError) as err:
            event(f"{type(err).__name__}: {str(err).split(':')[0]}")
            return
    event("ran")
    for f in fields(EnergyLedger):
        assert np.all(np.isfinite(getattr(run.ledger_full, f.name))), f.name
    for name, values in run.stats._asdict().items():
        assert np.all(np.isfinite(values)), name
    for name in ("t", "i_l", "v_pc", "v_s", "v_m"):
        assert np.all(np.isfinite(getattr(run.trace, name))), name


@st.composite
def peak_searches(draw):
    # a phase at random switches and step size, of fewer steps than a block
    # or a last block of 1, 2 or 32 steps, and a cloud of start states: a
    # tight cluster about the operator's reference start plus far outliers,
    # so that the blocks some start needs are few or nearly all
    sw = SwitchState(draw(st.booleans()), draw(st.booleans()),
                     draw(st.tuples(*[st.booleans()] * 4)))
    per_period = draw(st.floats(3.0, 3000.0))   # steps per clock period
    n = draw(st.one_of(st.integers(1, 31),
                       st.builds(lambda b, m: 32 * b + m, st.integers(1, 120),
                                 st.sampled_from((0, 1, 31)))))
    spread = draw(st.floats(1e-9, 1e-2))   # of the cluster, relative
    reach = draw(st.floats(1.0, 30.0))     # of the outliers, relative
    counts = draw(st.integers(1, 16)), draw(st.integers(0, 4))
    return sw, per_period, n, spread, reach, counts, draw(st.integers(0, 2 ** 32 - 1))


# A settling phase (reset and bypass closed, gates open) from one start
# above its rest: both rows fall from step 0, so only the first block,
# the one of the best block start, is searched step by step.
SETTLING = (SwitchState(True, True, (False,) * 4), 2000.0, 3584, 1e-9, 1.0, (1, 0), 0)


@settings(max_examples=60, deadline=None)
@example(case=SETTLING)
@given(case=peak_searches())
def test_peaks_equal_the_exhaustive_maximum(case):
    # peaks() evaluates step by step only the blocks that some start of the
    # cloud needs, in one product per row; each start's maximum must equal
    # the maximum of its states at every step of the phase to within
    # 1e-14 of the row's largest magnitude over the phase (a few ulp: the
    # two evaluate the same powers in a different association)
    sw, per_period, n, spread, reach, (near, far), seed = case
    system = build_phase_system(CFG, sw)
    d = system.dim
    dt = CFG.pc.t_pc / per_period
    rng = np.random.default_rng(seed)
    scale = np.array([2e-4, *[0.5] * (d - 2), 0.2])
    x_ref = np.array([1e-4, 0.3, *[0.3] * (d - 3), 0.8]) + rng.normal(scale=scale)
    x0s = x_ref + np.concatenate([rng.normal(scale=spread * scale, size=(near, d)),
                                  rng.normal(scale=reach * scale, size=(far, d))])
    op = PhaseOperator(system, dt, n, engine.step_maps(system.a, system.b, dt), x_ref,
                       (1, -1), math.inf)
    engine.compile_operators([op])
    zs = np.column_stack([x0s, np.ones(len(x0s))]) - op.ref
    every = op.states(zs, np.arange(n + 1))[:, :, [1, -1]]
    op.blocks = op.blocks.view(Gathers)
    op.blocks.gathered = []
    got = op.peaks(zs)
    assert np.all(np.abs(got - every.max(1)) <= 1e-14 * np.abs(every).max(1))
    blocks = n // engine._BLOCK + 1
    for row in op.blocks.gathered:
        share = len(row) / blocks
        event("one block" if len(row) == 1 else "all blocks" if share == 1
              else "under half the blocks" if share < 0.5 else "half the blocks or more")
    if case == SETTLING:
        assert op.blocks.gathered == [[0], [0]]
