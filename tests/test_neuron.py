"""Comparator offset/decision model, cycle schedules, and full neuron runs."""

import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    DlccConfig,
    NeuronSpec,
    dlcc_decide,
    dlcc_offset,
    input_sweeps,
    SimulationError,
    make_schedule,
    predicted_optimal_frequency,
    run_baseline,
    run_neuron,
    scaled_tree,
    tune_inductor,
)
from acansim import baseline as baseline_mod
from acansim import engine
from acansim import neuron as neuron_mod
from acansim.neuron import base_delay
from reference_kernel import assert_same_run, reference_kernel

_GRID = [1e3, 3.25e3, 5.5e3, 7.75e3, 10e3]
_OFFSET_MV = [
    [0.20, 110.0, 178.4, 225.2, 261.2],
    [-154.6, 0.19, 90.2, 153.2, 196.4],
    [-343.6, -116.8, 0.18, 77.6, 131.6],
    [-674.8, -233.8, -91.6, 0.25, 66.8],
    [-674.8, -397.6, -190.6, -77.2, 0.3],
]


def test_dlcc_offset_exact_at_valid_grid_points():
    # every measured point except the no-crossover corner, with no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, ml in enumerate(_GRID):
            for j, mr in enumerate(_GRID):
                if (i, j) == (4, 0):
                    continue
                assert dlcc_offset(ml, mr) == pytest.approx(
                    _OFFSET_MV[i][j] * 1e-3, abs=1e-12), (i, j)


def test_dlcc_offset_no_crossover_corner_is_flagged():
    with pytest.warns(UserWarning, match="no-crossover"):
        v = dlcc_offset(10e3, 1e3)
    assert v == pytest.approx(-674.8e-3, abs=1e-12)


def test_dlcc_offset_clamps_outside_grid():
    with pytest.warns(UserWarning, match="outside"):
        v = dlcc_offset(20e3, 5.5e3)
    assert v == pytest.approx(-190.6e-3, abs=1e-12)
    with pytest.warns(UserWarning, match="outside"):
        v = dlcc_offset(5.5e3, 100.0)
    assert v == pytest.approx(-343.6e-3, abs=1e-12)


def test_dlcc_offset_bilinear_midpoint():
    # center of the first cell averages its four corners
    expect = (0.20 - 154.6 + 110.0 + 0.19) / 4.0 * 1e-3
    assert dlcc_offset(2.125e3, 2.125e3) == pytest.approx(expect, rel=1e-12)


def test_dlcc_offset_monotone_along_grid_axes():
    for i in range(5):
        row = [_OFFSET_MV[i][j] for j in range(5)]
        assert all(a < b for a, b in zip(row, row[1:])), f"row {i}"
    for j in range(5):
        col = [_OFFSET_MV[i][j] for i in range(5)]
        # strictly falling except the filled corner duplicate
        for i, (a, b) in enumerate(zip(col, col[1:])):
            if j == 0 and i == 3:
                assert a >= b
            else:
                assert a > b, f"col {j}"


def test_dlcc_offset_balanced_diagonal_is_small():
    for ml in _GRID:
        assert abs(dlcc_offset(ml, ml)) < 1e-3


def _decide(v_m, dlcc):
    return dlcc_decide(v_m, dlcc, dlcc_offset(dlcc.m_l, dlcc.m_r))


def test_dlcc_decide_strict_threshold():
    dlcc = DlccConfig()  # 10k/10k trim: offset 0.3 mV
    threshold = 1.1 - 0.3e-3
    assert _decide(threshold + 1e-6, dlcc).fired
    assert not _decide(threshold - 1e-6, dlcc).fired
    assert not _decide(threshold, dlcc).fired
    assert dlcc_offset(dlcc.m_l, dlcc.m_r) == pytest.approx(0.3e-3, abs=1e-12)


def test_dlcc_decide_delay_anchors():
    d = _decide(1.1 - 0.3e-3 + 0.1, DlccConfig())      # reference overdrive
    assert d.delay == pytest.approx(147e-9, rel=1e-9)
    fast = DlccConfig(m_l=1e3, m_r=10e3)
    v_th_fast = 1.1 - 261.2e-3
    d = _decide(v_th_fast + 0.1, fast)
    assert d.delay == pytest.approx(51e-9, rel=1e-9)
    sym = DlccConfig(m_l=1e3, m_r=1e3)
    d = _decide(1.1 - 0.2e-3 + 0.1, sym)
    assert d.delay == pytest.approx(87e-9, rel=1e-9)


def test_dlcc_decide_metastability_growth():
    dlcc = DlccConfig()
    threshold = 1.1 - 0.3e-3
    slow = _decide(threshold + 1e-3, dlcc)
    expect = 147e-9 + 5e-9 * math.log(0.1 / 1e-3)
    assert slow.delay == pytest.approx(expect, rel=1e-9)
    # overdrive below the clamp saturates the delay
    slower = _decide(threshold + 1e-5, dlcc)
    assert slower.delay == pytest.approx(expect, rel=1e-9)


def test_base_delay_nearest_anchor():
    assert base_delay(10e3, 10e3) == pytest.approx(147e-9)
    assert base_delay(1e3, 1e3) == pytest.approx(87e-9)
    assert base_delay(2e3, 9e3) == pytest.approx(51e-9)


def test_make_schedule_segments():
    cfg = CircuitConfig()
    sched = make_schedule(cfg, (1, 0, 0, 0), cycle=3)
    assert len(sched) == 2
    (a0, a1, sw0), (b0, b1, sw1) = sched
    assert (a0, a1) == (0.0, 0.05)
    assert (b0, b1) == (0.05, 1.0)
    assert sw0.bypass_on and not sw1.bypass_on
    assert not sw0.reset_on and not sw1.reset_on
    assert sw0.synapse_on == (True, False, False, False)
    assert sw1.synapse_on == sw0.synapse_on


def test_make_schedule_recalibration_and_zero_code():
    cfg = CircuitConfig()
    # every 16th cycle forces a trough-window reset
    forced = make_schedule(cfg, (1, 0, 0, 0), cycle=16)
    assert forced[0][2].reset_on
    assert not forced[1][2].reset_on
    # all-zero codes hold the membrane at rest the whole cycle
    idle = make_schedule(cfg, (0, 0, 0, 0), cycle=5)
    assert idle[0][2].reset_on
    assert idle[1][2].reset_on


def test_make_schedule_validation():
    cfg = CircuitConfig()
    with pytest.raises(ValueError):
        make_schedule(cfg, (1, 0), cycle=0)
    # a bypass window reaching the mid-cycle sample is refused with the config
    with pytest.raises(ValueError, match=r"^pc\.duty_d: "):
        replace(cfg.pc, duty_d=0.5)


def test_input_sweeps_cover_the_code_set():
    sweeps = input_sweeps(4)
    assert len(sweeps) == 5
    full = sorted(tuple((v >> b) & 1 for b in range(4)) for v in range(16))
    for order in sweeps:
        assert len(order) == 16
        assert sorted(order) == full
    # ascending order comes first, least-significant bit first
    assert sweeps[0][0] == (0, 0, 0, 0)
    assert sweeps[0][5] == (1, 0, 1, 0)
    assert sweeps[0][15] == (1, 1, 1, 1)


def test_input_sweeps_deterministic_in_seed():
    a = input_sweeps(4, seed=0)
    b = input_sweeps(4, seed=0)
    assert a == b
    c = input_sweeps(4, seed=1)
    assert c[1:] != a[1:]
    assert input_sweeps(3, n_scrambles=0) == [[
        tuple((v >> b) & 1 for b in range(3)) for v in range(8)]]
    with pytest.raises(ValueError):
        input_sweeps(0)
    with pytest.raises(ValueError):
        input_sweeps(17)


def test_run_neuron_constant_stream():
    cfg = tune_inductor(CircuitConfig())
    f = predicted_optimal_frequency(cfg, 0.5)
    op = replace(cfg, pc=replace(cfg.pc, f_nominal=f, duty_d=cfg.pc.t_on * f))
    codes = [(1, 1, 0, 0)] * 6
    run = run_neuron(op, codes)
    assert run.output_bits == "111111"
    assert run.output_bits == run.oracle_string
    assert run.ledger.n_cycles == 6
    # warm-up cycles are simulated but not reported
    assert run.ledger_full.n_cycles == 6 + cfg.sim.startup_discard_cycles
    assert len(run.stats) == 6
    assert np.all(run.ledger.soma == cfg.dlcc.e_decision)
    assert run.trace is None


def test_run_neuron_zero_code_stays_quiet():
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(0, 0, 0, 0)] * 4)
    assert run.output_bits == "0000"
    assert run.output_bits == run.oracle_string
    for st in run.stats:
        assert st.v_m_sample == pytest.approx(0.7, abs=5e-3)


def test_run_neuron_keeps_trace_on_request():
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(1, 0, 0, 0)] * 2, keep_trace=True)
    assert run.trace is not None
    assert len(run.trace.cycles) == 2 + cfg.sim.startup_discard_cycles


def test_run_neuron_csv_schema(tmp_path):
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(1, 1, 0, 0), (0, 0, 0, 0)])
    path = tmp_path / "run.csv"
    run.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle,code,V_m_peak,OutP,delay_ns,E_tree_pJ,E_soma_pJ"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "1100"
    for line in lines[1:]:
        for text in line.split(",")[2:]:
            float(text)   # every column after the code is a plain number


def test_run_neuron_rejects_non_finite_inductor(monkeypatch):
    # an infinite inductor is refused when the config is built
    cfg = CircuitConfig()
    with pytest.raises(ValueError, match=r"^pc\.l_pc: "):
        replace(cfg.pc, l_pc=math.inf)

    # states that turn NaN anyway must trip the divergence guard instead
    # of returning an all-NaN ledger
    def nan_maps(a, b, dt):
        return np.full_like(a, math.nan), np.full_like(b, math.nan)

    monkeypatch.setattr(engine, "step_maps", nan_maps)
    with pytest.raises(SimulationError, match="diverged"):
        run_neuron(cfg, [(1, 1, 0, 0)] * 3)
    with pytest.raises(SimulationError, match="diverged"):
        run_baseline(BaselineConfig.from_circuit(cfg), [(1, 1, 0, 0)] * 3)


def _growing_step_maps(monkeypatch, scale=1.0006):
    # by default every step grows the state by 6e-4, about 10x per cycle:
    # the run crosses the guard a few cycles in, with finite states
    # throughout
    step_maps = engine.step_maps

    def grown(a, b, dt):
        e, f = step_maps(a, b, dt)
        return scale * e, f

    monkeypatch.setattr(engine, "step_maps", grown)


@pytest.mark.parametrize("design, message", [
    # the cycle and |x| that per-step propagation of the same maps reports
    ("adiabatic", "state diverged in cycle 2: |x| reached 262, limit 90"),
    ("baseline", "state diverged in cycle 1: |x| reached 95.7, limit 90"),
])
def test_divergence_names_its_cycle_and_peak(monkeypatch, design, message):
    cfg = tune_inductor(CircuitConfig())
    _growing_step_maps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow or invalid-value warning escapes
        with pytest.raises(SimulationError) as err:
            if design == "adiabatic":
                run_neuron(cfg, [(1, 1, 0, 0)] * 6)
            else:
                run_baseline(BaselineConfig.from_circuit(cfg), [(1, 1, 0, 0)] * 6)
    assert str(err.value) == message


def test_divergence_inside_an_overflowing_batch(monkeypatch):
    # one code for 600 cycles with no warm-up and no recalibration after
    # cycle 0: cycles 2..599 run as one batch, whose starts come from
    # powers of the cycle map up to C^512; at ~10x growth per cycle the
    # later ones overflow float64, beyond the divergence the batch must name
    cfg = tune_inductor(CircuitConfig())
    cfg = replace(cfg, sim=replace(cfg.sim, startup_discard_cycles=0, recal_every=10_000))
    codes = [(1, 1, 0, 0)] * 600
    _growing_step_maps(monkeypatch)
    with reference_kernel(), pytest.raises(SimulationError) as want:
        run_neuron(cfg, codes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow or invalid-value warning escapes
        with pytest.raises(SimulationError) as err:
            run_neuron(cfg, codes)
    assert str(err.value) == str(want.value)
    assert str(err.value).startswith("state diverged in cycle 2: ")


def test_divergence_inside_a_periodic_batch(monkeypatch):
    # a 16-code order, 8 passes, on steps that grow the state by 5e-5: the
    # run crosses the guard in its third pass.  Pass 1 runs the order's
    # first period cycle by cycle and the rest as one batch of 16-cycle
    # periods, whose exact checks must name the cycle and peak the
    # reference kernel names
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, seed=0)[0] * 8
    _growing_step_maps(monkeypatch, 1.00005)
    with reference_kernel(), pytest.raises(SimulationError) as want:
        run_neuron(cfg, codes)
    batches = _count_calls(monkeypatch, engine, "_run_batch")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow or invalid-value warning escapes
        with pytest.raises(SimulationError) as err:
            run_neuron(cfg, codes)
    assert str(err.value) == str(want.value)
    k = int(re.match(r"state diverged in cycle (\d+): ", str(err.value)).group(1))
    block, _, k0, count = batches[-1]
    assert len(block) == 16 and k0 <= k < k0 + count


def test_false_alarm_inside_a_batch_matches_reference(monkeypatch):
    # a guard whose bound always trips: every (cycle, phase) pair, batched
    # ones included, is checked on its exact states, all of them stay under
    # the limit, and the run is the reference kernel's
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 1, 0, 1)] * 30 + [(0, 0, 0, 0)] * 6
    init = engine.PhaseOperator.__init__

    def alarmed(self, *args):
        init(self, *args)
        self._guard = self._guard + 1.0   # |z| ends in the affine 1: guard @ |z| >= 1

    monkeypatch.setattr(engine.PhaseOperator, "__init__", alarmed)
    checks = _count_calls(monkeypatch, engine.PhaseOperator, "check")
    run = run_neuron(cfg, codes, keep_trace=True)
    n_cycles = cfg.sim.startup_discard_cycles + len(codes)
    assert sorted(k for _, _, k in checks) == sorted(2 * list(range(n_cycles)))
    with reference_kernel():
        ref = run_neuron(cfg, codes, keep_trace=True)
    assert_same_run(run, ref)


def _count_step_maps(monkeypatch):
    # per step_maps call: the state dimension and the number of maps built
    # (the entries of its stack)
    calls = []
    step_maps = engine.step_maps

    def counted(a, b, dt):
        calls.append((a.shape[-1], np.size(dt)))
        return step_maps(a, b, dt)

    monkeypatch.setattr(engine, "step_maps", counted)
    return calls


def _maps_built(calls):
    # a run builds its maps in one stacked call per state dimension
    dims = [dim for dim, _ in calls]
    assert len(dims) == len(set(dims))
    return sum(n for _, n in calls)


def test_run_neuron_builds_each_step_map_once(monkeypatch):
    # phases lump by content: the switch positions and the multiset of
    # enabled weights, so equal-weight codes share their step maps
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=0, seed=0)[0] * 2
    zero = (0,) * cfg.tree.n
    all_codes = [zero] * cfg.sim.startup_discard_cycles + codes
    pairs = set()
    for k, c in enumerate(all_codes):
        plan = make_schedule(cfg, c, cycle=k)
        counts = engine._allocate_steps(plan, cfg.sim.steps_per_cycle)
        weights = tuple(sorted(w for w, on in zip(cfg.tree.c_s, c) if on))
        pairs |= {((sw.bypass_on, sw.reset_on, weights), (end - start) * cfg.pc.t_pc / n)
                  for (start, end, sw), n in zip(plan, counts)}
    calls = _count_step_maps(monkeypatch)
    run_neuron(cfg, codes)
    assert _maps_built(calls) == len(pairs)


def test_run_baseline_builds_each_step_map_once(monkeypatch):
    cfg = BaselineConfig.from_circuit(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=0, seed=0)[0]
    calls = _count_step_maps(monkeypatch)
    run_baseline(cfg, codes * 2)
    n_two = _maps_built(calls)
    assert n_two > 0
    calls.clear()
    # a third pass repeats the level transitions of the second one
    run_baseline(cfg, codes * 3)
    assert _maps_built(calls) == n_two


def _run(design, cfg, codes):
    if design == "adiabatic":
        return run_neuron(cfg, codes)
    return run_baseline(BaselineConfig.from_circuit(cfg), codes)


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
@pytest.mark.parametrize("codes, message", [
    ([], "code stream is empty: need at least one code"),
    ([(1, 0, 0)], "code 0 has 3 bits, tree has 4 synapses"),
    ([(1, 0, 0, 0), (1, 0, 0, 0), [1, 0, 0, 0, 1]], "code 2 has 5 bits, tree has 4 synapses"),
])
def test_empty_and_malformed_streams_fail_by_name(design, codes, message):
    cfg = tune_inductor(CircuitConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no empty-slice warning before the error
        with pytest.raises(ValueError) as err:
            _run(design, cfg, codes)
    assert str(err.value) == message


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
def test_input_forms_give_the_canonical_stream(design):
    cfg = tune_inductor(CircuitConfig())
    canonical = [(1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 1, 0, 1), (0, 1, 1, 1)]
    rows = np.array([[0, 0, 0, 0], [0, 3, 1, -1]])
    # two raw keys per normalised code: (2, 0, 0, 0) beside (1, 0, 0, 0)
    raw = [(2, 0, 0, 0), [1, 0, 0, 0], (True, True, False, True), rows[0], [1, 1, 0, 7], rows[1]]
    want, got = _run(design, cfg, canonical), _run(design, cfg, raw)
    assert got.codes == want.codes
    assert got.output_bits == want.output_bits
    assert got.oracle_bits == want.oracle_bits
    assert got.stats == want.stats
    assert got.v_pk_reference == want.v_pk_reference
    for f in fields(engine.EnergyLedger):
        assert np.array_equal(getattr(got.ledger_full, f.name), getattr(want.ledger_full, f.name)), f.name


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_repeated_codes_share_their_per_code_work(monkeypatch):
    # one 512-synapse stream of three distinct codes over 36 cycles: the
    # O(n) work runs once per distinct key, not once per cycle
    cfg = tune_inductor(scaled_tree(CircuitConfig(), 512))
    n = cfg.tree.n
    a = (1,) * 256 + (0,) * 256
    b = (0, 1) * 256
    zero = (0,) * n
    codes = [a] * 12 + [b] * 12 + [zero] * 4 + [a] * 8
    schedules = _count_calls(monkeypatch, neuron_mod, "make_schedule")
    fires = _count_calls(monkeypatch, NeuronSpec, "fires")
    run_neuron(cfg, codes)
    warm = cfg.sim.startup_discard_cycles
    keys = {(c, k % cfg.sim.recal_every == 0) for k, c in enumerate([zero] * warm + codes)}
    assert len(keys) == 5
    assert len(schedules) == len(keys)
    assert len(fires) == len(set(codes)) == 3

    fires.clear()
    levels = _count_calls(monkeypatch, baseline_mod, "_levels")
    run_baseline(BaselineConfig.from_circuit(cfg), codes)
    pairs = set(zip([zero] + codes, codes))
    assert len(pairs) == 6
    assert len(levels) == len(pairs)
    assert len(fires) == 3
