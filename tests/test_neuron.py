"""Comparator offset/decision model, cycle schedules, and full neuron runs."""

import math
import pickle
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    CodeStream,
    DlccConfig,
    NeuronSpec,
    dlcc_offset,
    input_sweeps,
    SimulationError,
    predicted_optimal_frequency,
    run_baseline,
    run_neuron,
    scaled_tree,
    SynapseTreeConfig,
    tune_inductor,
)
from acansim import baseline as baseline_mod
from acansim import engine
from acansim import neuron as neuron_mod
from acansim.neuron import base_delay
from reference_kernel import assert_same_run, reference_kernel
from scalar_oracles import make_schedule, v_s

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
    # outputs and delays of the samples v_m, one entry each
    return neuron_mod._decide(np.array(v_m), dlcc, dlcc_offset(dlcc.m_l, dlcc.m_r))


def test_dlcc_decide_strict_threshold():
    dlcc = DlccConfig()  # 10k/10k trim: offset 0.3 mV
    threshold = 1.1 - 0.3e-3
    outputs, _ = _decide([threshold + 1e-6, threshold - 1e-6, threshold], dlcc)
    assert outputs.tolist() == [1, 0, 0]
    assert dlcc_offset(dlcc.m_l, dlcc.m_r) == pytest.approx(0.3e-3, abs=1e-12)


def test_dlcc_decide_delay_anchors():
    _, delays = _decide([1.1 - 0.3e-3 + 0.1, 1.1 - 0.3e-3 - 0.1], DlccConfig())   # reference overdrive
    assert delays == pytest.approx([147e-9] * 2, rel=1e-9)
    fast = DlccConfig(m_l=1e3, m_r=10e3)
    v_th_fast = 1.1 - 261.2e-3
    _, delays = _decide([v_th_fast + 0.1], fast)
    assert delays == pytest.approx([51e-9], rel=1e-9)
    sym = DlccConfig(m_l=1e3, m_r=1e3)
    _, delays = _decide([1.1 - 0.2e-3 + 0.1], sym)
    assert delays == pytest.approx([87e-9], rel=1e-9)


def test_dlcc_decide_metastability_growth():
    dlcc = DlccConfig()
    threshold = 1.1 - 0.3e-3
    # 1 mV of overdrive either side, then below the clamp, which
    # saturates the delay
    _, delays = _decide([threshold + 1e-3, threshold - 1e-3, threshold + 1e-5], dlcc)
    expect = 147e-9 + 5e-9 * math.log(0.1 / 1e-3)
    assert delays == pytest.approx([expect] * 3, rel=1e-9)


def test_base_delay_nearest_anchor():
    assert base_delay(10e3, 10e3) == pytest.approx(147e-9)
    assert base_delay(1e3, 1e3) == pytest.approx(87e-9)
    assert base_delay(2e3, 9e3) == pytest.approx(51e-9)


def _plans_of(monkeypatch, cfg, codes):
    """``run_neuron``'s plan of every cycle of ``codes``, warm-up included."""
    calls = _count_calls(monkeypatch, neuron_mod, "_simulate_plans")
    run_neuron(cfg, codes)
    (_, plans, layout), = calls
    return [plans[p] for p in layout.plan_of.tolist()]


def test_make_schedule_segments(monkeypatch):
    # run_neuron plans a cycle by the rule: the bypass window, then the
    # rest of the cycle, the gates holding the code throughout
    cfg = CircuitConfig()
    warm = cfg.sim.startup_discard_cycles
    sched = make_schedule(cfg, (1, 0, 0, 0), cycle=warm + 3)
    assert _plans_of(monkeypatch, cfg, [(1, 0, 0, 0)] * 4)[warm + 3] == sched
    assert len(sched) == 2
    (a0, a1, sw0), (b0, b1, sw1) = sched
    assert (a0, a1) == (0.0, 0.05)
    assert (b0, b1) == (0.05, 1.0)
    assert sw0.bypass_on and not sw1.bypass_on
    assert not sw0.reset_on and not sw1.reset_on
    assert sw0.synapse_on == (True, False, False, False)
    assert sw1.synapse_on == sw0.synapse_on


def test_make_schedule_recalibration_and_zero_code(monkeypatch):
    # every cycle of a run, warm-up included, is planned by the rule
    cfg = CircuitConfig()
    codes = [(1, 0, 0, 0)] * 12 + [(0, 0, 0, 0), (0, 1, 1, 0)] * 3 + [(1, 0, 0, 0)] * 20
    full = [(0, 0, 0, 0)] * cfg.sim.startup_discard_cycles + codes
    assert _plans_of(monkeypatch, cfg, codes) == [make_schedule(cfg, c, k) for k, c in enumerate(full)]
    # every 16th cycle forces a trough-window reset
    forced = make_schedule(cfg, (1, 0, 0, 0), cycle=16)
    assert forced[0][2].reset_on
    assert not forced[1][2].reset_on
    # all-zero codes hold the membrane at rest the whole cycle
    idle = make_schedule(cfg, (0, 0, 0, 0), cycle=5)
    assert idle[0][2].reset_on
    assert idle[1][2].reset_on


_ZERO = (0, 0, 0, 0)


@pytest.mark.parametrize("codes", [
    [_ZERO] * 2 + [(1, 0, 1, 0), (0, 1, 1, 0)] + [_ZERO] * 3 + [(1, 1, 0, 0)] + [_ZERO] * 2,
    [_ZERO] * 2 + [(0, 1, 1, 0)] + [_ZERO] * 3 + [(1, 1, 0, 0), (1, 0, 1, 0)],
], ids=["zeros-after", "enabled-last"])
def test_trace_v_s_follows_the_hold_rule(monkeypatch, codes):
    # on a binary-weighted tree, with all-zero cycles before (the warm-up
    # among them), between and after enabled codes, and a weight value no
    # code enables, V_s is the rule stated cycle by cycle on the plates
    # the kernel sampled
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=(1e-12, 2e-12, 4e-12, 8e-12))))
    sampled = []
    run_cycles = neuron_mod.run_cycles

    def kept(*args):
        result = run_cycles(*args)
        sampled.append(result[2])
        return result

    monkeypatch.setattr(neuron_mod, "run_cycles", kept)
    run = run_neuron(cfg, codes, keep_trace=True)
    (_, states), = sampled
    full = [_ZERO] * cfg.sim.startup_discard_cycles + codes
    want = v_s(cfg.tree.c_s, full, states[:, :, 2:-1])
    assert states.shape[2] == 6 and np.all(want[:cfg.sim.startup_discard_cycles + 2] == 0.0)
    np.testing.assert_allclose(run.trace.v_s, want.ravel(), rtol=1e-13, atol=1e-15)


def test_make_schedule_validation():
    # a plan whose gates do not match the tree is refused where it runs
    cfg = CircuitConfig()
    with pytest.raises(ValueError, match=r"^switch state has 2 synapse bits, tree has 4$"):
        neuron_mod.simulate(cfg, [make_schedule(cfg, (1, 0), cycle=0)])
    # a bypass window reaching the mid-cycle sample is refused with the config
    with pytest.raises(ValueError, match=r"^pc\.duty_d: "):
        replace(cfg.pc, duty_d=0.5)


def test_plan_phases_allocate_steps_once_per_fractions_and_bypass(monkeypatch):
    # plans of two duties, every code and both recalibration flags: steps
    # are allocated once per distinct (segment fractions, bypass
    # switches), and every plan gets the steps its own allocation gives
    cfg = tune_inductor(CircuitConfig())
    plans = [make_schedule(c, code, cycle)
             for c in (cfg, replace(cfg, pc=replace(cfg.pc, duty_d=0.2)))
             for code in input_sweeps(4, n_scrambles=0)[0] for cycle in (0, 1)]
    gates = np.array([[False] * 4] + [plan[0][2].synapse_on for plan in plans])
    values, counts = neuron_mod._weight_counts(cfg.tree.c_s, gates)
    keys = list(map(tuple, counts.tolist()))
    calls = _count_calls(monkeypatch, neuron_mod, "_allocate_steps")
    systems, steps = {}, {}
    phases = [neuron_mod._plan_phases(cfg, plan, systems, steps, values, keys[g])
              for g, plan in enumerate(plans, 1)]
    assert len(calls) == 2 and len(plans) == 64
    for plan, got in zip(plans, phases):
        want = neuron_mod._allocate_steps(plan, cfg.sim.steps_per_cycle)
        assert [p.n_steps for p in got] == want
        assert [(p.start, p.end) for p in got] == [(start, end) for start, end, _ in plan]


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
    assert run.outputs.shape == run.delays.shape == run.stats.v_m_sample.shape == (6,)
    assert np.all(run.ledger.soma == cfg.dlcc.e_decision)
    assert run.trace is None


def test_run_neuron_zero_code_stays_quiet():
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(0, 0, 0, 0)] * 4)
    assert run.output_bits == "0000"
    assert run.output_bits == run.oracle_string
    assert run.stats.v_m_sample == pytest.approx([0.7] * 4, abs=5e-3)


def test_run_neuron_keeps_trace_on_request():
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(1, 0, 0, 0)] * 2, keep_trace=True)
    assert run.trace is not None
    assert run.trace.stats.v_pk.shape == (2 + cfg.sim.startup_discard_cycles,)


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


def test_csv_code_names_are_the_bits_as_digits(tmp_path):
    # each cycle's code is named by one digit per bit, as
    # "".join(map(str, code)) names the table's 0/1 tuple: on 512-bit
    # codes, the all-zero and all-one codes among them
    cfg = tune_inductor(scaled_tree(CircuitConfig(), 512))
    rng = np.random.default_rng(4)
    codes = [*map(tuple, rng.integers(0, 2, size=(4, 512)).tolist()), (0,) * 512, (1,) * 512]
    run = run_neuron(cfg, codes * 2)
    path = tmp_path / "run.csv"
    run.to_csv(str(path))
    names = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
    assert names == ["".join(map(str, code)) for code in codes * 2]


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
    # a diverging run raises at run time, before any peak search
    cfg = tune_inductor(CircuitConfig())
    _growing_step_maps(monkeypatch)
    peaks = _count_calls(monkeypatch, engine.PhaseOperator, "peaks")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow or invalid-value warning escapes
        with pytest.raises(SimulationError) as err:
            if design == "adiabatic":
                run_neuron(cfg, [(1, 1, 0, 0)] * 6)
            else:
                run_baseline(BaselineConfig.from_circuit(cfg), [(1, 1, 0, 0)] * 6)
    assert str(err.value) == message
    assert not peaks


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
    # passes, the first included, as one batch of 16-cycle periods, whose
    # exact checks must name the cycle and peak the reference kernel names
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
    block, _, k0, count = [call[:4] for call in batches if call[3] > 1][-1]
    assert len(block) == 16 and k0 <= k < k0 + count


def test_a_repeated_order_batches_from_its_first_pass(monkeypatch):
    # the ascending 16-code order, 4 passes: pass 1 batches a repeated
    # block from its first cycle, so each design's run takes a few items,
    # not one per cycle of the first pass
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4)[0] * 4
    batches = _count_calls(monkeypatch, engine, "_run_batch")
    run_neuron(cfg, codes)
    assert len(batches) <= 3
    batches.clear()
    run_baseline(BaselineConfig.from_circuit(cfg), codes)
    assert len(batches) <= 2


def test_false_alarm_inside_a_batch_matches_reference(monkeypatch):
    # a guard whose bound always trips: every (cycle, phase) pair, batched
    # ones included, is checked on its exact states, all of them stay under
    # the limit, and the run is the reference kernel's
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 1, 0, 1)] * 30 + [(0, 0, 0, 0)] * 6
    compile_operators = engine.compile_operators

    def alarmed(ops):
        ops = list(ops)
        compile_operators(ops)
        for op in ops:
            op._guard = op._guard + 1.0   # |z| ends in the affine 1: guard @ |z| >= 1

    monkeypatch.setattr(engine, "compile_operators", alarmed)
    checks = _count_calls(monkeypatch, engine.PhaseOperator, "check")
    run = run_neuron(cfg, codes, keep_trace=True)
    n_cycles = cfg.sim.startup_discard_cycles + len(codes)
    assert sorted(k for _, _, k in checks) == sorted(2 * list(range(n_cycles)))
    with reference_kernel():
        ref = run_neuron(cfg, codes, keep_trace=True)
    assert_same_run(run, ref)


def _count_step_maps(monkeypatch):
    # per step_maps call: the number of maps built (the entries of its stack)
    calls = []
    step_maps = engine.step_maps

    def counted(a, b, dt):
        calls.append(np.size(dt))
        return step_maps(a, b, dt)

    monkeypatch.setattr(engine, "step_maps", counted)
    return calls


def _maps_built(calls):
    # a run has one state size and builds its maps in one stacked call
    (n,) = calls
    return n


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
        counts = neuron_mod._allocate_steps(plan, cfg.sim.steps_per_cycle)
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


@pytest.mark.parametrize("design, c_s, codes, size", [
    # a plate per weight value that some cycle enables: none, two of
    # three, all three
    ("adiabatic", (1e-12, 2e-12, 4e-12), [(0, 0, 0)] * 3, 3),
    ("adiabatic", (1e-12, 2e-12, 4e-12), [(1, 0, 0), (0, 1, 0), (1, 1, 0)], 5),
    ("adiabatic", (1e-12, 2e-12, 4e-12), [(0, 0, 1), (0, 0, 0), (1, 1, 0)], 6),
    # one synapse per weight value: every transition has one leg per
    # value and no spread, so nothing is held
    ("baseline", (1e-12, 2e-12, 4e-12, 8e-12), input_sweeps(4, n_scrambles=0)[0], 5),
    # equal weights: a transition that mixes both previous levels at a
    # new level has a low leg, a high leg and a spread, the widest
    ("baseline", (1e-12,) * 4, [(1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)], 4),
    ("baseline", (1e-12,) * 4, [(1, 1, 0, 0), (1, 1, 0, 0)], 3),
])
def test_a_run_sizes_its_one_layout(monkeypatch, design, c_s, codes, size):
    # each design sizes the one state layout of a run by what the run
    # uses, not by the tree: start state and every phase system
    runs = []
    module = neuron_mod if design == "adiabatic" else baseline_mod
    run_cycles = module.run_cycles

    def kept(ledger, kinds, kind_of, x0, *args):
        runs.append((x0.size, {p.system.dim for _, phases in kinds for p in phases}))
        return run_cycles(ledger, kinds, kind_of, x0, *args)

    monkeypatch.setattr(module, "run_cycles", kept)
    _run(design, tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=c_s))), codes)
    assert runs == [(size, {size})]


def _run(design, cfg, codes):
    if design == "adiabatic":
        return run_neuron(cfg, codes)
    return run_baseline(BaselineConfig.from_circuit(cfg), codes)


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
@pytest.mark.parametrize("codes, message", [
    ([], "code stream is empty: need at least one code"),
    ([(1, 0, 0)], "code 0 has 3 bits, tree has 4 synapses"),
    ([(1, 0, 0, 0), (1, 0, 0, 0), [1, 0, 0, 0, 1]], "code 2 has 5 bits, tree has 4 synapses"),
    # a string of digits is no code: bool("0") is True
    (["0000", "0101"], "code 0 has a bit that is not a finite number"),
    ([(1, 0, 0, 0), (0, 1, math.nan, 0)], "code 1 has a bit that is not a finite number"),
    ([(1, 0, 0, 0), [1, 0, 0, 0], [0.0, -math.inf, 1.0, 0.0]],
     "code 2 has a bit that is not a finite number"),
    ([(1, 0, 0, 0), (1, None, 0, 0)], "code 1 has a bit that is not a finite number"),
    ([((1,), (0,), (0,), (1,))], "code 0 has a bit that is not a finite number"),
    # bits that are lists or arrays, which no hash key can hold
    ([[[0], [1], [0], [1]]], "code 0 has a bit that is not a finite number"),
    (np.zeros((5, 4, 1)), "code 0 has a bit that is not a finite number"),
    # one code given bare: each bit is a code, and no sequence
    ([1, 0, 1, 0], "code 0 is not a sequence of bits"),
    (np.array([1, 0, 1, 0]), "code 0 is not a sequence of bits"),
    ([(1, 0, 0, 0), (0, 1, 1, 0), 1], "code 2 is not a sequence of bits"),
    # a stream that is not iterable at all
    (5, "code stream is not a sequence of codes"),
    (None, "code stream is not a sequence of codes"),
    (np.array(3), "code stream is not a sequence of codes"),
])
def test_empty_and_malformed_streams_fail_by_name(design, codes, message):
    cfg = tune_inductor(CircuitConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no empty-slice warning before the error
        with pytest.raises(ValueError) as err:
            _run(design, cfg, codes)
    assert str(err.value) == message


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
@pytest.mark.parametrize("codes, message", [
    ([[1, 0, 0, 0], [0, 1, math.nan, 0], [math.inf, 0, 0, 0]],
     "code 1 has a bit that is not a finite number"),
    ([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -math.inf]],
     "code 2 has a bit that is not a finite number"),
    ([[1, 0, 0], [0, 1, 1]], "code 0 has 3 bits, tree has 4 synapses"),
    ([[1, 0, 0, 0, 1]], "code 0 has 5 bits, tree has 4 synapses"),
    # runs of equal rows, a NaN inside one and a run of rows with an inf
    ([[1, 0, 0, 0]] * 3 + [[0, 1, 0, 0]] * 2 + [[0, 1, math.nan, 0]] + [[0, 1, 0, 0]] * 2,
     "code 5 has a bit that is not a finite number"),
    ([[1, 0, 0, 0]] * 2 + [[0, math.inf, 1, 0]] * 3 + [[1, 0, 0, 0]],
     "code 2 has a bit that is not a finite number"),
])
def test_array_streams_fail_by_the_list_forms_name(design, codes, message):
    # a stream given as one array must name the code that its rows as
    # lists or tuples name
    cfg = tune_inductor(CircuitConfig())
    for form in (codes, [tuple(code) for code in codes], np.array(codes)):
        with pytest.raises(ValueError) as err:
            _run(design, cfg, form)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="^code stream is empty"):
        _run(design, cfg, np.zeros((0, 4), dtype=int))


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
def test_input_forms_give_the_canonical_stream(design):
    cfg = tune_inductor(CircuitConfig())
    canonical = [(1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 1, 0, 1), (0, 1, 1, 1)]
    rows = np.array([[0, 0, 0, 0], [0, 3, 1, -1]])
    # two raw keys per normalised code: (2, 0, 0, 0) beside (1, 0, 0, 0)
    raw = [(2, 0, 0, 0), [1, 0, 0, 0], (True, True, False, True), rows[0], [1, 1, 0, 7], rows[1]]

    def mutated():
        # one list object, changed in place between cycles
        code = [0] * 4
        for bits in canonical:
            code[:] = bits
            yield code

    # equal tuples that are distinct objects, read by content; from a
    # generator each is dropped after its cycle, so its id may come back
    fresh = [tuple(list(code)) for code in canonical]
    assert len(set(map(id, fresh))) == len(fresh)
    want = _run(design, cfg, canonical)
    # bits that are finite numbers but not plain ones, as fractions
    exact = [tuple(map(Fraction, code)) for code in canonical]
    # one array each, read by runs of equal rows: -0.0 and 0.0 are equal,
    # 2.0 and 1.0 are not, but normalise alike
    signed = np.array(canonical, dtype=float)
    signed[0, 1:], signed[2] = -0.0, [2.0, 1.0, 0.0, 2.0]
    arrays = [np.array(canonical, dtype=bool), np.array(canonical), signed]
    for codes in (raw, mutated(), fresh, (tuple(list(code)) for code in canonical), exact, *arrays):
        got = _run(design, cfg, codes)
        assert got.table == want.table
        assert got.output_bits == want.output_bits
        for name in ("index", "outputs", "delays", "oracle_bits", "stats"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert got.v_pk_reference == want.v_pk_reference
        for f in fields(engine.EnergyLedger):
            assert np.array_equal(getattr(got.ledger_full, f.name),
                                  getattr(want.ledger_full, f.name)), f.name


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
    # O(n) work runs on the distinct codes' bit matrix, once per run, and
    # a schedule is made once per plan, not per cycle
    cfg = tune_inductor(scaled_tree(CircuitConfig(), 512))
    n = cfg.tree.n
    a = (1,) * 256 + (0,) * 256
    b = (0, 1) * 256
    zero = (0,) * n
    codes = [a] * 12 + [b] * 12 + [zero] * 4 + [a] * 8
    scheduled = _count_calls(monkeypatch, neuron_mod, "_schedule")
    scored = _count_calls(monkeypatch, NeuronSpec, "fires_rows")
    counted = _count_calls(monkeypatch, neuron_mod, "_weight_counts")
    simulated = _count_calls(monkeypatch, neuron_mod, "_simulate_plans")
    run = run_neuron(cfg, codes)
    run.oracle_bits   # scored at the first read
    matrix = np.array([zero, a, b], dtype=bool)
    (_, plans, layout), = simulated
    plan_of, gate_of = layout.plan_of, layout.gate_of
    (_, on), = counted
    np.testing.assert_array_equal(on, matrix)
    # one plan per (code, recalibration flag), keyed on the index arrays
    warm = cfg.sim.startup_discard_cycles
    full = [zero] * warm + codes
    keys = {(c, k % cfg.sim.recal_every == 0) for k, c in enumerate(full)}
    assert len(keys) == 5
    plan_keys = [(gate_of[p], k % cfg.sim.recal_every == 0) for k, p in enumerate(plan_of.tolist())]
    assert len(plans) == len(set(plan_keys)) == len(set(zip(plan_keys, plan_of.tolist()))) == 5
    assert len(scheduled) == 5
    for k, (p, (g, forced)) in enumerate(zip(plan_of.tolist(), plan_keys)):
        assert matrix[g].tolist() == [bool(x) for x in full[k]]
        assert [sw.reset_on for _, _, sw in plans[p]] == [g == 0 or forced, g == 0]
    (_, rows), = scored
    np.testing.assert_array_equal(rows, matrix)
    assert run.table == [zero, a, b]

    scored.clear()
    counted_levels = _count_calls(monkeypatch, baseline_mod, "_level_counts")
    run_baseline(BaselineConfig.from_circuit(cfg), codes).oracle_bits
    pairs = set(zip([zero] + codes, codes))
    assert len(pairs) == 6
    (_, before, after), = counted_levels
    assert before.shape == after.shape == (len(pairs), n)
    assert {(x.tobytes(), y.tobytes()) for x, y in zip(before, after)} == {
        (np.array(x, dtype=bool).tobytes(), np.array(y, dtype=bool).tobytes()) for x, y in pairs}
    (_, rows), = scored
    np.testing.assert_array_equal(rows, matrix)


_CODES = [(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0)] * 3
_FORMS = {
    "list": lambda codes: [list(code) for code in codes],
    "tuple": lambda codes: [tuple(code) for code in codes],
    "bool array": lambda codes: np.array(codes, dtype=bool),
    "int array": lambda codes: np.array(codes, dtype=int),
}


def _assert_identical(got, want):
    assert got.table == want.table and got.warm_up == want.warm_up
    for name in ("index", "bits", "outputs", "delays", "oracle_bits"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    for a, b in zip(got.stats, want.stats, strict=True):
        np.testing.assert_array_equal(a, b)
    for f in fields(engine.EnergyLedger):
        assert np.array_equal(getattr(got.ledger_full, f.name),
                              getattr(want.ledger_full, f.name)), f.name


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
@pytest.mark.parametrize("form", list(_FORMS))
def test_a_code_stream_runs_as_its_raw_codes(design, form):
    cfg = tune_inductor(CircuitConfig())
    codes = _FORMS[form](_CODES)
    _assert_identical(_run(design, cfg, CodeStream(codes, cfg.tree.n)), _run(design, cfg, codes))
    if design == "adiabatic":   # and so is the trace
        got, want = (run_neuron(cfg, c, keep_trace=True) for c in (CodeStream(codes, 4), codes))
        for name in ("t", "i_l", "v_pc", "v_s", "v_m"):
            np.testing.assert_array_equal(getattr(got.trace, name), getattr(want.trace, name))


def test_one_stream_serves_every_operating_point(monkeypatch):
    # runs that differ in frequency, duty, warm-up, recalibration and tree
    # weights give from one stream what they give from fresh ones; the
    # stream derives its plans' layout once per tree, warm-up and
    # recalibration setting, and the operating point derives nothing
    base = tune_inductor(CircuitConfig())
    configs = [base,
               replace(base, pc=replace(base.pc, f_nominal=0.9 * base.pc.f_nominal)),
               replace(base, pc=replace(base.pc, duty_d=0.5 * base.pc.duty_d)),
               replace(base, sim=replace(base.sim, startup_discard_cycles=2)),
               replace(base, sim=replace(base.sim, recal_every=3)),
               tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=(1e-12, 2e-12, 4e-12, 8e-12)))),
               base]
    stream = CodeStream(_CODES, 4)
    got = [run_neuron(cfg, stream) for cfg in configs]
    laid_out = _count_calls(monkeypatch, neuron_mod, "_layout")
    for run, cfg in zip(got, configs):
        _assert_identical(run, run_neuron(cfg, CodeStream(_CODES, 4)))
    assert len(laid_out) == len(configs)
    laid_out.clear()
    for cfg in configs:
        run_neuron(cfg, stream)
    assert laid_out == []


def test_a_recalibration_period_past_int64_runs_as_a_long_one():
    # any period past the run forces cycle 0 only; one of 2**63 or more
    # must not overflow the modulus of the cycle index
    base = tune_inductor(CircuitConfig())
    got, want = (run_neuron(replace(base, sim=replace(base.sim, recal_every=k)), _CODES)
                 for k in (2**63, 10**6))
    _assert_identical(got, want)


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
def test_a_stream_and_its_runs_share_read_only_arrays(design):
    cfg = tune_inductor(CircuitConfig())
    stream = CodeStream(_CODES, 4)
    runs = [_run(design, cfg, stream) for _ in range(2)]
    assert runs[0].index is runs[1].index is stream.index
    assert runs[0].bits is runs[1].bits is stream.bits
    assert runs[0].table == runs[1].table == list(stream.table)
    assert runs[0].table is not runs[1].table
    # sent to a worker, the stream keeps its arrays read-only and its runs
    sent = pickle.loads(pickle.dumps(stream))
    _assert_identical(_run(design, cfg, sent), runs[0])
    for a in (stream.bits, stream.index, sent.bits, sent.index):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
def test_a_stream_of_another_size_fails_as_its_codes(design):
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 0, 0), (0, 1, 1)]
    for form in (codes, np.array(codes), CodeStream(codes, 3)):
        with pytest.raises(ValueError) as err:
            _run(design, cfg, form)
        assert str(err.value) == "code 0 has 3 bits, tree has 4 synapses"
