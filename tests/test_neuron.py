"""Comparator offset/decision model, cycle schedules, and full neuron runs."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from acansim import (
    CircuitConfig,
    DlccConfig,
    dlcc_decide,
    dlcc_offset,
    input_sweeps,
    SimulationError,
    make_schedule,
    predicted_optimal_frequency,
    run_neuron,
    tune_inductor,
)

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


def test_dlcc_decide_strict_threshold():
    dlcc = DlccConfig()  # 10k/10k trim: offset 0.3 mV
    threshold = 1.1 - 0.3e-3
    assert dlcc_decide(threshold + 1e-6, dlcc).fired
    assert not dlcc_decide(threshold - 1e-6, dlcc).fired
    tie = dlcc_decide(threshold, dlcc)
    assert tie.outp == 0 and tie.outn == 1
    assert tie.v_os == pytest.approx(0.3e-3, abs=1e-12)


def test_dlcc_decide_delay_anchors():
    d = dlcc_decide(1.1 - 0.3e-3 + 0.1, DlccConfig())      # reference overdrive
    assert d.delay == pytest.approx(147e-9, rel=1e-9)
    fast = DlccConfig(m_l=1e3, m_r=10e3)
    v_th_fast = 1.1 - 261.2e-3
    d = dlcc_decide(v_th_fast + 0.1, fast)
    assert d.delay == pytest.approx(51e-9, rel=1e-9)
    sym = DlccConfig(m_l=1e3, m_r=1e3)
    d = dlcc_decide(1.1 - 0.2e-3 + 0.1, sym)
    assert d.delay == pytest.approx(87e-9, rel=1e-9)


def test_dlcc_decide_metastability_growth():
    dlcc = DlccConfig()
    threshold = 1.1 - 0.3e-3
    slow = dlcc_decide(threshold + 1e-3, dlcc)
    expect = 147e-9 + 5e-9 * math.log(0.1 / 1e-3)
    assert slow.delay == pytest.approx(expect, rel=1e-9)
    # overdrive below the clamp saturates the delay
    slower = dlcc_decide(threshold + 1e-5, dlcc)
    assert slower.delay == pytest.approx(expect, rel=1e-9)


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
    wide = replace(cfg, pc=replace(cfg.pc, duty_d=0.5))
    with pytest.raises(ValueError):
        make_schedule(wide, (1, 0, 0, 0), cycle=0)


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
    assert run.stats[0].cycle == cfg.sim.startup_discard_cycles
    assert np.all(run.ledger.soma == cfg.dlcc.e_decision)
    assert run.trace is None
    assert run.mean_tree_energy > 0.0
    assert run.ledger.s_e.max() >= run.mean_tree_energy


def test_run_neuron_zero_code_stays_quiet():
    cfg = tune_inductor(CircuitConfig())
    run = run_neuron(cfg, [(0, 0, 0, 0)] * 4)
    assert run.output_bits == "0000"
    assert run.output_bits == run.oracle_string
    assert run.mean_tree_energy == 0.0
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


def test_run_neuron_rejects_non_finite_inductor():
    # an infinite inductor makes the coil terms NaN; the divergence guard
    # must trip on NaN instead of returning an all-NaN ledger
    cfg = CircuitConfig()
    cfg = replace(cfg, pc=replace(cfg.pc, l_pc=math.inf))
    with np.errstate(all="ignore"), pytest.raises(SimulationError):
        run_neuron(cfg, [(1, 1, 0, 0)] * 3)
