"""End-to-end acceptance battery.

Each check prints one PASS/FAIL line with its measured figure of merit, so
a verbose run reads as a checklist.  Tolerances are stated inline; every
expected value is either a closed form computed here or a frozen reference
measurement.
"""

import math
import time
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    Corner,
    SweepSpec,
    SwitchState,
    baseline_transition_energy_analytic,
    compare_designs,
    corner_study,
    dlcc_offset,
    energy_residual,
    input_sweeps,
    optimize_frequency,
    predicted_optimal_frequency,
    run_baseline,
    run_neuron,
    scaled_tree,
    simulate,
    sweep_lock_frequency,
    synapse_energy_analytic,
    topup_energy_analytic,
    tune_inductor,
    worst_window_mean,
)
from decay_fit import fit_decay


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _zero_parasitic(cfg: CircuitConfig) -> CircuitConfig:
    tree = replace(cfg.tree, c_par=0.0, c_sh=0.0, c_pl_on=0.0, c_pl_off=0.0,
                   c_pr=0.0, c_inv=0.0)
    return replace(cfg, tree=tree)


def _at_frequency(cfg: CircuitConfig, f: float) -> CircuitConfig:
    # keep the absolute top-up window width when moving the drive frequency
    return replace(cfg, pc=replace(cfg.pc, f_nominal=f, duty_d=cfg.pc.t_on * f))


def test_criterion_1_ring_fit_recovers_resonance(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for l_pc, c_e in ((1e-3, 25e-12), (2e-3, 50e-12), (10e-6, 25e-12)):
        f_true = 1.0 / (2.0 * math.pi * math.sqrt(l_pc * c_e))
        cfg = _zero_parasitic(CircuitConfig())
        cfg = replace(cfg, pc=replace(cfg.pc, l_pc=l_pc, c_e=c_e,
                                      q_lc=math.inf, f_nominal=f_true))
        free = SwitchState(False, False, (False,) * cfg.tree.n)
        trace, _ = simulate(cfg, [((0.0, 1.0, free),)] * 6)
        fit = fit_decay(trace.t, trace.v_pc)
        worst = max(worst, abs(fit.frequency - f_true) / f_true)
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 10.0
    _verdict(capsys, 1, "ring-down frequency fit", ok,
             f"worst error {worst * 100:.4f}% of closed form, {elapsed:.1f} s")


# Frozen reference optima for two large arrays (512 and 1024 unit synapses,
# dump capacitor scaled with the array) at three tank sizes and two loading
# fractions.  The capacitance-ratio prediction must land within 2%.
_BIG_TREE_ANCHORS = [
    (512, 25e-12, 1.0, 300.39e3),
    (512, 100e-12, 1.0, 530.22e3),
    (512, 1000e-12, 1.0, 893.66e3),
    (1024, 25e-12, 1.0, 215.52e3),
    (1024, 100e-12, 0.5, 476.42e3),
    (1024, 1000e-12, 1.0, 814.33e3),
]


def test_criterion_2_predicted_optimal_frequencies(capsys):
    worst = 0.0
    for n, c_e, alpha, f_ref in _BIG_TREE_ANCHORS:
        cfg = _zero_parasitic(scaled_tree(CircuitConfig(), n, c_e=c_e))
        f = predicted_optimal_frequency(cfg, alpha)
        worst = max(worst, abs(f - f_ref) / f_ref)
    # the simulated optimum must then agree with the prediction
    cfg = tune_inductor(_zero_parasitic(scaled_tree(CircuitConfig(), 1024, c_e=25e-12)))
    pred = predicted_optimal_frequency(cfg, 1.0)
    opt = optimize_frequency(cfg, 1.0, spec=SweepSpec(cycles=48, skip=8, window=20))
    sim_gap = abs(opt.frequency - pred) / pred
    ok = worst <= 0.02 and sim_gap <= 0.03
    _verdict(capsys, 2, "optimal-frequency prediction", ok,
             f"worst anchor error {worst * 100:.2f}%, simulated gap {sim_gap * 100:.2f}%")


def test_criterion_3_energy_conservation(capsys):
    order = input_sweeps(4, n_scrambles=0)[0]
    base = tune_inductor(CircuitConfig())
    cfg = _at_frequency(base, sweep_lock_frequency(base, order))
    ratio = {}
    for spc in (4096, 8192):
        c = replace(cfg, sim=replace(cfg.sim, steps_per_cycle=spc))
        led = run_neuron(c, list(order)).ledger_full
        ratio[spc] = abs(energy_residual(led)) / led.dissipated_total
    bcfg = BaselineConfig.from_circuit(CircuitConfig())
    bratio = {}
    for spc in (4096, 8192):
        led = run_baseline(replace(bcfg, steps_per_cycle=spc), list(order)).ledger
        bratio[spc] = abs(energy_residual(led)) / led.dissipated_total
    shrink = ratio[4096] / ratio[8192]
    bshrink = bratio[4096] / bratio[8192]
    ok = (ratio[4096] <= 1e-3 and bratio[4096] <= 1e-3
          and 2.5 <= shrink <= 6.0 and 2.5 <= bshrink <= 6.0)
    _verdict(capsys, 3, "energy conservation", ok,
             f"residual/dissipation {ratio[4096]:.1e} resonant, {bratio[4096]:.1e} "
             f"level-driven; halving shrinks {shrink:.2f}x / {bshrink:.2f}x")


def _driven_gate_loss(c_t, r, t_pc, v_dd, n_steps=40000):
    """Reference conduction loss for one gate charged through r by a
    half-cosine ramp: RK4 on the node ODE, trapezoidal power integral."""
    dt = t_pc / n_steps
    tau = r * c_t

    def drive(t):
        return 0.5 * v_dd * (1.0 - math.cos(math.pi * t / t_pc))

    def f(t, v):
        return (drive(t) - v) / tau

    vc = np.empty(n_steps + 1)
    vc[0] = 0.0
    v = 0.0
    for k in range(n_steps):
        t = k * dt
        k1 = f(t, v)
        k2 = f(t + 0.5 * dt, v + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = f(t + dt, v + dt * k3)
        v += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        vc[k + 1] = v
    t = np.linspace(0.0, t_pc, n_steps + 1)
    vd = 0.5 * v_dd * (1.0 - np.cos(np.pi * t / t_pc))
    return float(np.trapezoid((vd - vc) ** 2 / r, t))


def test_criterion_4_analytic_loss_formulas(capsys):
    # slow-ramp conduction loss: series weight/dump pair, 5 kOhm gate
    c_t = 0.5e-12
    r, t_pc, v_dd = 5e3, 1e-6, 1.8
    assert r * c_t <= t_pc / 100.0
    ref = _driven_gate_loss(c_t, r, t_pc, v_dd)
    ana = synapse_energy_analytic(c_t, r, t_pc, v_dd, c_inv=0.0)
    gate_err = abs(ana - ref) / ref
    # bypass top-up: exponential discharge of the residual trough voltage
    c_pc, r_pc, v_x = 25e-12, 80.0, 0.3
    worst_topup = 0.0
    for t_on in (1e-9, 50e-9):
        t = np.linspace(0.0, t_on, 200001)
        v = v_x * np.exp(-t / (r_pc * c_pc))
        ref_e = float(np.trapezoid(v ** 2 / r_pc, t))
        ana_e = topup_energy_analytic(c_pc, v_x, t_on, r_pc)
        worst_topup = max(worst_topup, abs(ana_e - ref_e) / ref_e)
    ok = gate_err <= 0.05 and worst_topup <= 0.05
    _verdict(capsys, 4, "analytic loss formulas", ok,
             f"gate ramp {gate_err * 100:.2f}%, top-up {worst_topup * 100:.4f}% "
             f"vs numeric integrals")


def test_criterion_5_decision_fidelity(capsys):
    base = tune_inductor(CircuitConfig())
    orders = input_sweeps(4, n_scrambles=4, seed=0)
    hits = total = 0
    peaks = defaultdict(list)
    for order in orders:
        cfg = _at_frequency(base, sweep_lock_frequency(base, order))
        run = run_neuron(cfg, list(order) * 4)
        # score the final pass, after the ring has settled into the stream
        outs, oras = run.output_bits[-16:], run.oracle_string[-16:]
        hits += sum(a == b for a, b in zip(outs, oras))
        total += 16
        codes = [run.table[i] for i in run.index[-16:]]
        for code, v_m_peak, bit in zip(codes, run.stats.v_m_peak[-16:], outs):
            peaks[sum(code)].append(v_m_peak)
            # independent closed form: equal weights fire at two active inputs
            assert bit == ("1" if sum(code) >= 2 else "0"), code
    spreads = {k: max(v) - min(v) for k, v in peaks.items()}
    worst_spread = max(spreads.values())
    v_th = base.dlcc.v_th
    straddle = max(peaks[1]) < v_th < min(peaks[2])
    ok = hits == total and worst_spread <= 60e-3 and straddle
    _verdict(capsys, 5, "decision fidelity", ok,
             f"{hits}/{total} decisions, spread <= {worst_spread * 1e3:.1f} mV, "
             f"{max(peaks[1]):.3f} < {v_th} < {min(peaks[2]):.3f} V")


def test_criterion_6_tree_energy_savings(capsys):
    t0 = time.perf_counter()
    report = compare_designs(CircuitConfig(), mode="sweep")
    elapsed = time.perf_counter() - t0
    frac = report.adiabatic["tree"] / report.baseline["tree"]
    ok = (frac <= 0.20
          and 1.3e-12 <= report.baseline["tree"] <= 5.3e-12
          and elapsed < 120.0)
    _verdict(capsys, 6, "tree energy savings", ok,
             f"resonant tree at {frac * 100:.1f}% of level-driven "
             f"{report.baseline['tree'] * 1e12:.2f} pJ, {elapsed:.1f} s")


def test_criterion_7_loading_shifts_the_optimum(capsys):
    spec = SweepSpec(cycles=48, skip=8, window=20)
    o0 = optimize_frequency(CircuitConfig(), 0.0, spec=spec)
    o1 = optimize_frequency(CircuitConfig(), 1.0, spec=spec)
    gap = 1.0 - o1.frequency / o0.frequency
    ok = 0.02 <= gap <= 0.06 and o1.frequency < o0.frequency
    _verdict(capsys, 7, "loading shift", ok,
             f"all-on optimum {gap * 100:.2f}% below all-off")


def test_criterion_8_scaling_ratios(capsys):
    spec = SweepSpec(cycles=48, skip=8, window=20)
    ratios = {}
    for c_e in (25e-12, 1000e-12):
        cfg = tune_inductor(_zero_parasitic(scaled_tree(CircuitConfig(), 1024, c_e=c_e)))
        rep = compare_designs(cfg, mode="loading", spec=spec)
        ratios[c_e] = rep
    ok = (ratios[25e-12].adiabatic_ratio >= 20.0
          and ratios[1000e-12].adiabatic_ratio <= 10.0
          and ratios[25e-12].baseline_ratio >= 500.0
          and ratios[1000e-12].baseline_ratio >= 500.0)
    _verdict(capsys, 8, "1024-synapse loading ratios", ok,
             f"resonant all-on/all-off {ratios[25e-12].adiabatic_ratio:.1f} at 25 pF, "
             f"{ratios[1000e-12].adiabatic_ratio:.1f} at 1 nF; level-driven >= 500")


_MIRROR_GRID = [1e3, 3.25e3, 5.5e3, 7.75e3, 10e3]
_OFFSET_MV = [
    [0.20, 110.0, 178.4, 225.2, 261.2],
    [-154.6, 0.19, 90.2, 153.2, 196.4],
    [-343.6, -116.8, 0.18, 77.6, 131.6],
    [-674.8, -233.8, -91.6, 0.25, 66.8],
    [-674.8, -397.6, -190.6, -77.2, 0.3],
]


def test_criterion_9_comparator_offset_surface(capsys):
    exact = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, ml in enumerate(_MIRROR_GRID):
            for j, mr in enumerate(_MIRROR_GRID):
                if (i, j) == (4, 0):
                    continue
                exact &= dlcc_offset(ml, mr) == pytest.approx(
                    _OFFSET_MV[i][j] * 1e-3, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        surf = [[dlcc_offset(ml, mr) for mr in _MIRROR_GRID] for ml in _MIRROR_GRID]
    rows_up = all(surf[i][j] < surf[i][j + 1]
                  for i in range(5) for j in range(4))
    cols_down = all(surf[i + 1][j] <= surf[i][j]
                    for i in range(4) for j in range(5))
    diag = max(abs(surf[k][k]) for k in range(5))
    ok = exact and rows_up and cols_down and diag < 1e-3
    _verdict(capsys, 9, "comparator offset surface", ok,
             f"24/24 measured points exact, monotone, |diagonal| <= {diag * 1e3:.2f} mV")


def test_criterion_10_corner_robustness(capsys):
    spec = SweepSpec(cycles=64, skip=16, window=16, repeats=4)
    table = corner_study(CircuitConfig(), spec=spec)
    temps = sorted({r.temperature_c for r in table.rows})
    ordered = True
    for t in temps:
        rows = [r for r in table.rows if r.temperature_c == t]
        ordered &= max(rows, key=lambda r: r.e_tree).corner == Corner.SS.value
        ordered &= min(rows, key=lambda r: r.e_tree).corner == Corner.FF.value
    functional = (len({r.outputs for r in table.rows}) == 1
                  and all(r.outputs_ok for r in table.rows))
    spread = max(table.spread_by_temperature().values())
    ok = (len(table.rows) == 25 and len(temps) == 5
          and ordered and functional and spread <= 0.40)
    _verdict(capsys, 10, "corner robustness", ok,
             f"SS max / FF min at {len(temps)} temps, outputs identical, "
             f"spread <= {spread * 100:.1f}%")


def test_criterion_11_analytic_cross_checks(capsys):
    rng = np.random.default_rng(20260819)
    # window statistic against brute-force enumeration
    window_hits = 0
    for _ in range(120):
        n = int(rng.integers(5, 60))
        series = rng.uniform(0.0, 1.0, n)
        window = int(rng.integers(1, min(n, 8) + 1))
        skip = int(rng.integers(0, n - window + 1))
        brute = max(float(np.mean(series[i:i + window]))
                    for i in range(skip, n - window + 1))
        got = worst_window_mean(series, skip, window)
        window_hits += abs(got - brute) <= 1e-12 + 1e-12 * abs(brute)
    # transition charge against simulated rail draw on random trees, with
    # no branch held high across the edge so the rail sees only the risers
    trans_hits = 0
    worst = 0.0
    for _ in range(100):
        ns = int(rng.integers(2, 6))
        c_s = tuple(float(x) for x in rng.uniform(0.5e-12, 2.0e-12, ns))
        pairs = [((0, 0), (0, 1), (1, 0))[int(rng.integers(0, 3))] for _ in range(ns)]
        if not any(p == (0, 1) for p in pairs):
            pairs[int(rng.integers(0, ns))] = (0, 1)
        a = tuple(p[0] for p in pairs)
        b = tuple(p[1] for p in pairs)
        circuit = replace(CircuitConfig(), tree=replace(CircuitConfig().tree, c_s=c_s))
        bcfg = replace(BaselineConfig.from_circuit(circuit), steps_per_cycle=1024)
        run = run_baseline(bcfg, [(0,) * ns, a, b])
        ana = baseline_transition_energy_analytic(bcfg.tree, a, b, bcfg.v_dd)
        err = abs(run.ledger.source_dc[2] - ana) / ana
        worst = max(worst, err)
        trans_hits += err <= 0.02
    ok = window_hits == 120 and trans_hits == 100
    _verdict(capsys, 11, "analytic cross-checks", ok,
             f"window stat {window_hits}/120 exact, transition charge "
             f"{trans_hits}/100 within 2% (worst {worst * 100:.4f}%)")
