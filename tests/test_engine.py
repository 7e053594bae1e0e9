"""Integrator fidelity: step maps, switched runs, conservation, decay fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    EnergyLedger,
    FitError,
    SwitchState,
    SynapseTreeConfig,
    bypass_resistance,
    energy_residual,
    fit_decay,
    lc_series_resistance,
    reset_resistance,
    simulate,
    sweep_lock_frequency,
    tune_inductor,
)
from acansim.baseline import build_baseline_system
from acansim.engine import (
    Source,
    Store,
    book_segment,
    build_phase_system,
    propagate,
    step_maps,
)
from acansim.neuron import input_sweeps, make_schedule


def _operating_point(cfg, f):
    # rescale duty so the absolute top-up window width stays put
    return replace(cfg, pc=replace(cfg.pc, f_nominal=f, duty_d=cfg.pc.t_on * f))


def test_step_maps_zero_dt():
    e, f = step_maps(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0]), 0.0)
    assert np.allclose(e, np.eye(2))
    assert np.allclose(f, 0.0)


def test_lc_oscillation_returns_after_one_period():
    l, c = 1e-3, 25e-12
    a = np.array([[0.0, -1.0 / l], [1.0 / c, 0.0]])
    period = 2.0 * math.pi * math.sqrt(l * c)
    n = 4096
    e, f = step_maps(a, np.zeros(2), period / n)
    xs = propagate(e, f, np.array([0.0, 1.0]), n)
    i_scale = math.sqrt(c / l)
    assert abs(xs[-1][1] - 1.0) < 1e-4
    assert abs(xs[-1][0]) < 1e-4 * i_scale


def test_lc_oscillation_conserves_energy():
    l, c = 1e-3, 25e-12
    a = np.array([[0.0, -1.0 / l], [1.0 / c, 0.0]])
    period = 2.0 * math.pi * math.sqrt(l * c)
    e, f = step_maps(a, np.zeros(2), period / 512)
    xs = propagate(e, f, np.array([0.0, 1.0]), 2048)
    energy = 0.5 * l * xs[:, 0] ** 2 + 0.5 * c * xs[:, 1] ** 2
    assert np.max(np.abs(energy - energy[0])) < 1e-10 * energy[0]


def test_rc_discharge_matches_exponential():
    r, c = 1e3, 1e-9
    tau = r * c
    e, f = step_maps(np.array([[-1.0 / tau]]), np.zeros(1), tau / 100.0)
    xs = propagate(e, f, np.array([1.0]), 500)
    assert xs[-1][0] == pytest.approx(math.exp(-5.0), rel=1e-4)


def test_propagate_matches_repeated_advance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    a -= 2.0 * np.eye(3) * np.abs(a).max()  # keep it stable
    b = rng.normal(size=3)
    x0 = rng.normal(size=3)
    e, f = step_maps(a, b, 0.01)
    xs = propagate(e, f, x0, 17)
    x = x0.copy()
    for k in range(17):
        x = e @ x + f
        assert np.allclose(xs[k + 1], x, rtol=1e-10, atol=1e-14)


def test_build_phase_system_reduced_when_all_off():
    cfg = CircuitConfig()
    sys = build_phase_system(cfg, SwitchState(False, False, (False,) * 4))
    assert sys.dim == 3
    assert sys.groups == ()
    l_pc, c_pc, c_m = sys.stores
    assert (l_pc.k, l_pc.i, l_pc.j) == (cfg.pc.l_pc, 0, None)
    assert c_pc.k == pytest.approx(25.014e-12, rel=1e-12)
    assert c_m.k == pytest.approx(4.5e-12, rel=1e-12)
    # bypass and reset open: only the coil loses, only the DC feed sources
    assert [loss.account for loss in sys.losses] == ["r_lc"]
    assert sys.sources == (Source("source_dc", cfg.pc.v_dc, 0),)
    x = np.array([1e-3, 0.5, 0.9])
    expect = 0.5 * cfg.pc.l_pc * 1e-6 + 0.5 * c_pc.k * 0.25 + 0.5 * c_m.k * 0.81
    assert sys.stored_energy(x) == pytest.approx(expect, rel=1e-12)


def test_build_phase_system_lumps_equal_weights():
    cfg = CircuitConfig()
    sys = build_phase_system(cfg, SwitchState(True, False, (True,) * 4))
    assert sys.dim == 4
    assert len(sys.groups) == 1
    g = sys.groups[0]
    assert g.count == 4
    assert g.r == pytest.approx(5e3 / 4.0, rel=1e-12)
    assert g.c == pytest.approx(4e-12, rel=1e-12)
    assert sys.stores[1].k == pytest.approx(25e-12 + 4 * 3e-15, rel=1e-12)
    assert sys.stores[2].k == pytest.approx(4.5e-12 + 4 * 3e-15, rel=1e-12)
    assert sys.stores[3] == Store(g.c, 2, 3)
    bypass = [loss for loss in sys.losses if loss.account == "r_pc"]
    assert len(bypass) == 1 and bypass[0].g == pytest.approx(1.0 / 80.0, rel=1e-12)


def test_build_phase_system_splits_distinct_weights():
    tree = SynapseTreeConfig(c_s=(1e-12, 1e-12, 2e-12, 2e-12))
    cfg = CircuitConfig(tree=tree)
    sys = build_phase_system(cfg, SwitchState(False, False, (True,) * 4))
    assert sys.dim == 5
    assert [g.c_value for g in sys.groups] == [1e-12, 2e-12]
    assert all(g.count == 2 for g in sys.groups)
    # one gate loss per group, across its leg from the clock node
    gates = [loss for loss in sys.losses if loss.account == "r_tg"]
    assert [(loss.i, loss.j) for loss in gates] == [(1, 2), (1, 3)]


def test_build_phase_system_rejects_wrong_bit_count():
    cfg = CircuitConfig()
    with pytest.raises(ValueError):
        build_phase_system(cfg, SwitchState(False, False, (False,) * 3))


def test_simulate_baseline_waveform_shape():
    cfg = tune_inductor(CircuitConfig())
    plans = [make_schedule(cfg, (0, 0, 0, 0), cycle=k) for k in range(6)]
    trace, ledger = simulate(cfg, plans)
    assert trace.t.size == 6 * 4096 // 8
    assert len(trace.cycles) == 6
    for st in trace.cycles:
        assert 1.6 < st.v_pk < 2.1
        assert abs(st.v_x) < 0.2
    assert ledger.n_cycles == 6


def test_simulate_bills_drive_only_on_code_change():
    cfg = tune_inductor(CircuitConfig())
    codes = [(0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0)]
    plans = [make_schedule(cfg, c, cycle=k) for k, c in enumerate(codes)]
    _, ledger = simulate(cfg, plans)
    e_toggle = 0.5 * cfg.tree.c_inv * cfg.dlcc.v_dd ** 2
    assert ledger.drive[0] == 0.0
    assert ledger.drive[1] == 0.0
    assert ledger.drive[2] == pytest.approx(2 * e_toggle, rel=1e-12)
    assert ledger.drive[3] == 0.0


def test_simulate_passivity():
    cfg = tune_inductor(CircuitConfig())
    orders = input_sweeps(4, n_scrambles=0, seed=0)
    codes = orders[0]
    op = _operating_point(cfg, sweep_lock_frequency(cfg, codes))
    plans = [make_schedule(op, c, cycle=k) for k, c in enumerate(codes)]
    _, ledger = simulate(op, plans)
    for name in ("r_pc", "r_lc", "r_tg", "r_reset", "drive", "soma"):
        assert np.all(getattr(ledger, name) >= 0.0), name


def test_simulate_conservation_audit():
    cfg = tune_inductor(CircuitConfig())
    orders = input_sweeps(4, n_scrambles=0, seed=0)
    codes = orders[0]
    op = _operating_point(cfg, sweep_lock_frequency(cfg, codes))
    plans = [make_schedule(op, c, cycle=k) for k, c in enumerate(codes)]
    _, ledger = simulate(op, plans)
    assert abs(energy_residual(ledger)) <= 1e-3 * ledger.dissipated_total


def test_simulate_rejects_bad_plans():
    cfg = CircuitConfig()
    off = SwitchState(False, False, (False,) * 4)
    with pytest.raises(ValueError):
        simulate(cfg, [])
    with pytest.raises(ValueError):
        simulate(cfg, [((0.0, 0.4, off), (0.5, 1.0, off))])  # gap
    with pytest.raises(ValueError):
        simulate(cfg, [((0.0, 0.4, off),)])  # does not cover the cycle


def test_trace_csv_schema(tmp_path):
    cfg = tune_inductor(CircuitConfig())
    plans = [make_schedule(cfg, (1, 0, 0, 0), cycle=0)]
    trace, _ = simulate(cfg, plans)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,I_L,V_PC,V_s,V_m"
    assert len(lines) == trace.t.size + 1


def test_lossless_ring_fit_recovers_resonance():
    cfg = tune_inductor(CircuitConfig())
    cfg = replace(cfg, pc=replace(cfg.pc, q_lc=math.inf))
    free = SwitchState(False, False, (False,) * 4)
    plans = [((0.0, 1.0, free),)] * 6
    trace, _ = simulate(cfg, plans)
    fit = fit_decay(trace.t, trace.v_pc)
    assert fit.frequency == pytest.approx(1e6, rel=1e-3)
    assert abs(fit.lam) < 1e-3 * fit.omega


def test_damped_ring_fit_recovers_loss_rate():
    cfg = tune_inductor(CircuitConfig())
    free = SwitchState(False, False, (False,) * 4)
    plans = [((0.0, 1.0, free),)] * 8
    trace, _ = simulate(cfg, plans)
    fit = fit_decay(trace.t, trace.v_pc)
    lam_expect = lc_series_resistance(cfg) / (2.0 * cfg.pc.l_pc)
    assert fit.lam == pytest.approx(lam_expect, rel=0.02)


def test_fit_decay_synthetic_damped_sine():
    t = np.linspace(0.0, 10e-6, 4000)
    omega = 2.0 * math.pi * 1e6
    v = 0.9 + 0.8 * np.exp(-1e4 * t) * np.cos(omega * t + 0.3)
    fit = fit_decay(t, v)
    assert fit.omega == pytest.approx(omega, rel=1e-6)
    assert fit.lam == pytest.approx(1e4, rel=0.01)
    assert fit.offset == pytest.approx(0.9, abs=1e-3)


def test_fit_decay_rejects_flat_and_short_series():
    t = np.linspace(0.0, 1e-5, 100)
    with pytest.raises(FitError):
        fit_decay(t, np.ones_like(t))
    with pytest.raises(FitError):
        fit_decay(t[:8], np.sin(t[:8] * 1e6))


def _assert_accounts(ledger, ref):
    for name in ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
                 "drive", "reconfig", "soma"):
        got = float(getattr(ledger, name)[0])
        want = ref.get(name, 0.0)
        if want == 0.0:
            assert got == 0.0, name
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name


def test_book_segment_matches_per_column_formulas_adiabatic():
    # bypass and reset closed, two weight groups enabled, one open gate
    tree = SynapseTreeConfig(c_s=(1e-12, 1e-12, 2e-12, 2e-12))
    cfg = tune_inductor(CircuitConfig(tree=tree))
    sys = build_phase_system(cfg, SwitchState(True, True, (True, True, True, False)))
    assert len(sys.groups) == 2
    x0 = np.array([2e-4, 0.6, 0.4, 0.3, 0.9])
    n, dt = 512, 0.05 * cfg.pc.t_pc / 512
    xs = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
    ledger = EnergyLedger.zeros(1)
    book_segment(ledger, 0, sys, xs, dt)

    def trapz(y):
        return float(np.trapezoid(y, dx=dt))

    g_pc = 1.0 / bypass_resistance(cfg.pc.w_n, cfg.env)
    g_reset = 1.0 / reset_resistance(tree, cfg.env)
    r_lc = lc_series_resistance(cfg)
    v_ref = tree.v_ref
    col_il, col_vpc, col_vm = xs[:, 0], xs[:, 1], xs[:, -1]
    dvm = col_vm - v_ref
    _assert_accounts(ledger, {
        "source_dc": cfg.pc.v_dc * trapz(col_il),
        "r_lc": r_lc * trapz(col_il ** 2),
        "r_pc": g_pc * trapz(col_vpc ** 2),
        "r_reset": g_reset * trapz(dvm ** 2),
        "source_ref": g_reset * v_ref * trapz(-dvm),
        "r_tg": sum((1.0 / g.r) * trapz((col_vpc - xs[:, 2 + j]) ** 2)
                    for j, g in enumerate(sys.groups)),
    })


def test_book_segment_matches_per_column_formulas_baseline():
    # rising, falling, held-high and held-low branches, reset closed
    bcfg = BaselineConfig.from_circuit(CircuitConfig())
    prev, code = (0, 1, 1, 0), (1, 0, 1, 0)
    levels = sorted((p, n, c, 1) for p, n, c in zip(prev, code, bcfg.tree.c_s))
    sys = build_baseline_system(bcfg, levels, reset_on=True)
    x0 = np.array([0.0, 1.8, 0.0, 1.8, 0.9])
    n, dt = 1024, 1e-6 / 1024
    xs = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
    ledger = EnergyLedger.zeros(1)
    book_segment(ledger, 0, sys, xs, dt)

    def trapz(y):
        return float(np.trapezoid(y, dx=dt))

    g_reset = 1.0 / reset_resistance(bcfg.tree, bcfg.env)
    v_ref = bcfg.tree.v_ref
    dvm = xs[:, -1] - v_ref
    _assert_accounts(ledger, {
        "r_tg": sum((cnt / bcfg.r_drv) * trapz((n_ * bcfg.v_dd - xs[:, j]) ** 2)
                    for j, (_, n_, _, cnt) in enumerate(levels)),
        "r_reset": g_reset * trapz(dvm ** 2),
        "source_ref": g_reset * v_ref * trapz(-dvm),
    })
