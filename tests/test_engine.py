"""Integrator fidelity: step maps, switched runs, conservation, decay fits."""

import ast
import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from acansim import (
    BaselineConfig,
    CircuitConfig,
    EnergyLedger,
    SimulationError,
    SwitchState,
    SynapseTreeConfig,
    bypass_resistance,
    energy_residual,
    lc_series_resistance,
    reset_resistance,
    run_baseline,
    run_neuron,
    simulate,
    sweep_lock_frequency,
    tune_inductor,
)
from acansim import baseline as baseline_mod
from acansim import engine
from acansim import neuron as neuron_mod
from acansim.baseline import build_baseline_system
from acansim.engine import (
    PhaseOperator,
    Source,
    Store,
    compile_chords,
    compile_operators,
    step_maps,
    write_csv,
)
from acansim.neuron import build_phase_system, input_sweeps, make_schedule
from decay_fit import fit_decay
from reference_kernel import Gathers, assert_same_run, propagate, reference_kernel, stein_sums


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


def _held_states(sys, held):
    # a held state: a zero row and column in A, a zero entry in b, and no
    # store, loss or source names it
    held = list(held)
    assert not sys.a[held].any() and not sys.a[:, held].any() and not sys.b[held].any()
    named = {k for t in (*sys.stores, *sys.losses) for k in (t.i, t.j)} | {t.i for t in sys.sources}
    assert not named & set(held)


def test_build_phase_system_holds_plates_when_all_off():
    cfg = CircuitConfig()
    sys = build_phase_system(cfg, SwitchState(False, False, (False,) * 4))
    # the tree's layout [I_L, V_PC, V_s, V_m], its one plate held
    assert sys.dim == 4
    assert sys.groups == ()
    _held_states(sys, [2])
    l_pc, c_pc, c_m = sys.stores
    assert (l_pc.k, l_pc.i, l_pc.j) == (cfg.pc.l_pc, 0, None)
    assert c_pc.k == pytest.approx(25.014e-12, rel=1e-12)
    assert c_m.k == pytest.approx(4.5e-12, rel=1e-12) and c_m.i == 3
    # bypass and reset open: only the coil loses, only the DC feed sources
    assert [loss.account for loss in sys.losses] == ["r_lc"]
    assert sys.sources == (Source("source_dc", cfg.pc.v_dc, 0),)
    x = np.array([1e-3, 0.5, 0.3, 0.9])
    expect = 0.5 * cfg.pc.l_pc * 1e-6 + 0.5 * c_pc.k * 0.25 + 0.5 * c_m.k * 0.81
    assert sys.stored_energy(x) == pytest.approx(expect, rel=1e-12)
    # every code of an unequal tree, all-off included, has the tree's
    # layout, one plate per weight value (1, 2 and 4 pF), and holds the
    # plates of the values with no enabled gate
    tree = SynapseTreeConfig(c_s=(2e-12, 1e-12, 4e-12, 1e-12))
    values = (1e-12, 2e-12, 4e-12)
    for code in itertools.product((False, True), repeat=4):
        for bypass, reset in ((False, False), (True, True)):
            sys = build_phase_system(CircuitConfig(tree=tree), SwitchState(bypass, reset, code))
            assert sys.dim == 6
            on = [any(b for b, c in zip(code, tree.c_s) if c == v) for v in values]
            _held_states(sys, [2 + j for j, enabled in enumerate(on) if not enabled])
            assert [g.c for g in sys.groups] == pytest.approx(
                [v * sum(b for b, c in zip(code, tree.c_s) if c == v)
                 for v, enabled in zip(values, on) if enabled], rel=1e-12)
            assert all(sys.a[2 + j, 2 + j] < 0.0 for j, enabled in enumerate(on) if enabled)


def test_build_phase_system_lumps_equal_weights():
    cfg = CircuitConfig()
    sys = build_phase_system(cfg, SwitchState(True, False, (True,) * 4))
    assert sys.dim == 4
    assert len(sys.groups) == 1
    g = sys.groups[0]
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
    # each group lumps two gates: half the gate resistance, twice the weight
    assert [g.c for g in sys.groups] == pytest.approx([2e-12, 4e-12], rel=1e-12)
    assert [g.r for g in sys.groups] == pytest.approx([2.5e3, 2.5e3], rel=1e-12)
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
    assert trace.stats.v_pk.shape == (6,)
    assert np.all((1.6 < trace.stats.v_pk) & (trace.stats.v_pk < 2.1))
    # the bypass closes at the cycle start, near the clock trough; every
    # cycle has steps_per_cycle // trace_stride samples
    assert np.abs(trace.v_pc[::4096 // 8]).max() < 0.2
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


def test_simulate_hands_its_distinct_plans_and_index_to_simulate_plans(monkeypatch):
    # simulate finds each cycle's plan by identity, and equal plans built
    # apart stay apart; run_neuron hands its own distinct plans and index
    # to the same helper, _simulate_plans, with no plan per cycle
    cfg = tune_inductor(CircuitConfig())
    plans = [make_schedule(cfg, c, cycle=1) for c in ((1, 1, 0, 0), (0, 1, 1, 1), (1, 1, 0, 0))]
    calls = []
    simulate_plans = neuron_mod._simulate_plans

    def counted(cfg, distinct, plan_of, *gates, **kwargs):
        calls.append((distinct, plan_of.tolist()))
        return simulate_plans(cfg, distinct, plan_of, *gates, **kwargs)

    monkeypatch.setattr(neuron_mod, "_simulate_plans", counted)
    cycles = [plans[i] for i in (1, 1, 0, 2, 0, 1)]
    _, ledger = simulate(cfg, cycles)
    (distinct, plan_of), = calls
    assert [id(p) for p in distinct] == [id(plans[i]) for i in (1, 0, 2)]
    assert plan_of == [0, 0, 1, 2, 1, 0] and ledger.n_cycles == 6

    monkeypatch.setattr(neuron_mod, "simulate", None)
    run = run_neuron(cfg, [(1, 1, 0, 0)] * 3)
    distinct, plan_of = calls[-1]
    assert len(plan_of) == run.ledger_full.n_cycles == cfg.sim.startup_discard_cycles + 3
    assert sorted(set(plan_of)) == list(range(len(distinct)))


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


def test_plans_ending_short_of_one_book_first_and_last_phases():
    # plans may end up to 1e-12 short of the cycle end: the first and last
    # phases of a cycle are marked by position, not by fractions 0 and 1.
    # Repeated codes share a plan object, so batched cycles are covered too
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 1, 0, 0)] * 3 + [(0, 1, 1, 1), (0, 0, 0, 0)] * 2 + [(1, 0, 1, 0)] * 5
    ledgers = []
    for end in (1.0, 1.0 - 1e-13):
        plans = {c: tuple((s, end if e == 1.0 else e, sw) for s, e, sw in make_schedule(cfg, c, 1))
                 for c in set(codes)}
        ledgers.append(simulate(cfg, [plans[c] for c in codes], keep_samples=False)[1])
    exact, short = ledgers
    dissipated = exact.dissipated_total
    assert short.e_stored_last == pytest.approx(exact.e_stored_last, rel=1e-7)
    assert np.all(np.abs(short.reconfig - exact.reconfig) <= 1e-9 * dissipated)
    assert abs(energy_residual(short) - energy_residual(exact)) <= 1e-9 * dissipated


def test_simulate_rejects_bad_plans():
    cfg = CircuitConfig()
    off = SwitchState(False, False, (False,) * 4)
    with pytest.raises(ValueError):
        simulate(cfg, [])
    with pytest.raises(ValueError):
        simulate(cfg, [((0.0, 0.4, off), (0.5, 1.0, off))])  # gap
    with pytest.raises(ValueError):
        simulate(cfg, [((0.0, 0.4, off),)])  # does not cover the cycle
    on = SwitchState(False, False, (True,) + (False,) * 3)
    with pytest.raises(ValueError, match="mid-cycle"):
        simulate(cfg, [((0.0, 0.4, off), (0.4, 1.0, on))])


def test_trace_csv_schema(tmp_path):
    cfg = tune_inductor(CircuitConfig())
    plans = [make_schedule(cfg, (1, 0, 0, 0), cycle=0)]
    trace, _ = simulate(cfg, plans)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,I_L,V_PC,V_s,V_m"
    assert len(lines) == trace.t.size + 1


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(str(path), ("a", "b", "c", "d"), [(np.float64(0.1), 1e-12 / 3, 7, "0110")])
    assert path.read_text() == f"a,b,c,d\n0.1,{1e-12 / 3!r},7,0110\n"


def _per_cell_csv(path, header, rows):
    # the per-cell formatter that write_csv's chunk templates replaced
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


_EDGE_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-05, 1e22, 5e-324, 0.1, 1 / 3,
               123456789012345680.0, 7, -3, 0, True, False, "0110", "", "nan"]
_NUMPY_CELLS = [np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(1e16),
                np.float32(0.1), np.int64(5), np.bool_(True), np.str_("x")]


@pytest.mark.parametrize("numpy_chunk", [None, 0, 1, 2])
def test_write_csv_matches_the_per_cell_formatter(tmp_path, numpy_chunk):
    # three chunks, the last one partial: Python cells only, or numpy
    # scalars in one chunk; every byte as the per-cell formatter writes it
    header = ("a", "b", "c", "d", "e")
    cells = _EDGE_CELLS * (-(-(2 * engine.CSV_CHUNK + 3) * 5 // len(_EDGE_CELLS)))
    rows = [tuple(cells[5 * k:5 * k + 5]) for k in range(2 * engine.CSV_CHUNK + 3)]
    if numpy_chunk is not None:
        k = numpy_chunk * engine.CSV_CHUNK + 1
        rows[k] = tuple(_NUMPY_CELLS[:5])
        rows[k + 1] = tuple(_NUMPY_CELLS[3:])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, iter(rows))
    _per_cell_csv(str(want), header, rows)
    assert got.read_bytes() == want.read_bytes()
    with pytest.raises(ValueError, match="every row needs 5 cells"):
        write_csv(str(got), header, rows[:3] + [rows[3][:4]])


def test_trace_csv_matches_the_per_cell_formatter(tmp_path):
    # a trace longer than one chunk, written from per-chunk Python floats
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 0, 0, 0), (0, 1, 1, 1)] * 5
    trace, _ = simulate(cfg, [make_schedule(cfg, c, cycle=k) for k, c in enumerate(codes)])
    assert trace.t.size > engine.CSV_CHUNK
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace.to_csv(str(got))
    _per_cell_csv(str(want), ("t", "I_L", "V_PC", "V_s", "V_m"),
                  zip(trace.t, trace.i_l, trace.v_pc, trace.v_s, trace.v_m))
    assert got.read_bytes() == want.read_bytes()


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


def test_import_loads_no_scipy():
    # the package needs numpy alone; scipy serves the tests' decay fits.
    # Nor does it load the process pool's modules, which only a sweep with
    # more than one job needs, at import
    import acansim
    src = str(Path(acansim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import acansim, acansim.cli, sys; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_engine_imports_no_acansim_module():
    # the kernel knows no circuit: the designs import it, never the reverse
    tree = ast.parse(Path(engine.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [("." * node.level) + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "acansim"]
    assert "numpy" in imported


def _assert_accounts(ledger, ref):
    for name in ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
                 "drive", "reconfig", "soma"):
        got = float(getattr(ledger, name)[0])
        want = ref.get(name, 0.0)
        if want == 0.0:
            assert got == 0.0, name
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name


def _book_phase(sys, dt, n, x0):
    # the phase operator's accounts from start state x0, its reference state
    op = PhaseOperator(sys, dt, n, step_maps(sys.a, sys.b, dt), x0, (-1,), math.inf)
    compile_operators([op])
    ledger = EnergyLedger.zeros(1)
    op.book(ledger, np.array([0]), (np.append(x0, 1.0) - op.ref)[None])
    return ledger


def test_book_segment_matches_per_column_formulas_adiabatic():
    # bypass and reset closed, two weight groups enabled, one open gate
    tree = SynapseTreeConfig(c_s=(1e-12, 1e-12, 2e-12, 2e-12))
    cfg = tune_inductor(CircuitConfig(tree=tree))
    sys = build_phase_system(cfg, SwitchState(True, True, (True, True, True, False)))
    assert len(sys.groups) == 2
    x0 = np.array([2e-4, 0.6, 0.4, 0.3, 0.9])
    n, dt = 512, 0.05 * cfg.pc.t_pc / 512
    xs = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
    ledger = _book_phase(sys, dt, n, x0)

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
    # rising, falling, held-high and held-low branches of two weight values,
    # reset closed; the 1 pF value's high leg mixes both previous levels,
    # so that value has a spread state, and the 2 pF value has none; the
    # system takes a state size one wider, as in a run with a wider
    # transition, so one state is held
    tree = SynapseTreeConfig(c_s=(1e-12, 1e-12, 1e-12, 2e-12, 2e-12))
    bcfg = BaselineConfig.from_circuit(CircuitConfig(tree=tree))
    prev, code = (0, 1, 1, 0, 1), (1, 1, 0, 0, 1)
    ((ones, spread, reset_on), starts), = baseline_mod._legs(
        bcfg, np.array([prev], dtype=bool), np.array([code], dtype=bool))
    assert (ones, spread, reset_on) == ((2, 1), (True, False), False)
    v_dd, r = bcfg.v_dd, bcfg.r_drv
    # per weight value its low leg, high leg and spread, where present,
    # then the held state, then the membrane; per state but the membrane:
    # count, weight and rail (None: the spread), or None where it is held
    states = [(1, 1e-12, 0.0), (2, 1e-12, v_dd), (3, 1e-12, None),
              (1, 2e-12, 0.0), (1, 2e-12, v_dd), None]
    sigma0 = v_dd * math.sqrt((1 * 1 / 2) / 3)
    assert starts == pytest.approx([v_dd, v_dd / 2, sigma0, 0.0, v_dd], rel=1e-15)
    assert build_baseline_system(bcfg, ones, spread, reset_on=True).dim == 6
    sys = build_baseline_system(bcfg, ones, spread, reset_on=True, dim=7)
    assert sys.dim == 7
    _held_states(sys, [5])
    legs = [(j, *st) for j, st in enumerate(states) if st is not None and st[2] is not None]
    assert [(g.r, g.c) for g in sys.groups] == pytest.approx(
        [(r / cnt, cnt * c) for _, cnt, c, _ in legs], rel=1e-15)
    x0 = np.array([*starts, 0.0, 0.9])
    n, dt = 1024, 1e-6 / 1024
    xs = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
    ledger = _book_phase(sys, dt, n, x0)

    def trapz(y):
        return float(np.trapezoid(y, dx=dt))

    g_reset = 1.0 / reset_resistance(tree, bcfg.env)
    v_ref = tree.v_ref
    dvm = xs[:, -1] - v_ref
    _assert_accounts(ledger, {
        # the legs, and the spread's 3 synapses of the mixed new level
        "r_tg": sum((cnt / r) * trapz((u - xs[:, j]) ** 2) for j, cnt, _, u in legs)
                + (3 / r) * trapz(xs[:, 2] ** 2),
        # the rail feeds only the legs whose driver sits high
        "source_dc": sum(v_dd * (cnt / r) * trapz(v_dd - xs[:, j])
                         for j, cnt, _, u in legs if u > 0.0),
        "r_reset": g_reset * trapz(dvm ** 2),
        "source_ref": g_reset * v_ref * trapz(-dvm),
    })
    # the spread decays on its own: by (1 - h) / (1 + h) a trapezoid step,
    # h = dt / (2 r_drv c_w); the held state stays at its start
    h = dt / (2.0 * r * 1e-12)
    np.testing.assert_allclose(xs[:, 2], sigma0 * ((1 - h) / (1 + h)) ** np.arange(n + 1),
                               rtol=1e-12, atol=1e-15 * sigma0)
    assert not xs[:, 5].any()
    # stored energy per column, the spread's 1/2 N_w c_w sigma^2 included,
    # and at the start that of every plate at its driver's previous rail
    c_mb = tree.c_d + tree.c_par
    stored = 0.5 * c_mb * xs[:, -1] ** 2 + 0.5 * 3 * 1e-12 * xs[:, 2] ** 2 + sum(
        0.5 * cnt * c * (xs[:, j] - xs[:, -1]) ** 2 for j, cnt, c, _ in legs)
    np.testing.assert_allclose(sys.stored_energy(xs), stored, rtol=1e-12)
    per_synapse = 0.5 * c_mb * 0.9 ** 2 + sum(0.5 * c * (p * v_dd - 0.9) ** 2
                                             for p, c in zip(prev, tree.c_s))
    assert sys.stored_energy(x0) == pytest.approx(per_synapse, rel=1e-12)


@pytest.mark.parametrize("order", range(5))
def test_closed_form_kernel_matches_reference_kernel(order):
    # each input order of the 4-synapse tree, two passes, through both
    # designs and both kernels; the adiabatic run keeps its trace
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, seed=0)[order]
    op = _operating_point(cfg, sweep_lock_frequency(cfg, codes))
    base = BaselineConfig.from_circuit(cfg)
    runs = [run_neuron(op, codes * 2, keep_trace=True), run_baseline(base, codes * 2)]
    with reference_kernel():
        refs = [run_neuron(op, codes * 2, keep_trace=True), run_baseline(base, codes * 2)]
    for run, ref in zip(runs, refs):
        assert_same_run(run, ref)


# a run-length stream: long runs of one code, the idle code among them
RUN_LENGTH_STREAM = [(1, 1, 0, 1)] * 200 + [(0, 0, 0, 0)] * 40 + [(1, 0, 1, 0)] * 60
# a periodic stream: a 16-code order, 4 passes and a partial fifth, then
# the order's first three codes, which break the period and start from
# the state the partial pass ends in
ORDER = input_sweeps(4, seed=0)[1]
PERIODIC_STREAM = ORDER * 4 + ORDER[:5] + ORDER[:3]


@pytest.mark.parametrize("design, recal_every, codes", [
    ("adiabatic", 1, RUN_LENGTH_STREAM), ("adiabatic", 16, RUN_LENGTH_STREAM),
    ("adiabatic", 10_000, RUN_LENGTH_STREAM), ("baseline", None, RUN_LENGTH_STREAM),
    ("adiabatic", 16, PERIODIC_STREAM), ("adiabatic", 5, PERIODIC_STREAM),
    ("baseline", None, PERIODIC_STREAM),
], ids=["1", "16", "10000", "baseline", "periodic-16", "periodic-5", "periodic-baseline"])
def test_batched_runs_match_reference_kernel(design, recal_every, codes):
    # repeated blocks of cycles run through pass 1 as batches.  On the
    # run-length stream: none when every cycle recalibrates, up to 15
    # cycles at 16, one batch per code at 10 000, and one per code in the
    # baseline, whose cycles repeat their entry map with their code.  On
    # the periodic stream: 16-cycle periods, the partial pass riding in the
    # last batch; a recalibration every 5 cycles, which does not divide
    # the order, would make the period 80 cycles, longer than the stream,
    # so its passes run cycle by cycle
    cfg = tune_inductor(CircuitConfig())
    if design == "adiabatic":
        cfg = replace(cfg, sim=replace(cfg.sim, recal_every=recal_every))
        run = partial(run_neuron, cfg, codes, keep_trace=True)
    else:
        run = partial(run_baseline, BaselineConfig.from_circuit(cfg), codes)
    got = run()
    with reference_kernel():
        ref = run()
    assert_same_run(got, ref)


def test_peak_chunks_leave_peaks_and_samples_unchanged(monkeypatch):
    # slots of odd lengths, each more than one chunk, the idle code among them
    cfg = tune_inductor(CircuitConfig())
    codes = [(1, 1, 0, 1)] * 101 + [(0, 0, 0, 0)] * 77 + [(1, 0, 1, 0)] * 23
    # and a membrane that holds exactly (gates and reset open), so every
    # block of its peak search is a candidate; the run starts in the flat
    # system's layout, its plate held at 0
    flat = build_phase_system(cfg, SwitchState(False, False, (False,) * 4))
    flat_kinds = [(None, (engine.Phase(0.0, 1.0, 4096, flat),))]

    def observe(chunk_blocks):
        monkeypatch.setattr(engine, "_CHUNK_BLOCKS", chunk_blocks)
        run = run_neuron(cfg, codes, keep_trace=True)
        trace = run.trace
        search, samples, states = engine.run_cycles(
            EnergyLedger.zeros(151), flat_kinds, np.zeros(151, int),
            np.append(np.zeros(flat.dim - 1), cfg.tree.v_ref), cfg.pc.t_pc, math.inf, (1, -1), 8)
        # the searches run here, under the chunk bound
        return (np.column_stack(run.stats),
                np.column_stack([trace.t, trace.i_l, trace.v_pc, trace.v_s, trace.v_m]),
                search.peaks, samples, np.concatenate(states))

    # under the bound the main phases of the first two codes take two
    # chunks each and the flat phase three
    bounded = observe(engine._CHUNK_BLOCKS)
    whole = observe(10 ** 9)
    assert np.all(whole[2][:, 1] == cfg.tree.v_ref)
    for a, b in zip(bounded, whole):
        np.testing.assert_array_equal(a, b)


def test_runs_leave_no_reference_cycles():
    # cyclic garbage outlives its run until the collector next runs, which
    # lifts a study's peak memory: both designs, periodic blocks and the
    # trace path included, leave none, whether their peak search is still
    # pending or has run
    cfg = tune_inductor(CircuitConfig())
    base = BaselineConfig.from_circuit(cfg)
    codes = input_sweeps(4, seed=0)[1] * 2
    run_neuron(cfg, codes[:3]).stats   # lazy first-call set-up outside acansim
    gc.collect()
    gc.disable()
    try:
        for searched in (False, True):
            for run in (run_neuron(cfg, codes, keep_trace=True), run_baseline(base, codes)):
                if searched:
                    run.stats, run.oracle_bits, run.v_pk_reference
        assert gc.collect() == 0
    finally:
        gc.enable()


def _read_all(run, path):
    # every peak-derived value of a run, its CSV file's bytes among them
    run.to_csv(str(path))
    values = [*run.stats, run.oracle_bits, run.v_pk_reference, path.read_bytes()]
    return values + ([*run.trace.stats] if run.trace is not None else [])


# a peak-derived value of a run, read: (name, whether the baseline's read
# runs its search, read); the baseline keeps no trace
READS = {
    "stats": (True, lambda run, path: run.stats),
    "oracle_bits": (False, lambda run, path: run.oracle_bits),
    "v_pk_reference": (True, lambda run, path: run.v_pk_reference),
    "trace.stats": (None, lambda run, path: run.trace.stats),
    "to_csv": (True, lambda run, path: run.to_csv(str(path))),
}


@pytest.mark.parametrize("design, first", [("adiabatic", name) for name in READS] + [
    ("baseline", name) for name, (searched, _) in READS.items() if searched is not None])
def test_peaks_are_searched_once_at_the_first_read(monkeypatch, tmp_path, design, first):
    # a run leaves its peak search pending: no PhaseOperator.peaks call
    # and no chord table until a peak-derived value is read.  Whichever
    # is read first, the search then runs once (one compile_chords call)
    # and every value is bit for bit the one read after the stats.  The
    # baseline's oracle reads no peak, and it keeps no trace
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, seed=0)[2] * 2
    if design == "adiabatic":
        run = partial(run_neuron, cfg, codes, keep_trace=True)
    else:
        run = partial(run_baseline, BaselineConfig.from_circuit(cfg), codes)
    want = _read_all(run(), tmp_path / "want.csv")
    searches, peaks, stacks = [], [], []
    for owner, name, calls in ((engine, "compile_chords", searches),
                               (PhaseOperator, "peaks", peaks),
                               (engine, "_compile_chords", stacks)):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, orig=orig, calls=calls: (
            calls.append(None), orig(*args))[1])
    got = run()
    assert not searches and not peaks and not stacks
    searched, read = READS[first]
    read(got, tmp_path / "got.csv")
    assert len(searches) == (design == "adiabatic" or searched)
    values = _read_all(got, tmp_path / "got.csv")
    assert len(searches) == 1 and peaks and stacks
    assert len(values) == len(want)
    for a, b in zip(values, want):
        np.testing.assert_array_equal(a, b)
    calls = len(peaks)
    _read_all(got, tmp_path / "again.csv")
    assert len(peaks) == calls


@pytest.mark.parametrize("design", ["adiabatic", "baseline"])
@pytest.mark.parametrize("searched", [False, True], ids=["pending", "searched"])
def test_runs_pickle_with_their_search_pending_or_run(design, searched):
    # a run pickles before its peak search has run and after: the copy
    # reads the same stats, oracle bits and clock reference
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, seed=0)[3]
    run = (run_neuron(cfg, codes, keep_trace=True) if design == "adiabatic"
           else run_baseline(BaselineConfig.from_circuit(cfg), codes))
    if searched:
        run.stats
    copy = pickle.loads(pickle.dumps(run))
    for a, b in zip([*copy.stats, copy.oracle_bits], [*run.stats, run.oracle_bits]):
        np.testing.assert_array_equal(a, b)
    assert copy.v_pk_reference == run.v_pk_reference


def test_constant_stream_guards_and_peaks_per_batch(monkeypatch):
    # 608 cycles of one code (8 idle warm-up cycles, a recalibration every
    # 16): after the compile each slot guards the stacked starts of every
    # cycle that ran it in one call (one guard per cycle and phase made
    # 1216 calls, one per phase of each batch and lone cycle 50).  The
    # first read of the stats searches peaks in chunks bounded by cycles x
    # blocks, one call per chunk for both peak rows, where 16-cycle chunks
    # made 158 calls and one call per chunk and row 28.  The idle warm-up
    # cycles share the code's state layout, so the run compiles its
    # accounts in one call and its powers in one per step count, the
    # bypass and main phases (a 3-state warm-up layout made 2 and 4)
    cfg = tune_inductor(CircuitConfig())
    guards, peaks = [], []   # per guard call: operator and starts guarded
    guard, search = PhaseOperator.guard, PhaseOperator.peaks
    stacks = []   # per compile stack: its function and operators

    def counted(name):
        compile_stack = getattr(engine, name)

        def stack(group):
            stacks.append((name, len(group)))
            return compile_stack(group)
        return stack

    for name in ("_compile_powers", "_compile_accounts"):
        monkeypatch.setattr(engine, name, counted(name))

    def counted_guard(self, zs, *args):
        guards.append((self, len(zs)))
        return guard(self, zs, *args)

    def counted_peaks(self, zs):
        peaks.append((len(zs), self.blocks.shape[0]))
        return search(self, zs)

    monkeypatch.setattr(PhaseOperator, "guard", counted_guard)
    monkeypatch.setattr(PhaseOperator, "peaks", counted_peaks)
    run = run_neuron(cfg, [(1, 1, 0, 1)] * 600)
    assert not peaks
    run.stats

    # one call per slot, and every (cycle, phase) pair guarded once
    assert len(guards) == len({id(op) for op, _ in guards}) <= 8
    assert sum(n for _, n in guards) == 2 * (cfg.sim.startup_discard_cycles + 600)
    # even chunks overshoot the bound by less than one cycle's blocks
    assert all(c * blocks < engine._CHUNK_BLOCKS + blocks for c, blocks in peaks)
    chunks = sum(-(-n * op.blocks.shape[0] // engine._CHUNK_BLOCKS) for op, n in guards)
    assert len(peaks) == chunks == 14
    assert [name for name, _ in stacks] == ["_compile_powers"] * 2 + ["_compile_accounts"]
    assert sum(n for name, n in stacks if name == "_compile_powers") == stacks[-1][1] == len(guards)


def test_sweep_run_compiles_operators_per_step_count(monkeypatch):
    # the 16-code ascending sweep, 4 passes: every phase system of a run
    # has one state size, so a run builds its step maps in one
    # stacked call and compiles its operators in one call, with one
    # _compile_accounts call (one Stein doubling) and one _compile_powers
    # call (one pair of _powers calls: block table, block starts) per step
    # count, where one build per operator made 11 step_maps calls and 11
    # doublings (adiabatic) and 22 and 22 (baseline), and one pair of
    # _powers calls per operator.  Operators are built without _powers
    cfg = tune_inductor(CircuitConfig())
    codes = input_sweeps(4, n_scrambles=0, seed=0)[0] * 4
    calls = []   # (function, its argument's state size and more)
    compile_operators, compile_accounts, compile_powers, stein_sums, step_maps, powers = (
        engine.compile_operators, engine._compile_accounts, engine._compile_powers,
        engine._stein_sums, engine.step_maps, engine._powers)
    ops = []   # the operators of each compile

    def counted_compile(group):
        group = list(group)
        calls.append(("compile", None))
        ops.append(group)
        return compile_operators(group)

    def counted_accounts(group):
        calls.append(("accounts", len(group)))
        return compile_accounts(group)

    def counted_stack(group):
        calls.append(("stack", (group[0].n, len(group))))
        return compile_powers(group)

    def counted_powers(base, count):
        calls.append(("powers", (base.shape[-1] - 1, count)))
        return powers(base, count)

    def counted_stein(g, *args):
        calls.append(("stein", g.shape[-1] - 1))
        return stein_sums(g, *args)

    def counted_maps(a, *args):
        calls.append(("maps", a.shape[-1]))
        return step_maps(a, *args)

    monkeypatch.setattr(engine, "compile_operators", counted_compile)
    monkeypatch.setattr(engine, "_compile_accounts", counted_accounts)
    monkeypatch.setattr(engine, "_compile_powers", counted_stack)
    monkeypatch.setattr(engine, "_stein_sums", counted_stein)
    monkeypatch.setattr(engine, "step_maps", counted_maps)
    monkeypatch.setattr(engine, "_powers", counted_powers)
    for run in (partial(run_neuron, cfg, codes),
                partial(run_baseline, BaselineConfig.from_circuit(cfg), codes)):
        calls.clear()
        ops.clear()
        run()
        (run_ops,) = ops
        d = run_ops[0].dim
        assert {op.dim for op in run_ops} == {d}
        steps = list(dict.fromkeys(op.n for op in run_ops))
        assert len(steps) < len(run_ops)   # operators share stacks
        for name in ("compile", "maps", "stein"):
            assert [f for f, _ in calls].count(name) == 1, name
        assert ("maps", d) in calls and ("stein", d) in calls
        assert [arg for f, arg in calls if f == "accounts"] == [len(run_ops)]
        # one stack per step count, every operator in it
        assert [arg for f, arg in calls if f == "stack"] == [
            (n, sum(op.n == n for op in run_ops)) for n in steps]
        # every _powers call comes from the compile: a table of B + 1
        # powers, then n // B + 2 block starts, per step count
        compiled = [arg for f, arg in calls[calls.index(("compile", None)):] if f == "powers"]
        assert len(compiled) == len([f for f, _ in calls if f == "powers"]) == 2 * len(steps)
        assert compiled[0::2] == [(d, engine._BLOCK + 1)] * len(steps)
        assert compiled[1::2] == [(d, n // engine._BLOCK + 2) for n in steps]


def test_run_cycles_needs_one_state_size():
    # a run's maps and operators stack whole, so a run whose phases, entry
    # maps or start state differ in state size is refused by name before
    # any work
    cfg = CircuitConfig(tree=SynapseTreeConfig(c_s=(1e-12, 2e-12)))
    one, both = (build_phase_system(cfg, SwitchState(False, False, on))
                 for on in ((True, False), (True, True)))
    small = CircuitConfig()   # one weight value: a state fewer
    other = build_phase_system(small, SwitchState(False, False, (True,) * 4))
    x0 = np.array([0.0, 0.0, 0.0, 0.0, 0.7])
    phase = partial(engine.Phase, 0.0, 1.0, 256)
    runs = [([(None, (phase(one),)), (None, (phase(other),))], x0),
            ([(None, (phase(both), phase(other)))], x0),
            ([(None, (phase(one),)), (np.eye(5), (phase(both),))], x0),
            ([(None, (phase(one),))], x0[1:])]
    for kinds, start in runs:
        with pytest.raises(ValueError, match=r"^run_cycles: a run needs one state size, "
                                             r"got sizes \[4, 5\]$"):
            engine.run_cycles(EnergyLedger.zeros(2), kinds, np.arange(2) % len(kinds), start,
                              1e-6, math.inf, (-1,))


def _clock_phase():
    # the main phase of a cycle with two gates on; 3583 steps leave a
    # partial last block
    cfg = tune_inductor(CircuitConfig())
    sys = build_phase_system(cfg, SwitchState(False, False, (True, True, False, False)))
    n = 3583
    return sys, n, 0.95 * cfg.pc.t_pc / n


def test_phase_operator_states_and_peaks_match_propagation():
    sys, n, dt = _clock_phase()
    rng = np.random.default_rng(3)
    x_ref = np.array([1e-4, 0.3, 0.3, 0.8])
    op = PhaseOperator(sys, dt, n, step_maps(sys.a, sys.b, dt), x_ref, (1, -1), math.inf)
    compile_operators([op])
    compile_chords([op])
    x0s = x_ref + rng.normal(scale=[2e-4, 0.5, 0.5, 0.2], size=(6, 4))
    zs = np.column_stack([x0s, np.ones(6)]) - op.ref
    every = op.states(zs, np.arange(n + 1))
    end = engine._build_maps([(sys, dt, n)])[1][sys, dt, n]   # the phase's end map
    for x0, xs, z in zip(x0s, every, zs):
        want = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
        # within 1e-13 of each state's own scale (I_L keeps its own); a
        # drift rounded at |x_ref| in every step would miss this by 20x
        scale = np.abs(want).max(0)
        assert np.all(np.abs(xs - want) <= 1e-13 * scale)
        assert np.all(np.abs((end @ np.append(x0, 1.0))[:-1] - want[-1]) <= 1e-13 * scale)
        assert op.row(3, 1791) @ z + x_ref[3] == pytest.approx(want[1791, 3], rel=1e-12)
    # the peak search returns the maximum over every step, not a strided one
    for i, r in enumerate((1, -1)):
        np.testing.assert_allclose(op.peaks(zs)[:, i], every[:, :, r].max(1), rtol=1e-12)


@pytest.mark.parametrize("n", [engine._BLOCK + 1, 8 * engine._BLOCK, 56 * engine._BLOCK - 1,
                               56 * engine._BLOCK])
def test_chord_bounded_peaks_equal_an_exhaustive_search(n):
    # a deviation bound far above any state makes every block a candidate:
    # the exhaustive search, on the same arithmetic, so the chord-bounded
    # search must return its bits.  The bound is set on the operator, and
    # the search must then gather every block for both rows.  Step counts,
    # from the block length B: a partial last block of one step, whole
    # blocks, a partial one, and a last block of step n alone (56 B is a
    # cycle's main phase at B = 64).  The phase spans most of a cycle, or 24
    # steps a clock period, so that crests can rise inside blocks whose ends
    # both lie below the best block start.  The second system's membrane
    # holds exactly (gates and reset open), so there every block ties
    cfg = tune_inductor(CircuitConfig())
    rng = np.random.default_rng(n)
    for dt in (0.95 * cfg.pc.t_pc / n, cfg.pc.t_pc / 24):
        for on in ((True, True, False, False), (False,) * 4):
            sys = build_phase_system(cfg, SwitchState(False, False, on))
            x_ref = np.array([1e-4, 0.3, *[0.3] * (sys.dim - 3), 0.8])
            op = PhaseOperator(sys, dt, n, step_maps(sys.a, sys.b, dt), x_ref, (1, -1), math.inf)
            compile_operators([op])
            compile_chords([op])
            # starts off x_ref, and x_ref itself
            zs = np.column_stack([rng.normal(scale=[2e-4, *[0.5] * (sys.dim - 2), 0.2],
                                             size=(8, sys.dim)), np.ones(8)])
            zs[0, :-1] = 0.0
            every = op.states(zs, np.arange(n + 1))
            chord = op.peaks(zs)
            op.deviation = np.full_like(op.deviation, 1e300)
            op.blocks = op.blocks.view(Gathers)
            op.blocks.gathered = []
            exhaustive = op.peaks(zs)
            assert op.blocks.gathered == [list(range(n // engine._BLOCK + 1))] * 2
            np.testing.assert_array_equal(chord, exhaustive)
            for i, r in enumerate((1, -1)):
                np.testing.assert_allclose(exhaustive[:, i], every[:, :, r].max(1), rtol=1e-13)


def test_stacked_compile_matches_lone_compiles():
    # operators of one state size whose step counts have bit lengths
    # from 1 to 13 (at B = 64; a block less or more than B steps among
    # them), on systems that hold both, one or none of their two plates,
    # compiled in one batch and each alone: a lone operator is a batch of
    # one, so the batch must leave each one's accounts, deviation bounds
    # and peaks as they are
    cfg = tune_inductor(CircuitConfig(tree=SynapseTreeConfig(c_s=(1e-12, 1e-12, 2e-12, 2e-12))))
    gates = [(False,) * 4, (True, True, False, False), (True, False, True, False)]
    systems = [build_phase_system(cfg, SwitchState(bypass, reset, on))
               for bypass, reset, on in [(True, False, gates[0]), (False, True, gates[0]),
                                         (False, False, gates[1]), (True, True, gates[1]),
                                         (False, False, gates[2])]]
    assert {sys.dim for sys in systems} == {5}
    assert [len(sys.groups) for sys in systems] == [0, 0, 1, 1, 2]
    rng = np.random.default_rng(7)
    args = []
    b = engine._BLOCK
    for k, n in enumerate((1, 2, b - 1, b, b + 1, 16 * b, 48 * b, 56 * b, 64 * b)):
        sys = systems[k % len(systems)]
        x_ref = np.array([1e-4, 0.3, *[0.3] * (sys.dim - 3), 0.8]) + rng.normal(scale=0.05, size=sys.dim)
        dt = 0.9 * cfg.pc.t_pc / n
        args.append((sys, dt, n, step_maps(sys.a, sys.b, dt), x_ref, (1, -1), math.inf))
    batch = [PhaseOperator(*a) for a in args]
    compile_operators(batch)
    compile_chords(batch)
    for a, op in zip(args, batch):
        alone = PhaseOperator(*a)
        compile_operators([alone])
        compile_chords([alone])
        zs = np.column_stack([rng.normal(scale=0.1, size=(5, op.dim)), np.ones(5)])   # [x0 - x_ref; 1]
        got, want = EnergyLedger.zeros(5), EnergyLedger.zeros(5)
        op.book(got, np.arange(5), zs)
        alone.book(want, np.arange(5), zs)
        for (name, f, loss), (name_alone, f_alone, _) in zip(op.accounts, alone.accounts):
            assert name == name_alone
            if loss:
                loss_got, loss_want = getattr(got, name), getattr(want, name)
                assert np.all(loss_got >= 0.0), name
                np.testing.assert_allclose(loss_got, loss_want, rtol=1e-13, atol=0.0, err_msg=name)
            else:
                np.testing.assert_allclose(f, f_alone, rtol=0.0, atol=1e-13 * np.abs(f_alone).max(),
                                           err_msg=name)
        assert len(op.accounts) == len(alone.accounts)
        np.testing.assert_array_equal(op.deviation, alone.deviation)
        np.testing.assert_array_equal(op.peaks(zs), alone.peaks(zs))


def test_stein_doubling_skips_only_identity_steps():
    # the engine's doubling steps only at the bits that some step count of
    # the stack sets; the reference steps at every bit of the largest, by
    # I where a count's bit is zero.  They must agree bit for bit, on
    # stacks that skip no bit, some bits or most of them (512 and 3584 set
    # only bits 9 to 11), and both must equal the direct sum over the
    # steps, sum_{k<n} (G^k)^T Q G^k, within 1e-12 of its largest entry.
    # The maps are a clock phase's augmented step maps at dt = 0.95 T / n
    sys, _, _ = _clock_phase()
    t_pc = tune_inductor(CircuitConfig()).pc.t_pc
    ns = np.array([1, 2, 3, 512, 3584, 4096])
    g = np.stack([PhaseOperator(sys, 0.95 * t_pc / n, n, step_maps(sys.a, sys.b, 0.95 * t_pc / n),
                                np.array([1e-4, 0.3, 0.3, 0.8]), (1, -1), math.inf)._g
                  for n in ns.tolist()])
    rng = np.random.default_rng(19)
    q = rng.normal(size=g.shape)
    forms = q + np.swapaxes(q, 1, 2)
    direct = []
    for gi, qi, n in zip(g, forms, ns.tolist()):
        w, p = np.zeros_like(qi), np.eye(len(qi))
        for _ in range(n):
            w += p.T @ qi @ p
            p = p @ gi
        direct.append(w)
    for pick in ([0, 1, 2, 3, 4, 5], [3, 4], [4, 5], [0, 1, 2], *[[i] for i in range(ns.size)]):
        got = engine._stein_sums(g[pick], forms[pick], ns[pick])
        np.testing.assert_array_equal(got, stein_sums(g[pick], forms[pick], ns[pick]))
        for w, i in zip(got, pick):
            assert np.abs(w - direct[i]).max() <= 1e-12 * np.abs(direct[i]).max(), ns[i]


def test_compile_splits_a_large_stack_without_changing_it(monkeypatch):
    # nine operators of one dimension, step count and peak rows, over a
    # budget of four operators' deviation entries: their powers compiled
    # in one stack and their chord tables in stacks of 4, 4 and 1, each
    # must keep the tables, guard, deviation bounds and peaks that a lone
    # compile gives it
    sys, n, dt = _clock_phase()
    rng = np.random.default_rng(11)
    args = [(sys, dt, n, step_maps(sys.a, sys.b, dt),
             np.array([1e-4, 0.3, 0.3, 0.8]) + rng.normal(scale=0.05, size=4), (1, -1), 2.0)
            for _ in range(9)]
    per_op = engine._BLOCK * 2 * (n // engine._BLOCK + 1) * (sys.dim + 1)
    monkeypatch.setattr(engine, "_STACK_ENTRIES", 4 * per_op + per_op // 2)
    stacks = []   # per stack: its function and operators

    def counted(name):
        compile_stack = getattr(engine, name)
        return lambda group: (stacks.append((name, len(group))), compile_stack(group))

    for name in ("_compile_powers", "_compile_chords"):
        monkeypatch.setattr(engine, name, counted(name))
    ops = [PhaseOperator(*a) for a in args]
    compile_operators(ops)
    compile_chords(ops)
    assert stacks == [("_compile_powers", 9), ("_compile_chords", 4), ("_compile_chords", 4),
                      ("_compile_chords", 1)]
    zs = np.column_stack([rng.normal(scale=0.1, size=(5, sys.dim)), np.ones(5)])
    for a, op in zip(args, ops):
        alone = PhaseOperator(*a)
        compile_operators([alone])
        compile_chords([alone])
        for name in ("table", "peak_table", "blocks", "_guard", "deviation", "coarse"):
            np.testing.assert_array_equal(getattr(op, name), getattr(alone, name), err_msg=name)
        np.testing.assert_array_equal(op.peaks(zs), alone.peaks(zs))


def test_a_healthy_runs_compile_warns(monkeypatch):
    # pass 1 runs with overflow warnings off; a run whose starts are all
    # inside the limit compiles with them on, so a stray overflow there
    # still surfaces
    compile_powers = engine._compile_powers

    def overflowing(group):
        np.float64(1e308) * 10.0
        compile_powers(group)

    monkeypatch.setattr(engine, "_compile_powers", overflowing)
    with pytest.warns(RuntimeWarning, match="overflow"):
        run_neuron(tune_inductor(CircuitConfig()), [(1, 0, 1, 0)] * 3)


@pytest.mark.parametrize("count", [1, 33, 114])
@pytest.mark.parametrize("stack", [1, 3])
def test_stacked_powers_equal_each_matrix_powers(stack, count):
    # _powers of a (P, D, D) stack is the stack of each matrix's powers,
    # bit for bit, starting from the identity of the matrices' size
    rng = np.random.default_rng(count)
    base = np.eye(5) + rng.normal(scale=0.2, size=(stack, 5, 5))
    stacked = engine._powers(base, count)
    assert stacked.shape == (stack, count, 5, 5)
    np.testing.assert_array_equal(stacked[:, 0], np.broadcast_to(np.eye(5), (stack, 5, 5)))
    for p in range(stack):
        alone = engine._powers(base[p], count)
        np.testing.assert_array_equal(stacked[p], alone)
        want = np.linalg.matrix_power(base[p], count - 1)
        np.testing.assert_allclose(alone[-1], want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", [1, engine._BLOCK - 1, engine._BLOCK, engine._BLOCK + 1,
                               56 * engine._BLOCK - 1, 56 * engine._BLOCK])
def test_phase_end_map_matches_propagation(n):
    # pass 1 carries [x; 1] through each phase's end map, the n-th power of
    # its unshifted augmented step map: from every start, the end state
    # must be the per-step propagation's within 1e-13 of each state's own
    # scale over the phase (I_L keeps its own), at step counts below, at
    # and past one block, and up to a cycle's main phase (56 B at B = 64)
    sys, _, dt = _clock_phase()
    maps, ends = engine._build_maps([(sys, dt, n), (sys, dt, n)])
    assert list(ends) == [(sys, dt, n)]
    np.testing.assert_array_equal(maps[sys, dt][0], step_maps(sys.a, sys.b, dt)[0])
    rng = np.random.default_rng(n)
    x_ref = np.array([1e-4, 0.3, 0.3, 0.8])
    for x0 in [x_ref, *(x_ref + rng.normal(scale=[2e-4, 0.5, 0.5, 0.2], size=(4, 4)))]:
        want = propagate(*step_maps(sys.a, sys.b, dt), x0, n)
        got = ends[sys, dt, n] @ np.append(x0, 1.0)
        assert got[-1] == 1.0
        assert np.all(np.abs(got[:-1] - want[-1]) <= 1e-13 * np.abs(want).max(0))


def test_phase_operator_guard_visits_states_only_past_its_bound():
    sys, n, dt = _clock_phase()
    x0 = np.array([1e-4, 0.3, 0.3, 0.8])
    z = np.append(x0, 1.0) - np.append(x0, 0.0)
    maps = step_maps(sys.a, sys.b, dt)
    peak = np.abs(propagate(*maps, x0, n)).max()
    ops = [PhaseOperator(sys, dt, n, maps, x0, (1,), scale * peak) for scale in (10.0, 1.001, 0.9)]
    compile_operators(ops)
    # far below the limit the bound passes the start without a visit
    assert ops[0].guard(z[None]).tolist() == [True]
    # a limit just above the peak trips the bound of every start in the
    # stack, and the start passes on the exact states
    op = ops[1]
    assert op.guard(np.stack([z, z])).tolist() == [False, False]
    op.check(z, 3)
    op = ops[2]
    assert op.guard(z[None]).tolist() == [False]
    with pytest.raises(SimulationError, match=rf"cycle 3: \|x\| reached {peak:.3g}, limit"):
        op.check(z, 3)
