"""Benchmark harness: window statistics, frequency search, parametric studies."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acansim import (
    CircuitConfig,
    CodeStream,
    Corner,
    SweepSpec,
    active_count,
    compare_designs,
    corner_study,
    optimize_frequency,
    predicted_optimal_frequency,
    run_neuron,
    scaled_tree,
    scaling_study,
    sweep_freq_duty,
    sweep_width_duty,
    tune_inductor,
    worst_window_mean,
)
from acansim import bench, cli

_FAST = SweepSpec(cycles=48, skip=8, window=20)


def _artifacts(monkeypatch, tmp_path, study, result, argv):
    # the CLI's files and summary.json for ``argv``, its study ``bench.<study>``
    # returning ``result``: the artifacts of a result the test has at hand
    monkeypatch.setattr(bench, study, lambda *args, **kwargs: result)
    out = tmp_path / "out"
    assert cli.dispatch(argv + ["--out", str(out)]) == 0
    return out, json.loads((out / "summary.json").read_text())


def _brute_worst_window(series, skip, window):
    best = -math.inf
    for i in range(skip, len(series) - window + 1):
        best = max(best, sum(series[i:i + window]) / window)
    return best


def test_worst_window_mean_planted_block():
    series = [1.0] * 4 + [5.0] * 4 + [1.0] * 2
    assert worst_window_mean(series, 2, 4) == pytest.approx(5.0)
    assert worst_window_mean([3.0] * 10, 0, 5) == pytest.approx(3.0)


def test_worst_window_mean_window_of_one_is_max():
    series = [0.3, 0.9, 0.1, 0.7]
    assert worst_window_mean(series, 0, 1) == pytest.approx(0.9)
    assert worst_window_mean(series, 2, 1) == pytest.approx(0.7)


def test_worst_window_mean_validation():
    with pytest.raises(ValueError):
        worst_window_mean([1.0, 2.0], 2, 1)
    with pytest.raises(ValueError):
        worst_window_mean([1.0, 2.0], 0, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_worst_window_mean_matches_enumeration(series, skip, window):
    if skip + window > len(series):
        return
    assert worst_window_mean(series, skip, window) == pytest.approx(
        _brute_worst_window(series, skip, window), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_worst_window_mean_is_the_loop_bit_for_bit(seed):
    # the vectorised sums add in the loop's order, so the result is its
    # bits; a NaN entry drops the windows that hold it, as the loop does
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 120))
        skip = int(rng.integers(0, n))
        window = int(rng.integers(1, n - skip + 1))
        series = rng.lognormal(-27.0, 1.0, n) * rng.choice([1.0, -1.0], n)
        series[rng.random(n) < 0.02] = math.nan
        series = series.tolist()
        assert worst_window_mean(series, skip, window) == _brute_worst_window(series, skip, window)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(cycles=10, skip=8, window=4)
    with pytest.raises(ValueError):
        SweepSpec(cycles=0)
    with pytest.raises(ValueError):
        SweepSpec(repeats=0)
    with pytest.raises(ValueError):
        SweepSpec(load_case="all-2")


def test_optimize_frequency_unloaded_sits_at_nominal():
    opt = optimize_frequency(CircuitConfig(), 0.0, spec=_FAST)
    assert opt.frequency == pytest.approx(1e6, rel=1e-2)
    assert opt.energy > 0.0


def test_optimize_frequency_loading_drags_the_optimum_down():
    o0 = optimize_frequency(CircuitConfig(), 0.0, spec=_FAST)
    o1 = optimize_frequency(CircuitConfig(), 1.0, spec=_FAST)
    gap = 1.0 - o1.frequency / o0.frequency
    assert 0.02 < gap < 0.06
    assert o1.energy > o0.energy


def test_optimize_frequency_returns_floats_off_the_golden_section_path():
    # a short stream at full loading is not unimodal on the coarse grid,
    # so the search returns a coarse grid point
    opt = optimize_frequency(CircuitConfig(), 1.0, spec=_FAST)
    assert opt.unimodal is False
    assert type(opt.frequency) is float
    assert type(opt.energy) is float


@pytest.mark.parametrize("shift, duty, trials", [(1.03, 0.05, 26), (1.38, 0.35, 24)])
def test_optimize_frequency_refines_a_unimodal_landscape(monkeypatch, shift, duty, trials):
    # no real landscape is unimodal on the coarse grid, so plant one: each
    # trial's tree energy is a parabola in its frequency about shift x the
    # predicted optimum; at a duty of 35% the top two grid points and the
    # upper golden-section trials leave (0, 0.5) and never run
    cfg = CircuitConfig()
    cfg = replace(cfg, pc=replace(cfg.pc, duty_d=duty))
    f0 = shift * predicted_optimal_frequency(tune_inductor(cfg), 0.0)
    ran = []

    def planted(cfg, codes):
        ran.append(cfg.pc.f_nominal)
        assert 0.0 < cfg.pc.duty_d < 0.5
        s_e = np.full(len(codes.index), 1e-13 * (1 + (cfg.pc.f_nominal / f0 - 1) ** 2))
        return SimpleNamespace(ledger=SimpleNamespace(s_e=s_e))

    monkeypatch.setattr(bench, "run_neuron", planted)
    opt = optimize_frequency(cfg, 0.0, spec=_FAST)
    assert opt.unimodal is True
    assert opt.frequency == pytest.approx(f0, rel=1e-3)
    assert opt.energy == pytest.approx(min(1e-13 * (1 + (f / f0 - 1) ** 2) for f in ran),
                                       rel=1e-12)
    assert len(ran) == trials


def test_scaled_tree_shapes():
    cfg = scaled_tree(CircuitConfig(), 16, c_e=100e-12)
    assert cfg.tree.n == 16
    assert cfg.tree.c_s == (1e-12,) * 16
    assert cfg.tree.c_d == pytest.approx(16e-12)
    assert cfg.pc.c_e == pytest.approx(100e-12)
    # without an override the tank capacitor is kept
    assert scaled_tree(CircuitConfig(), 8).pc.c_e == pytest.approx(25e-12)
    with pytest.raises(ValueError):
        scaled_tree(CircuitConfig(), 0)


def test_sweep_freq_duty_minimum_at_resonance():
    surface = sweep_freq_duty(
        CircuitConfig(), [0.96e6, 1.0e6, 1.04e6], [0.02, 0.05], spec=_FAST)
    assert surface.energy.shape == (3, 2)
    assert np.all(surface.energy > 0.0)
    f_min, _, _ = surface.argmin
    assert f_min == pytest.approx(1e6)


def test_sweep_freq_duty_loaded_case_shifts_minimum():
    surface = sweep_freq_duty(
        CircuitConfig(), [0.92e6, 0.962e6, 1.0e6], [0.05],
        spec=replace(_FAST, load_case="all-1"))
    f_min, _, _ = surface.argmin
    assert f_min == pytest.approx(0.962e6)


def test_sweep_freq_duty_takes_the_load_case_from_the_spec():
    def energy(load_case):
        spec = replace(_FAST, load_case=load_case)
        return float(sweep_freq_duty(CircuitConfig(), [1e6], [0.05], spec=spec).energy[0, 0])
    # a loaded tree draws far more than an idle one at the same point
    assert energy("all-1") > 10.0 * energy("all-0")


_SHORT = SweepSpec(cycles=32, skip=8, window=16, repeats=2)


def test_process_pool_matches_serial():
    # sweep_width_duty, the one driver that takes jobs, gives the serial
    # result exactly
    args = (CircuitConfig(), [30e-6, 60e-6], [0.05])
    serial = sweep_width_duty(*args, spec=_SHORT, jobs=1)
    pooled = sweep_width_duty(*args, spec=_SHORT, jobs=2)
    assert (pooled.x, pooled.y) == (serial.x, serial.y)
    assert pooled.energy.tolist() == serial.energy.tolist()


def test_a_pooled_study_pickles_its_stream_once_per_worker(monkeypatch):
    # the pool sends each worker one chunk of points, so each of the five
    # order streams is pickled once per chunk (10), not once per point (20)
    pickles = []
    getstate = CodeStream.__getstate__
    monkeypatch.setattr(CodeStream, "__getstate__", lambda self: pickles.append(1) or getstate(self))
    surface = sweep_width_duty(CircuitConfig(), [30e-6, 60e-6], [0.02, 0.05], spec=_SHORT, jobs=2)
    assert surface.energy.shape == (2, 2)
    assert len(pickles) == 10


def test_a_scaling_row_is_its_frequency_search():
    cfg = CircuitConfig()
    table = scaling_study(cfg, 16, [25e-12, 1e-9], [0.0, 1.0], spec=_FAST)
    assert [(r.c_e, r.alpha) for r in table.rows] == [
        (25e-12, 0.0), (25e-12, 1.0), (1e-9, 0.0), (1e-9, 1.0)]
    for row in table.rows:
        opt = optimize_frequency(scaled_tree(cfg, 16, row.c_e), row.alpha, spec=_FAST)
        assert (row.f_opt, row.s_e, row.unimodal) == tuple(opt)


def test_sweep_width_duty_surface(tmp_path):
    # through the CLI, which gives the surface's artifacts
    doc = {"bench": {"cycles": 48, "skip": 8, "window": 20, "repeats": 2,
                     "w_grid": ["30um", "60um"], "d_grid": [0.05]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.dispatch(["sweep-width", "--config", str(path), "--out", str(out)]) == 0
    d = json.loads((out / "summary.json").read_text())
    energy = np.array(d["energy_J"])
    assert energy.shape == (2, 1)
    assert np.all(np.isfinite(energy))
    assert np.all(energy > 0.0)
    lines = (out / "surface_width_duty.csv").read_text().splitlines()
    assert lines[0] == "W_um,duty,energy_J"
    assert len(lines) == 3
    # widths are reported in microns
    assert lines[1].startswith("30")
    assert min(abs(d["argmin"]["W_um"] - w) for w in (30.0, 60.0)) < 1e-9
    # the summary lists the widths as the CSV's first column does
    assert d["x"] == [float(line.split(",")[0]) for line in lines[1:]]


def test_surface_grid_shape_is_checked():
    from acansim.bench import Surface
    with pytest.raises(ValueError):
        Surface((1e6,), (0.05,), np.zeros((2, 2)))


def test_scaling_study_small_tree(monkeypatch, tmp_path):
    table = scaling_study(CircuitConfig(), 16, [25e-12], [0.0, 1.0], spec=_FAST)
    assert table.n == 16
    assert len(table.rows) == 2
    r0, r1 = table.rows
    assert r0.alpha == 0.0 and r1.alpha == 1.0
    assert r1.f_opt < r0.f_opt
    assert r1.s_e > r0.s_e
    assert r0.n_e == pytest.approx(4.49e-12)
    out, summary = _artifacts(monkeypatch, tmp_path, "scaling_study", table,
                              ["sweep-scaling", "--n", "16"])
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "C_E_pF,alpha,f_opt_Hz,S_E_pJ,N_E_pJ"
    assert len(lines) == 3
    for line in lines[1:]:
        for text in line.split(","):
            float(text)   # every cell is a plain number, f_opt_Hz included
    # the summary's rows are the CSV's, each with its unimodal flag
    header = lines[0].split(",")
    assert [{k: r[k] for k in header} for r in summary["rows"]] == [
        dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert [r["unimodal"] for r in summary["rows"]] == [r.unimodal for r in table.rows]


def test_scaling_study_validates_grids():
    with pytest.raises(ValueError):
        scaling_study(CircuitConfig(), 16, [], [0.0])
    with pytest.raises(ValueError):
        scaling_study(CircuitConfig(), 16, [25e-12], [])


def test_corner_study_slow_corner_costs_most(monkeypatch, tmp_path):
    spec = SweepSpec(cycles=32, skip=8, window=16, repeats=2)
    table = corner_study(CircuitConfig(), corners=[Corner.FF, Corner.TT, Corner.SS],
                         temps=(25.0,), spec=spec)
    by_corner = {r.corner: r for r in table.rows}
    assert by_corner["FF"].e_tree < by_corner["TT"].e_tree < by_corner["SS"].e_tree
    assert all(r.outputs_ok for r in table.rows)
    outputs = {r.outputs for r in table.rows}
    assert len(outputs) == 1
    spread = table.spread_by_temperature()[25.0]
    assert 0.0 < spread < 0.4
    out, summary = _artifacts(monkeypatch, tmp_path, "corner_study", table, ["corners"])
    lines = (out / "corners.csv").read_text().splitlines()
    assert lines[0] == "corner,temp_C,E_tree_J,E_soma_J,outputs_ok"
    assert [line.split(",")[0] for line in lines[1:]] == ["FF", "TT", "SS"]
    assert summary["spread_by_temperature"] == {"25.0": spread}
    assert summary["functionality_consistent"] is True


def test_constant_streams_are_one_boolean_array():
    # a constant stream is one (cycles, n) boolean array whose rows are
    # the code of the first active_count synapses, and a run reads it to
    # the bits of the same stream as a list of 0/1 tuples
    cfg = scaled_tree(CircuitConfig(), 8)
    for alpha in (0.0, 0.3, 1.0):
        codes = bench._const_codes(cfg.tree, alpha, 24)
        n_on = active_count(cfg.tree, alpha)
        assert codes.dtype == bool and codes.shape == (24, 8)
        as_tuples = [tuple(1 if i < n_on else 0 for i in range(8))] * 24
        assert codes.astype(int).tolist() == [list(c) for c in as_tuples]
        got, want = run_neuron(cfg, codes), run_neuron(cfg, as_tuples)
        assert got.table == want.table
        np.testing.assert_array_equal(got.index, want.index)
        for name in ("s_e", "soma"):
            np.testing.assert_array_equal(getattr(got.ledger, name), getattr(want.ledger, name))
        np.testing.assert_array_equal(np.column_stack(got.stats), np.column_stack(want.stats))
        assert got.output_bits == want.output_bits


@pytest.mark.parametrize("grid", [1, 2])
def test_a_study_reads_each_stream_once(monkeypatch, grid):
    # every point of a study runs its stream, read once per study (or per
    # order), whatever the grid: one code table, which makes one np.unique
    # call, and one pass-1 order each; and the study works out its tree's
    # weight classes once
    from acansim import engine, neuron

    calls, uniques = [], []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(1) or unique(*a, **k))

    def code_table(*a, f=neuron._code_table):
        before = len(uniques)
        table = f(*a)
        calls.append(f"_code_table: {len(uniques) - before} np.unique")
        return table

    monkeypatch.setattr(neuron, "_code_table", code_table)
    monkeypatch.setattr(engine, "_periods", lambda *a, f=engine._periods:
                        calls.append("_periods") or f(*a))

    def reads(study, *args, **kwargs):
        calls.clear()
        neuron._weight_classes.cache_clear()
        study(CircuitConfig(), *args, **kwargs)
        return sorted(calls), neuron._weight_classes.cache_info().misses

    once = (["_code_table: 1 np.unique", "_periods"], 1)
    spec = SweepSpec(cycles=32, skip=8, window=16, repeats=2)
    assert reads(optimize_frequency, 1.0, spec=_FAST) == once
    assert reads(sweep_freq_duty, [0.96e6, 1.0e6][:grid], [0.04, 0.05], spec=_FAST) == once
    assert reads(corner_study, corners=[Corner.TT, Corner.SS][:grid], temps=(25.0, 50.0),
                 spec=spec) == once
    assert reads(sweep_width_duty, [30e-6, 60e-6][:grid], [0.05], spec=spec) == (
        sorted(once[0] * 5), 1)
    # a run given raw codes reads them once, as ever
    assert reads(lambda cfg: run_neuron(cfg, [(1, 0, 0, 0)] * 3)) == once


def test_compare_designs_sweep_mode(monkeypatch, tmp_path):
    report = compare_designs(CircuitConfig(), mode="sweep")
    assert report.mode == "sweep"
    # the adiabatic side runs at the stream's lock point, a few percent
    # below nominal, with the top-up window width held
    assert 0.95e6 < report.f_hz < 0.99e6
    assert report.duty == pytest.approx(0.05 * report.f_hz / 1e6, rel=1e-9)
    assert report.savings > 0.8
    assert 1.3e-12 < report.baseline["tree"] < 5.3e-12
    assert report.adiabatic["tree"] < 0.2 * report.baseline["tree"]
    out, d = _artifacts(monkeypatch, tmp_path, "compare_designs", report, ["compare"])
    savings = json.loads((out / "savings.json").read_text())
    assert {k: d[k] for k in savings} == savings   # summary.json repeats it
    assert set(d["adiabatic_J"]) == {"tree", "clock_generator", "gates",
                                     "reset", "drive", "soma"}


def test_compare_designs_loading_mode(monkeypatch, tmp_path):
    report = compare_designs(scaled_tree(CircuitConfig(), 8), mode="loading",
                             spec=_FAST)
    assert report.mode == "loading"
    assert len(report.loading) == 2
    assert report.loading[0]["alpha"] == 0.0
    assert report.loading[1]["alpha"] == 1.0
    # the adiabatic side runs at its optimum with the top-up window width held
    assert report.duty == pytest.approx(CircuitConfig().pc.t_on * report.f_hz, rel=1e-9)
    assert report.adiabatic_ratio > 1.0
    # an idle level-driven tree books only round-off, which counts as
    # zero, so its ratio is not defined
    assert report.loading[0]["baseline_tree_J"] == 0.0
    # and the artifacts write it as null
    assert math.isinf(report.baseline_ratio)
    out, d = _artifacts(monkeypatch, tmp_path, "compare_designs", report,
                        ["compare", "--mode", "loading"])
    assert d["baseline_ratio"] is None
    assert json.loads((out / "savings.json").read_text())["baseline_ratio"] is None
    with pytest.raises(ValueError):
        compare_designs(CircuitConfig(), mode="other")
