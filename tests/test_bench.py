"""Benchmark harness: window statistics, frequency search, parametric studies."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acansim import (
    CircuitConfig,
    Corner,
    SweepSpec,
    compare_designs,
    corner_study,
    optimize_frequency,
    scaled_tree,
    scaling_study,
    sweep_freq_duty,
    sweep_width_duty,
    worst_window_mean,
)

_FAST = SweepSpec(cycles=48, skip=8, window=20)


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


def test_sweep_freq_duty_process_pool_matches_serial():
    args = (CircuitConfig(), [0.96e6, 1.0e6], [0.05])
    serial = sweep_freq_duty(*args, spec=_FAST, jobs=1)
    pooled = sweep_freq_duty(*args, spec=_FAST, jobs=2)
    assert np.array_equal(pooled.energy, serial.energy)


def test_sweep_width_duty_surface(tmp_path):
    spec = SweepSpec(cycles=48, skip=8, window=20, repeats=2)
    surface = sweep_width_duty(CircuitConfig(), [30e-6, 60e-6], [0.05], spec=spec)
    assert surface.energy.shape == (2, 1)
    assert np.all(np.isfinite(surface.energy))
    assert np.all(surface.energy > 0.0)
    path = tmp_path / "width.csv"
    surface.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "W_um,duty,energy_J"
    assert len(lines) == 3
    # widths are reported in microns
    assert lines[1].startswith("30")
    d = surface.as_dict()
    assert min(abs(d["argmin"]["W_um"] - w) for w in (30.0, 60.0)) < 1e-9


def test_surface_grid_shape_is_checked():
    from acansim.bench import Surface
    with pytest.raises(ValueError):
        Surface("f_Hz", "duty", (1e6,), (0.05,), np.zeros((2, 2)))


def test_scaling_study_small_tree(tmp_path):
    table = scaling_study(CircuitConfig(), 16, [25e-12], [0.0, 1.0], spec=_FAST)
    assert table.n == 16
    assert len(table.rows) == 2
    r0, r1 = table.rows
    assert r0.alpha == 0.0 and r1.alpha == 1.0
    assert r1.f_opt < r0.f_opt
    assert r1.s_e > r0.s_e
    assert r0.n_e == pytest.approx(4.49e-12)
    path = tmp_path / "scaling.csv"
    table.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "C_E_pF,alpha,f_opt_Hz,S_E_pJ,N_E_pJ"
    assert len(lines) == 3
    for line in lines[1:]:
        for text in line.split(","):
            float(text)   # every cell is a plain number, f_opt_Hz included


def test_scaling_study_validates_grids():
    with pytest.raises(ValueError):
        scaling_study(CircuitConfig(), 16, [], [0.0])
    with pytest.raises(ValueError):
        scaling_study(CircuitConfig(), 16, [25e-12], [])


def test_corner_study_slow_corner_costs_most(tmp_path):
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
    path = tmp_path / "corners.csv"
    table.to_csv(str(path))
    assert path.read_text().splitlines()[0] == "corner,temp_C,E_tree_J,E_soma_J,outputs_ok"


def test_compare_designs_sweep_mode():
    report = compare_designs(CircuitConfig(), mode="sweep")
    assert report.mode == "sweep"
    # the adiabatic side runs at the stream's lock point, a few percent
    # below nominal, with the top-up window width held
    assert 0.95e6 < report.f_hz < 0.99e6
    assert report.duty == pytest.approx(0.05 * report.f_hz / 1e6, rel=1e-9)
    assert report.savings > 0.8
    assert 1.3e-12 < report.baseline["tree"] < 5.3e-12
    assert report.adiabatic["tree"] < 0.2 * report.baseline["tree"]
    d = report.as_dict()
    assert set(d["adiabatic_J"]) == {"tree", "clock_generator", "gates",
                                     "reset", "drive", "soma"}


def test_compare_designs_loading_mode():
    report = compare_designs(scaled_tree(CircuitConfig(), 8), mode="loading",
                             spec=_FAST)
    assert report.mode == "loading"
    assert len(report.loading) == 2
    assert report.loading[0]["alpha"] == 0.0
    assert report.loading[1]["alpha"] == 1.0
    assert report.adiabatic_ratio > 1.0
    # an idle level-driven tree books only round-off, which counts as
    # zero, so its ratio is not defined
    assert report.loading[0]["baseline_tree_J"] == 0.0
    assert report.as_dict()["baseline_ratio"] is None
    with pytest.raises(ValueError):
        compare_designs(CircuitConfig(), mode="other")
