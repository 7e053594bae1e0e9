"""Parametric studies over the neuron simulator.

Energy surfaces over frequency/duty and width/duty grids, optimal
operating-frequency search, synapse-count scaling tables, process-corner
trends, and savings reports against the level-driven design.  Every
study is deterministic for a fixed seed.  A study declares its points,
(config, code stream) pairs, and what it keeps of each run; ``_runs``
runs them in order.  Only ``sweep_width_duty`` takes ``jobs`` and may
run them in a process pool, one chunk per worker: on the other default
grids the pool's start-up and hand-off cost more than it saves.  A
scaling row is one ``optimize_frequency``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .baseline import BaselineConfig, run_baseline
from .engine import SimulationError, write_csv
from .model import (
    CircuitConfig,
    Corner,
    Environment,
    SynapseTreeConfig,
    active_count,
    check_ranges,
    keyed,
    predicted_optimal_frequency,
    sweep_lock_frequency,
    tune_inductor,
    within,
)
from .neuron import Code, CodeStream, NeuronRun, input_sweeps, run_neuron

_LOAD_CASES = ("all-0", "all-1", "sweep")
_T = TypeVar("_T")

# Drive frequency of the width/duty and corner studies, as a fraction of
# the unloaded resonance: slightly below it, where a code stream locks.
_F_BELOW_RESONANCE = 0.977


@dataclass(frozen=True)
class SweepSpec:
    """Protocol knobs shared by the parametric studies."""

    cycles: int = within("[1, inf)", 600, "cycles")     # simulated cycles per grid point
    skip: int = within("[0, inf)", 200, "skip")         # startup cycles dropped before windowing
    window: int = within("[1, inf)", 20, "window")      # sliding-window length, cycles
    repeats: int = within("[1, inf)", 8, "repeats")     # sweep repetitions per input order
    seed: int = within("[0, inf)", 0, "seed")           # scramble seed for input orders
    load_case: str = keyed("load_case", "all-0")

    def __post_init__(self) -> None:
        check_ranges(self, "bench")
        if self.skip + self.window > self.cycles:
            raise ValueError(
                f"bench: skip + window must be <= cycles, got {self.skip}+{self.window} > {self.cycles}")
        if self.load_case not in _LOAD_CASES:
            raise ValueError(f"bench.load_case: must be one of {_LOAD_CASES}, got {self.load_case!r}")


def worst_window_mean(series: Sequence[float], skip: int, window: int) -> float:
    """Maximum sliding-window mean after dropping the first `skip` entries;
    all windows at once, each summed left to right from 0 as ``sum`` does."""
    vals = np.asarray(series, dtype=float)
    if skip < 0 or window < 1:
        raise ValueError("worst_window_mean: need skip >= 0 and window >= 1")
    if vals.size < skip + window:
        raise ValueError(
            f"worst_window_mean: series of {vals.size} too short for skip={skip}, window={window}")
    tail = vals[skip:]
    acc = 0.0 + tail[:tail.size - window + 1]
    for j in range(1, window):
        acc = acc + tail[j:j + acc.size]
    return float(np.fmax.reduce(acc / window, initial=-math.inf))   # NaN windows lose, as in max()


def _const_codes(tree: SynapseTreeConfig, alpha: float, cycles: int) -> np.ndarray:
    """``cycles`` rows of one code, the first synapses enabled at loading
    alpha: one boolean (cycles, n) array, which ``run_neuron`` reads whole."""
    on = np.arange(tree.n) < active_count(tree, alpha)
    return np.broadcast_to(on, (cycles, tree.n))


def _fill_codes(orders: list[list[Code]], cycles: int) -> list[Code]:
    flat = [c for order in orders for c in order]
    reps = -(-cycles // len(flat))
    return (flat * reps)[:cycles]


def _load_codes(cfg: CircuitConfig, spec: SweepSpec) -> list[Code] | np.ndarray:
    if spec.load_case == "all-0":
        return _const_codes(cfg.tree, 0.0, spec.cycles)
    if spec.load_case == "all-1":
        return _const_codes(cfg.tree, 1.0, spec.cycles)
    return _fill_codes(input_sweeps(cfg.tree.n, seed=spec.seed), spec.cycles)


def _runs(points: Sequence[tuple[CircuitConfig, CodeStream]], reduce: Callable[[NeuronRun], _T],
          jobs: int = 1) -> list[_T]:
    """``reduce`` of the run of each (config, stream) point, in order.  Up
    to ``jobs`` workers take one contiguous chunk of points each, which
    pickles a stream once per chunk, so ``reduce`` must pickle."""
    run = partial(_run, reduce)
    if jobs <= 1 or len(points) <= 1:
        return [run(pt) for pt in points]
    # imported here: ``import acansim`` then loads no multiprocessing module
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(points))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, points, chunksize=-(-len(points) // workers)))


def _run(reduce: Callable[[NeuronRun], _T], point: tuple[CircuitConfig, CodeStream]) -> _T:
    # through this module, so a patched ``bench.run_neuron`` sees every run
    return reduce(run_neuron(*point))


def _worst_window(run: NeuronRun, skip: int, window: int) -> float:
    return worst_window_mean(run.ledger.s_e, skip, window)


def _last_pass_mean(run: NeuronRun, repeats: int) -> float:
    return float(run.ledger.s_e.reshape(repeats, -1).mean(axis=1)[-1])


def _last_block(run: NeuronRun, block: int) -> tuple[float, float, str, bool]:
    # score the last order block only: the first repeats carry the
    # lock-in transient, which is not part of the per-corner comparison
    bits = run.output_bits[-block:]
    return (float(run.ledger.s_e[-block:].mean()), float(run.ledger.soma[-block:].mean()),
            bits, bits == run.oracle_string[-block:])


@dataclass
class Surface:
    """Energy per grid point over two swept parameters."""

    x_name: str                 # "f_Hz" or "W_um"
    y_name: str                 # "duty"
    x: tuple[float, ...]
    y: tuple[float, ...]
    energy: np.ndarray          # shape (len(x), len(y)), joules

    def __post_init__(self) -> None:
        if self.energy.shape != (len(self.x), len(self.y)):
            raise ValueError(
                f"surface: energy shape {self.energy.shape} does not match grid "
                f"({len(self.x)}, {len(self.y)})")

    @property
    def argmin(self) -> tuple[float, float, float]:
        """(x, y, energy) of the grid minimum."""
        ix, iy = np.unravel_index(int(np.argmin(self.energy)), self.energy.shape)
        return self.x[ix], self.y[iy], float(self.energy[ix, iy])

    def _x_csv(self, v: _T) -> _T:
        # x as the CSV and the summary give it: widths in micrometres
        return v / 1e-6 if self.x_name == "W_um" else v

    def to_csv(self, path: str) -> None:
        write_csv(path, {self.x_name: np.repeat(self._x_csv(np.asarray(self.x)), len(self.y)),
                         self.y_name: np.tile(self.y, len(self.x)), "energy_J": self.energy.ravel()})

    def as_dict(self) -> dict:
        ax, ay, ae = self.argmin
        return {
            "x_name": self.x_name,
            "y_name": self.y_name,
            "x": [float(self._x_csv(v)) for v in self.x],
            "y": [float(v) for v in self.y],
            "energy_J": [[float(v) for v in row] for row in self.energy],
            "argmin": {self.x_name: self._x_csv(ax), self.y_name: ay, "energy_J": ae},
        }


def sweep_freq_duty(
    cfg: CircuitConfig,
    f_grid: Sequence[float],
    d_grid: Sequence[float],
    spec: SweepSpec | None = None,
) -> Surface:
    """Worst-window tree energy over (drive frequency, duty), under the
    load case ``spec.load_case``.

    The inductor is tuned once so the unloaded resonance sits at the
    config's nominal frequency; the grid then sweeps the drive frequency
    across that fixed resonator.  Every point runs one ``CodeStream``.
    """
    if not f_grid or not d_grid:
        raise ValueError("sweep_freq_duty: grids must be non-empty")
    spec = spec or SweepSpec()
    base = tune_inductor(cfg)
    codes = CodeStream(_load_codes(base, spec), base.tree.n)
    points = [(replace(base, pc=replace(base.pc, f_nominal=float(f), duty_d=float(d))), codes)
              for f in f_grid for d in d_grid]
    vals = _runs(points, partial(_worst_window, skip=spec.skip, window=spec.window))
    energy = np.array(vals).reshape(len(f_grid), len(d_grid))
    return Surface("f_Hz", "duty", tuple(float(v) for v in f_grid),
                   tuple(float(v) for v in d_grid), energy)


def sweep_width_duty(
    cfg: CircuitConfig,
    w_grid: Sequence[float],
    d_grid: Sequence[float],
    spec: SweepSpec | None = None,
    jobs: int = 1,
) -> Surface:
    """Worst sweep-average tree energy over (bypass width, duty).

    Runs the five input orders (one ascending, four scrambled) for
    `spec.repeats` passes each at a drive frequency slightly below the
    unloaded resonance, and keeps the worst converged sweep average.
    Every grid cell runs each order's ``CodeStream`` as its own point.
    """
    if not w_grid or not d_grid:
        raise ValueError("sweep_width_duty: grids must be non-empty")
    spec = spec or SweepSpec()
    base = tune_inductor(cfg)
    base = replace(base, pc=replace(base.pc, f_nominal=base.pc.f_nominal * _F_BELOW_RESONANCE))
    streams = [CodeStream(list(order) * spec.repeats, base.tree.n)
               for order in input_sweeps(base.tree.n, seed=spec.seed)]
    points = [(replace(base, pc=replace(base.pc, w_n=float(w), duty_d=float(d))), stream)
              for w in w_grid for d in d_grid for stream in streams]
    means = _runs(points, partial(_last_pass_mean, repeats=spec.repeats), jobs)
    k = len(streams)
    energy = np.array([max(-math.inf, *means[i:i + k]) for i in range(0, len(means), k)])
    energy = energy.reshape(len(w_grid), len(d_grid))
    return Surface("W_um", "duty", tuple(float(v) for v in w_grid),
                   tuple(float(v) for v in d_grid), energy)


class FrequencyOpt(NamedTuple):
    """Result of the operating-frequency search."""

    frequency: float
    energy: float
    unimodal: bool


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_frequency(
    cfg: CircuitConfig,
    alpha: float,
    spec: SweepSpec | None = None,
) -> FrequencyOpt:
    """Minimum of worst-window tree energy over drive frequency at fixed
    loading, with the inductor tuned to put the all-off resonance at the
    config's nominal frequency.

    Evaluates a 13-point coarse grid spanning +/-60% of the predicted
    optimum, then refines by golden section to 1e-3 relative width.
    A landscape that is not unimodal on the coarse grid short-circuits to
    the grid minimum with the flag cleared.  On every landscape tried so
    far the coarse grid is not unimodal (the grid's 10% step sees the
    resonance dip only at its centre), so the result is the grid point at
    the predicted optimum.

    The top-up window keeps the absolute width it has in the base config:
    trial points rescale the duty fraction so t_ON stays put while the
    period stretches.  Searching with a fixed fraction instead would widen
    the window at low frequencies and overdrive the tank, burying the
    loading effect under top-up loss.  Every trial runs one ``CodeStream``.
    """
    spec = spec or SweepSpec()
    cfg = tune_inductor(cfg)
    codes = CodeStream(_const_codes(cfg.tree, alpha, spec.cycles), cfg.tree.n)

    def energy(f: float) -> float:
        # infinite where the duty leaves (0, 0.5) or the run trips the
        # guard (a hopeless operating frequency)
        duty = cfg.pc.t_on * float(f)
        if not 0.0 < duty < 0.5:
            return math.inf
        try:
            run = run_neuron(replace(cfg, pc=replace(cfg.pc, f_nominal=float(f), duty_d=duty)), codes)
        except SimulationError:
            return math.inf
        return _worst_window(run, spec.skip, spec.window)

    grid = [predicted_optimal_frequency(cfg, alpha) * s for s in np.linspace(0.4, 1.6, 13)]
    e_grid = [energy(f) for f in grid]
    finite = [e for e in e_grid if math.isfinite(e)]
    if not finite:
        raise SimulationError("optimize_frequency: every coarse grid point diverged")
    sentinel = 10.0 * max(finite)
    e_grid = [e if math.isfinite(e) else sentinel for e in e_grid]
    k = int(np.argmin(e_grid))

    # unimodality on the coarse grid: energy must fall, then rise
    diffs = np.diff(e_grid)
    deadband = 1e-9 * max(abs(v) for v in e_grid)
    signs = [0 if abs(d) <= deadband else (1 if d > 0 else -1) for d in diffs]
    signs = [s for s in signs if s != 0]
    descents = sum(1 for a, b in zip(signs, signs[1:]) if a > 0 and b < 0)
    if descents > 0 or k in (0, len(grid) - 1):
        return FrequencyOpt(float(grid[k]), float(e_grid[k]), False)

    a, b = grid[k - 1], grid[k + 1]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    e_c, e_d = energy(c), energy(d)
    best_f, best_e = (grid[k], e_grid[k])
    while (b - a) > 1e-3 * 0.5 * (a + b):
        if e_c < e_d:
            b, d, e_d = d, c, e_c
            c = b - _INVPHI * (b - a)
            e_c = energy(c)
        else:
            a, c, e_c = c, d, e_d
            d = a + _INVPHI * (b - a)
            e_d = energy(d)
        for f, e in ((c, e_c), (d, e_d)):
            if e < best_e:
                best_f, best_e = f, e
    return FrequencyOpt(float(best_f), float(best_e), True)


def scaled_tree(cfg: CircuitConfig, n: int, c_e: float | None = None) -> CircuitConfig:
    """Config with `n` equal synapses (weight taken from the first one),
    the damping capacitor scaled to n times the synapse weight, and an
    optional equalising-capacitance override."""
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n}")
    c0 = cfg.tree.c_s[0]
    tree = replace(cfg.tree, c_s=(c0,) * n, c_d=n * c0)
    pc = cfg.pc if c_e is None else replace(cfg.pc, c_e=float(c_e))
    return replace(cfg, tree=tree, pc=pc)


@dataclass
class ScalingRow:
    c_e: float
    alpha: float
    f_opt: float
    s_e: float
    n_e: float
    unimodal: bool = True


@dataclass
class ScalingTable:
    """Optimal frequency and per-cycle energies across (C_E, loading)."""

    n: int
    rows: list[ScalingRow] = field(default_factory=list)

    def validate(self) -> None:
        """Loaded trees resonate lower: f_opt must not rise with alpha."""
        by_ce: dict[float, list[ScalingRow]] = {}
        for r in self.rows:
            by_ce.setdefault(r.c_e, []).append(r)
        for c_e, group in by_ce.items():
            group = sorted(group, key=lambda r: r.alpha)
            for lo, hi in zip(group, group[1:]):
                if hi.f_opt > lo.f_opt * (1.0 + 2e-3):
                    raise ValueError(
                        f"scaling table: f_opt rises with alpha at C_E={c_e}: "
                        f"{lo.f_opt} -> {hi.f_opt}")

    def to_csv(self, path: str) -> None:
        rows = self.as_dict()["rows"]   # in the summary's units; unimodal stays out
        write_csv(path, {k: [r[k] for r in rows]
                         for k in ("C_E_pF", "alpha", "f_opt_Hz", "S_E_pJ", "N_E_pJ")})

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rows": [{
                "C_E_pF": r.c_e * 1e12, "alpha": r.alpha, "f_opt_Hz": r.f_opt,
                "S_E_pJ": r.s_e * 1e12, "N_E_pJ": r.n_e * 1e12, "unimodal": r.unimodal,
            } for r in self.rows],
        }


def scaling_study(
    cfg: CircuitConfig,
    n: int,
    c_e_list: Sequence[float],
    alpha_list: Sequence[float],
    spec: SweepSpec | None = None,
) -> ScalingTable:
    """Optimal frequency and energies for an n-synapse tree across C_E and
    loading: one ``optimize_frequency`` per row, in row order."""
    if not c_e_list or not alpha_list:
        raise ValueError("scaling_study: grids must be non-empty")
    cells = [(float(c_e), float(alpha)) for c_e in c_e_list for alpha in alpha_list]
    opts = [optimize_frequency(scaled_tree(cfg, n, c_e), alpha, spec) for c_e, alpha in cells]
    table = ScalingTable(n=n, rows=[
        ScalingRow(c_e, alpha, opt.frequency, opt.energy, cfg.dlcc.e_decision, opt.unimodal)
        for (c_e, alpha), opt in zip(cells, opts)])
    table.validate()
    return table


@dataclass
class CornerRow:
    corner: str
    temperature_c: float
    e_tree: float
    e_soma: float
    outputs: str
    outputs_ok: bool


@dataclass
class CornerTable:
    """Tree and soma energies over the full corner/temperature grid."""

    rows: list[CornerRow] = field(default_factory=list)

    def spread_by_temperature(self) -> dict[float, float]:
        """(max - min)/mean of tree energy across corners, per temperature."""
        by_t: dict[float, list[float]] = {}
        for r in self.rows:
            by_t.setdefault(r.temperature_c, []).append(r.e_tree)
        return {t: (max(v) - min(v)) / float(np.mean(v)) for t, v in sorted(by_t.items())}

    def to_csv(self, path: str) -> None:
        write_csv(path, {"corner": [r.corner for r in self.rows],
                         "temp_C": [r.temperature_c for r in self.rows],
                         "E_tree_J": [r.e_tree for r in self.rows],
                         "E_soma_J": [r.e_soma for r in self.rows],
                         "outputs_ok": [int(r.outputs_ok) for r in self.rows]})

    def as_dict(self) -> dict:
        return {"rows": [{
            "corner": r.corner, "temp_C": r.temperature_c, "E_tree_J": r.e_tree,
            "E_soma_J": r.e_soma, "outputs": r.outputs, "outputs_ok": r.outputs_ok,
        } for r in self.rows]}


def corner_study(
    cfg: CircuitConfig,
    corners: Sequence[Corner] | None = None,
    temps: Sequence[float] = (0.0, 25.0, 50.0, 75.0, 100.0),
    spec: SweepSpec | None = None,
) -> CornerTable:
    """Energy and functionality across process corners and temperatures,
    driven slightly below the unloaded resonance; every grid point runs
    one ``CodeStream``."""
    corners = list(corners) if corners is not None else list(Corner)
    if not corners or not temps:
        raise ValueError("corner_study: grids must be non-empty")
    spec = spec or SweepSpec()
    base = tune_inductor(cfg)
    f_op = base.pc.f_nominal * _F_BELOW_RESONANCE
    base = replace(base, pc=replace(
        base.pc, f_nominal=f_op, duty_d=base.pc.t_on * f_op))
    orders = input_sweeps(base.tree.n, seed=spec.seed)
    codes = CodeStream(list(orders[0]) * spec.repeats, base.tree.n)
    grid = [(c, float(t)) for c in corners for t in temps]
    points = [(replace(base, env=Environment(corner=c, temperature_c=t)), codes) for c, t in grid]
    vals = _runs(points, partial(_last_block, block=len(orders[0])))
    return CornerTable(rows=[CornerRow(c.value, t, *v) for (c, t), v in zip(grid, vals)])


@dataclass
class SavingsReport:
    """Adiabatic versus level-driven energy at a matched operating point."""

    mode: str                       # "sweep" or "loading"
    f_hz: float
    duty: float
    adiabatic: dict[str, float]    # per-cycle means, joules
    baseline: dict[str, float]
    savings: float                  # 1 - adiabatic tree / baseline tree
    loading: list[dict] | None = None
    adiabatic_ratio: float | None = None
    baseline_ratio: float | None = None

    def as_dict(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v
        d = {
            "mode": self.mode, "f_Hz": self.f_hz, "duty": self.duty,
            "adiabatic_J": {k: clean(v) for k, v in self.adiabatic.items()},
            "baseline_J": {k: clean(v) for k, v in self.baseline.items()},
            "savings": clean(self.savings),
        }
        if self.loading is not None:
            d["loading"] = [{k: clean(v) for k, v in row.items()} for row in self.loading]
            d["adiabatic_ratio"] = clean(self.adiabatic_ratio)
            d["baseline_ratio"] = clean(self.baseline_ratio)
        return d


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num > 0 else math.nan
    return num / den


def compare_designs(
    cfg: CircuitConfig,
    mode: str = "sweep",
    spec: SweepSpec | None = None,
) -> SavingsReport:
    """Energy comparison of the two designs on matched trees.

    sweep mode: both designs run the identical five input orders and the
    report carries per-component per-cycle means.  The adiabatic side is
    retuned and driven at the stream's lock frequency with the top-up
    window width held; the level-driven side has no resonator and keeps
    the nominal clock.  loading mode: each loading level runs at its own
    optimal frequency on the adiabatic side and as an alternating
    present/clear pulse train on the level-driven side, for large trees
    where a full code sweep is meaningless.  An idle level-driven tree
    books only round-off, which counts as zero: its ratio is then
    infinite and ``as_dict`` reports it as null.
    """
    spec = spec or SweepSpec()
    if mode == "sweep":
        orders = input_sweeps(cfg.tree.n, seed=spec.seed)
        stream = CodeStream([c for order in orders for c in order], cfg.tree.n)
        tuned = tune_inductor(cfg)
        f_op = sweep_lock_frequency(tuned, stream)
        run_cfg = replace(tuned, pc=replace(
            tuned.pc, f_nominal=f_op, duty_d=tuned.pc.t_on * f_op))
        run_a = run_neuron(run_cfg, stream)
        run_b = run_baseline(BaselineConfig.from_circuit(cfg), stream)
        la, lb = run_a.ledger, run_b.ledger
        adia = {
            "tree": float(la.s_e.mean()),
            "clock_generator": float(la.r_pc.mean()),
            "gates": float(la.r_tg.mean()),
            "reset": float(la.r_reset.mean()),
            "drive": float(la.drive.mean()),
            "soma": float(la.soma.mean()),
        }
        base = {
            "tree": float(lb.s_e.mean()),
            "drive_resistor": float(lb.r_tg.mean()),
            "reset": float(lb.r_reset.mean()),
            "drive": float(lb.drive.mean()),
            "soma": float(lb.soma.mean()),
        }
        return SavingsReport(
            mode="sweep", f_hz=run_cfg.pc.f_nominal, duty=run_cfg.pc.duty_d,
            adiabatic=adia, baseline=base,
            savings=1.0 - _ratio(adia["tree"], base["tree"]),
        )
    if mode != "loading":
        raise ValueError(f"mode: must be 'sweep' or 'loading', got {mode!r}")

    rows = []
    for alpha in (0.0, 1.0):
        opt = optimize_frequency(cfg, alpha, spec=spec)
        code = tuple(_const_codes(cfg.tree, alpha, 1)[0].astype(int).tolist())
        zero = (0,) * cfg.tree.n
        b_cfg = BaselineConfig.from_circuit(cfg)
        run_b = run_baseline(b_cfg, [code, zero] * max(spec.repeats, 2))
        base_j = float(run_b.ledger.s_e.mean())
        # an idle level-driven tree books only round-off of the membrane's
        # V_REF fixed point: at or below 1e-11 of the stored energy it is zero
        if abs(base_j) <= 1e-11 * run_b.ledger.e_stored_last:
            base_j = 0.0
        rows.append({
            "alpha": alpha,
            "f_opt_Hz": opt.frequency,
            "adiabatic_tree_J": opt.energy,
            "baseline_tree_J": base_j,
        })
    lo, hi = rows[0], rows[-1]
    adia = {"tree": hi["adiabatic_tree_J"]}
    base = {"tree": hi["baseline_tree_J"]}
    return SavingsReport(
        mode="loading", f_hz=hi["f_opt_Hz"], duty=cfg.pc.t_on * hi["f_opt_Hz"],
        adiabatic=adia, baseline=base,
        savings=1.0 - _ratio(adia["tree"], base["tree"]),
        loading=rows,
        adiabatic_ratio=_ratio(hi["adiabatic_tree_J"], lo["adiabatic_tree_J"]),
        baseline_ratio=_ratio(hi["baseline_tree_J"], lo["baseline_tree_J"]),
    )
