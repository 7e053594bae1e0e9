"""Switched linear transient engine with exact energy accounting.

Within one switch phase the circuit is linear time invariant, so a cycle
is integrated as a handful of constant (A, b) systems advanced with the
implicit trapezoidal rule.  The step map is affine; whole segments are
propagated with a doubling scheme (log2(n) small matrix products instead
of n Python-level steps), which keeps multi-thousand-cycle protocol runs
cheap without changing the arithmetic of the method.

A phase system carries its elements as data (storage, loss and source
terms), so one function books every design's ledger: source power and
every resistor's loss by trapezoidal quadrature on the step grid.  The
stored-energy jumps caused by switch reconfiguration (node capacitances
change when gates open or close) are booked as well, and the
conservation residual is exposed as an audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import (
    CircuitConfig,
    bypass_resistance,
    lc_series_resistance,
    reset_resistance,
    tg_resistance,
)


class SimulationError(RuntimeError):
    """Raised when the transient leaves its validity envelope."""


class FitError(RuntimeError):
    """Raised when a trace segment cannot be fit as a damped oscillation."""


@dataclass(frozen=True)
class SwitchState:
    """Positions of every switch during one phase."""

    bypass_on: bool
    reset_on: bool
    synapse_on: tuple[bool, ...]


# One cycle of schedule: (start_frac, end_frac, SwitchState) segments that
# partition [0, 1) in cycle-relative time.
Segment = tuple[float, float, SwitchState]
CyclePlan = Sequence[Segment]


@dataclass(frozen=True)
class BranchGroup:
    """Branches sharing one weight value, lumped into a single series RC
    leg onto the membrane."""

    r: float         # lumped resistance, per-branch resistance / count
    c: float         # lumped capacitance, count * per-branch capacitance


class Store(NamedTuple):
    """Storage element holding 1/2 k (x_i - x_j)^2; j None is ground."""

    k: float
    i: int
    j: int | None = None


class Loss(NamedTuple):
    """Dissipative element g (x_i - x_j + u)^2, billed to ledger ``account``."""

    account: str
    g: float
    i: int
    j: int | None = None
    u: float = 0.0


class Source(NamedTuple):
    """Source delivering power p (x_i + u), billed to ledger ``account``."""

    account: str
    p: float
    i: int
    u: float = 0.0


@dataclass
class PhaseSystem:
    """Constant-coefficient system dx/dt = A x + b for one switch phase,
    with its elements as data: the storage terms give the stored energy of
    a state, the loss and source terms give a segment's energy accounts
    (``book_segment``).  ``groups`` are the lumped branch legs, in the order
    of their top-plate states.
    """

    a: np.ndarray
    b: np.ndarray
    groups: tuple[BranchGroup, ...]
    stores: tuple[Store, ...]
    losses: tuple[Loss, ...]
    sources: tuple[Source, ...]
    _maps: dict[float, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def maps(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Step maps of this system for step size dt, built once per dt."""
        m = self._maps.get(dt)
        if m is None:
            m = self._maps[dt] = step_maps(self.a, self.b, dt)
        return m

    def stored_energy(self, x: np.ndarray) -> float:
        v = x.tolist()
        e = 0.0
        for k, i, j in self.stores:
            d = v[i] if j is None else v[i] - v[j]
            e += 0.5 * k * d ** 2
        return e


def reset_terms(g_reset: float, v_ref: float, i: int) -> tuple[Loss, Source]:
    """Reset switch tying state i to V_REF: its conduction loss and the
    power the V_REF source delivers through it."""
    return (Loss("r_reset", g_reset, i, u=-v_ref),
            Source("source_ref", -g_reset * v_ref, i, -v_ref))


def build_phase_system(cfg: CircuitConfig, sw: SwitchState) -> PhaseSystem:
    """Assemble (A, b) and the elements for one switch phase.

    State layout: [I_L, V_PC, V_s per group..., V_m]; with no enabled
    synapse this is the reduced 3-state system [I_L, V_PC, V_m].

    Topology: the DC source feeds the inductor into the clock node, which
    carries the tank capacitor and the plate/shunt parasitics of every
    disabled gate; the bypass switch adds a conductance to ground when on;
    enabled synapses form parallel RC legs to the membrane (equal weights
    lump into one leg of r_tg/n and n*c_s); the membrane carries the
    divider capacitor, wiring parasitics and the enabled gates' output
    parasitics; the reset switch ties the membrane to V_REF when on.
    """
    tree, pc, env = cfg.tree, cfg.pc, cfg.env
    if len(sw.synapse_on) != tree.n:
        raise ValueError(f"switch state has {len(sw.synapse_on)} synapse bits, tree has {tree.n}")

    active = [i for i, on in enumerate(sw.synapse_on) if on]
    n_on = len(active)
    n_off = tree.n - n_on

    r_tg = tg_resistance(tree, env)
    groups = []
    for c_val in sorted({tree.c_s[i] for i in active}):
        count = sum(1 for i in active if tree.c_s[i] == c_val)
        groups.append(BranchGroup(r=r_tg / count, c=count * c_val))
    groups = tuple(groups)

    c_pc = pc.c_e + n_off * (tree.c_pl_off + tree.c_sh) + n_on * tree.c_pl_on
    c_m = tree.c_d + tree.c_par + n_on * tree.c_pr
    g_pc = 1.0 / bypass_resistance(pc.w_n, env) if sw.bypass_on else 0.0
    g_reset = 1.0 / reset_resistance(tree, env) if sw.reset_on else 0.0
    r_lc = lc_series_resistance(cfg)

    n_g = len(groups)
    dim = 3 + n_g
    a = np.zeros((dim, dim))
    b = np.zeros(dim)
    im = dim - 1

    # inductor branch: L dI/dt = V_dc - V_PC - I R_lc (series coil loss)
    a[0, 0] = -r_lc / pc.l_pc
    a[0, 1] = -1.0 / pc.l_pc
    b[0] = pc.v_dc / pc.l_pc

    # clock node: C_pc dV/dt = I_L - sum_g (V_PC - V_sg)/r_g - g_pc V_PC
    a[1, 0] = 1.0 / c_pc
    a[1, 1] = -g_pc / c_pc
    for j, g in enumerate(groups):
        a[1, 1] -= (1.0 / g.r) / c_pc
        a[1, 2 + j] = (1.0 / g.r) / c_pc

    # membrane: C_m dV/dt = sum_g (V_PC - V_sg)/r_g - g_reset (V_m - V_REF)
    a[im, im] = -g_reset / c_m
    b[im] = g_reset * tree.v_ref / c_m
    for j, g in enumerate(groups):
        a[im, 1] += (1.0 / g.r) / c_m
        a[im, 2 + j] -= (1.0 / g.r) / c_m

    # group top plates: series-leg current balance gives
    # dV_sg/dt = dV_m/dt + (V_PC - V_sg)/(r_g c_g)
    for j, g in enumerate(groups):
        a[2 + j, :] = a[im, :]
        b[2 + j] = b[im]
        a[2 + j, 1] += 1.0 / (g.r * g.c)
        a[2 + j, 2 + j] -= 1.0 / (g.r * g.c)

    stores = (Store(pc.l_pc, 0), Store(c_pc, 1), Store(c_m, im),
              *(Store(g.c, 2 + j, im) for j, g in enumerate(groups)))
    losses = [Loss("r_tg", 1.0 / g.r, 1, 2 + j) for j, g in enumerate(groups)]
    sources = [Source("source_dc", pc.v_dc, 0)]
    if r_lc > 0.0:
        losses.append(Loss("r_lc", r_lc, 0))   # series coil: R_lc I_L^2
    if g_pc > 0.0:
        losses.append(Loss("r_pc", g_pc, 1))
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=groups, stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


def step_maps(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (E, f) of one implicit trapezoidal step of size dt:
    (I - dt/2 A) x' = (I + dt/2 A) x + dt b."""
    eye = np.eye(a.shape[0])
    lhs = eye - 0.5 * dt * a
    e = np.linalg.solve(lhs, eye + 0.5 * dt * a)
    f = np.linalg.solve(lhs, dt * b)
    return e, f


def propagate(e: np.ndarray, f: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """All n+1 states of the affine recurrence x_{k+1} = E x_k + f.

    Uses map doubling: the s-step map is squared repeatedly and applied to
    the already-known prefix, so the whole segment costs O(log n) small
    matrix products.
    """
    dim = x0.size
    xs = np.empty((n + 1, dim))
    xs[0] = x0
    s = 1
    e_s = e
    f_s = f
    while s < n + 1:
        take = min(s, n + 1 - s)
        xs[s:s + take] = xs[:take] @ e_s.T + f_s
        s += take
        if s < n + 1:
            f_s = e_s @ f_s + f_s
            e_s = e_s @ e_s
    return xs


def _trapz(y: np.ndarray, dt: float) -> float:
    """Trapezoidal quadrature on a uniformly spaced sample column."""
    if y.size < 2:
        return 0.0
    return float(dt * (0.5 * (y[0] + y[-1]) + y[1:-1].sum()))


# In-cycle instant, as a fraction of the cycle, at which both designs
# sample the membrane for the decision: mid-cycle, at the clock crest.
SAMPLE_FRAC = 0.5


@dataclass
class CycleStats:
    """Per-cycle observables; the energies of a cycle are in the ledger."""

    v_pk: float          # clock-node peak
    v_m_peak: float      # membrane peak
    v_m_sample: float    # membrane at the decision sampling instant


_ACCOUNTS = ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
             "drive", "reconfig", "soma")


@dataclass
class EnergyLedger:
    """Per-cycle energy accounts of one run, all in joules."""

    source_dc: np.ndarray
    source_ref: np.ndarray
    r_pc: np.ndarray       # bypass switch dissipation (top-up loss)
    r_lc: np.ndarray       # resonator coil loss
    r_tg: np.ndarray       # synapse branch resistors (gates or drivers)
    r_reset: np.ndarray
    drive: np.ndarray      # gate-driver charging overhead
    reconfig: np.ndarray   # stored-energy step from switch reconfiguration
    soma: np.ndarray
    e_stored_first: float
    e_stored_last: float

    @classmethod
    def zeros(cls, n_cycles: int) -> "EnergyLedger":
        return cls(**{name: np.zeros(n_cycles) for name in _ACCOUNTS},
                   e_stored_first=math.nan, e_stored_last=math.nan)

    def since(self, k: int) -> "EnergyLedger":
        """View of the accounts from cycle k on; stored-energy ends kept."""
        return replace(self, **{name: getattr(self, name)[k:] for name in _ACCOUNTS})

    @property
    def n_cycles(self) -> int:
        return self.source_dc.size

    @property
    def s_e(self) -> np.ndarray:
        """Synaptic-subsystem energy per cycle, clock generator included."""
        return self.r_pc + self.r_lc + self.r_tg + self.r_reset + self.drive

    @property
    def dissipated_total(self) -> float:
        return float(self.r_pc.sum() + self.r_lc.sum() + self.r_tg.sum() + self.r_reset.sum())

    @property
    def source_total(self) -> float:
        return float(self.source_dc.sum() + self.source_ref.sum())


def book_segment(ledger: EnergyLedger, k: int, system: PhaseSystem,
                 xs: np.ndarray, dt: float) -> None:
    """Add one propagated segment's source and loss integrals to cycle k:
    a trapezoid sum over the segment's states per element."""
    for account, p, i, u in system.sources:
        y = xs[:, i] + u if u else xs[:, i]
        getattr(ledger, account)[k] += p * _trapz(y, dt)
    for account, g, i, j, u in system.losses:
        d = xs[:, i] if j is None else xs[:, i] - xs[:, j]
        if u:
            d = d + u
        getattr(ledger, account)[k] += g * _trapz(d ** 2, dt)


def book_reconfig(ledger: EnergyLedger, k: int, prev_sys: PhaseSystem | None,
                  x: np.ndarray, system: PhaseSystem, x0: np.ndarray) -> None:
    """Book the stored-energy step of switching from state x of prev_sys
    to the re-assembled state x0 of system in cycle k.  The first phase of
    a run (prev_sys None) sets the stored energy the run starts from."""
    e_after = system.stored_energy(x0)
    if prev_sys is None:
        ledger.e_stored_first = e_after
    else:
        ledger.reconfig[k] += e_after - prev_sys.stored_energy(x)


def energy_residual(ledger: EnergyLedger) -> float:
    """Conservation audit: source energy minus dissipation minus the change
    in stored energy, with switch-reconfiguration jumps booked back in.
    Zero for exact accounting; quadrature error otherwise."""
    delta_stored = ledger.e_stored_last - ledger.e_stored_first
    return ledger.source_total - ledger.dissipated_total - delta_stored + float(ledger.reconfig.sum())


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV data file: the header, then one line per row.  Float
    cells, numpy scalars included, are written as ``repr(float(v))`` so
    they read back exactly; any other cell as ``str(v)``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


@dataclass
class Trace:
    """Sampled run history plus per-cycle stats.

    Sample times are strictly increasing but not necessarily uniform: the
    integrator spends a denser sub-grid on the short bypass window.  V_s is
    the capacitance-weighted aggregate of the enabled top plates, held at
    its last value while every gate is open.
    """

    t: np.ndarray
    i_l: np.ndarray
    v_pc: np.ndarray
    v_s: np.ndarray
    v_m: np.ndarray
    cycles: list[CycleStats] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        write_csv(path, ("t", "I_L", "V_PC", "V_s", "V_m"),
                  zip(self.t, self.i_l, self.v_pc, self.v_s, self.v_m))


def _allocate_steps(plan: CyclePlan, spc: int) -> list[int]:
    """Distribute the cycle's step budget over its segments.

    Proportional allocation by duration with largest-remainder rounding,
    then segments with the bypass switch closed are boosted to at least
    spc // 8 steps so the fast clamp transient stays well resolved.  The
    budget total is preserved by taking steps back from the largest
    non-boosted segment.
    """
    fracs = [end - start for start, end, _ in plan]
    raw = [f * spc for f in fracs]
    counts = [int(math.floor(r)) for r in raw]
    short = spc - sum(counts)
    order = sorted(range(len(plan)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:short]:
        counts[i] += 1

    floor_boost = max(8, spc // 8)
    boosted = [i for i, (_, _, sw) in enumerate(plan) if sw.bypass_on]
    for i in boosted:
        if counts[i] < floor_boost:
            need = floor_boost - counts[i]
            donor = max(
                (j for j in range(len(plan)) if j not in boosted),
                key=lambda j: counts[j],
                default=None,
            )
            if donor is None or counts[donor] - need < 8:
                raise ValueError("cycle plan leaves no room for the bypass sub-grid")
            counts[donor] -= need
            counts[i] = floor_boost
    for i, c in enumerate(counts):
        if c < 2:
            raise ValueError(f"segment {i} of cycle plan resolves to {c} steps")
    return counts


def _validate_plan(plan: CyclePlan) -> None:
    pos = 0.0
    for start, end, _ in plan:
        if not math.isclose(start, pos, abs_tol=1e-12):
            raise ValueError(f"cycle plan has a gap or overlap at fraction {start}")
        if end <= start:
            raise ValueError("cycle plan segment has non-positive duration")
        pos = end
    if not math.isclose(pos, 1.0, abs_tol=1e-12):
        raise ValueError(f"cycle plan covers [0, {pos}), expected [0, 1)")


class Phase(NamedTuple):
    """One uniform sub-grid of a cycle: ``n_steps`` steps of ``system``
    over [start, end) in cycle fractions."""

    start: float
    end: float
    n_steps: int
    system: PhaseSystem


def run_cycle(ledger: EnergyLedger, k: int, phases: Sequence[Phase], x0: np.ndarray,
              t_cycle: float, v_limit: float) -> tuple[list[np.ndarray], float, float]:
    """Integrate cycle k of both designs over its phases from state x0 and
    book every phase into the ledger.

    Every state must stay below v_limit in magnitude, a numerical-blowup
    guard.  Returns the phase trajectories, the membrane (last state) peak
    and the membrane at the decision instant ``SAMPLE_FRAC`` (nearest step).
    """
    trajectories = []
    v_m_peak = -math.inf
    v_m_sample = math.nan
    x = x0
    for start, end, n_steps, system in phases:
        dt = (end - start) * t_cycle / n_steps
        xs = propagate(*system.maps(dt), x, n_steps)
        peak = float(np.abs(xs).max())
        if not peak < v_limit:   # NaN trips it too
            raise SimulationError(
                f"state diverged in cycle {k}: |x| reached {peak:.3g}, limit {v_limit:.3g}")
        book_segment(ledger, k, system, xs, dt)
        v_m = xs[:, -1]
        v_m_peak = max(v_m_peak, float(v_m.max()))
        if start <= SAMPLE_FRAC < end:
            idx = min(max(int(round((SAMPLE_FRAC - start) * t_cycle / dt)), 0), n_steps)
            v_m_sample = float(v_m[idx])
        trajectories.append(xs)
        x = xs[-1]
    return trajectories, v_m_peak, v_m_sample


def _plan_phases(cfg: CircuitConfig, plan: CyclePlan,
                 systems: dict[SwitchState, PhaseSystem]) -> list[Phase]:
    """Phases of one cycle plan; phase systems are shared through
    ``systems`` across the plans of a run."""
    _validate_plan(plan)
    if len({sw.synapse_on for _, _, sw in plan}) > 1:
        raise ValueError("cycle plan switches gates mid-cycle; gates change only at a cycle start")
    phases = []
    for (start, end, sw), n_steps in zip(plan, _allocate_steps(plan, cfg.sim.steps_per_cycle)):
        if sw not in systems:
            systems[sw] = build_phase_system(cfg, sw)
        phases.append(Phase(start, end, n_steps, systems[sw]))
    return phases


def simulate(
    cfg: CircuitConfig,
    cycles: Sequence[CyclePlan],
    keep_samples: bool = True,
) -> tuple[Trace, EnergyLedger]:
    """Run the switched linear transient over the given cycle plans.

    Initial conditions: V_PC = 0, I_L = 0, V_s = 0, V_m = V_REF.  Segment
    boundaries are honored exactly (each segment is integrated with its own
    uniform sub-grid, so no switching time is displaced).  The gates of a
    plan hold for its whole cycle.  The states carry a numerical-blowup
    guard far above any legitimate swing.

    Returns the sampled trace (with per-cycle stats attached) and the
    energy ledger.  The membrane is sampled for the decision stage at
    ``SAMPLE_FRAC`` of each cycle.
    """
    n_cycles = len(cycles)
    if n_cycles == 0:
        raise ValueError("simulate: need at least one cycle plan")
    stride = cfg.sim.trace_stride
    t_pc = cfg.pc.t_pc
    v_dd = cfg.dlcc.v_dd
    # numerical-blowup guard only: legitimate off-resonance beats can ride
    # well past the supply before the bypass clamp reins them in
    v_limit = 50.0 * v_dd
    e_toggle = 0.5 * cfg.tree.c_inv * v_dd ** 2

    systems: dict[SwitchState, PhaseSystem] = {}
    plan_phases: dict[tuple[Segment, ...], list[Phase]] = {}

    # persistent state between cycles: [I_L, V_PC, V_s per group..., V_m]
    x = np.array([0.0, 0.0, cfg.tree.v_ref])
    prev_on = (False,) * cfg.tree.n
    prev_sys: PhaseSystem | None = None
    v_s_hold = 0.0   # last known top-plate aggregate, for the trace

    ledger = EnergyLedger.zeros(n_cycles)
    stats: list[CycleStats] = []

    samples_t: list[np.ndarray] = []
    samples_x: list[np.ndarray] = []   # columns i_l, v_pc, v_s_agg, v_m

    for k, plan in enumerate(cycles):
        plan = tuple(plan)
        phases = plan_phases.get(plan)
        if phases is None:
            phases = plan_phases[plan] = _plan_phases(cfg, plan, systems)
        sys = phases[0].system
        on = plan[0][2].synapse_on

        # reassemble the state vector; top plates of a freshly enabled
        # branch set join at the current clock voltage (they were parked
        # at the trough when last disconnected)
        x0 = x
        if on != prev_on:
            # gate-driver overhead: half a full charge per toggled control line
            ledger.drive[k] += sum(a != b for a, b in zip(prev_on, on)) * e_toggle
            x0 = np.array([x[0], x[1], *[x[1]] * len(sys.groups), x[-1]])
        book_reconfig(ledger, k, prev_sys, x, sys, x0)

        trajectories, v_m_peak, v_m_sample = run_cycle(ledger, k, phases, x0, t_pc, v_limit)
        v_pk = max(float(xs[:, 1].max()) for xs in trajectories)
        stats.append(CycleStats(v_pk=v_pk, v_m_peak=v_m_peak, v_m_sample=v_m_sample))

        if keep_samples:
            # a cycle has steps_per_cycle steps, which the stride divides:
            # its samples are its first step and every stride-th one after;
            # copies, so no view keeps the cycle's full step arrays alive
            rows = np.vstack([xs[:-1] for xs in trajectories])[::stride]
            if sys.groups:   # the gates hold all cycle
                w = np.array([g.c for g in sys.groups])
                agg = (rows[:, 2:-1] @ w) / w.sum()
                v_s_hold = float(agg[-1])
            else:
                agg = np.full(len(rows), v_s_hold)
            samples_t.append(np.concatenate([
                k * t_pc + start * t_pc + (end - start) * t_pc / n_steps * np.arange(n_steps)
                for start, end, n_steps, _ in phases])[::stride].copy())
            samples_x.append(np.column_stack([rows[:, 0], rows[:, 1], agg, rows[:, -1]]))

        x = trajectories[-1][-1]
        prev_on = on
        prev_sys = phases[-1].system

    ledger.e_stored_last = prev_sys.stored_energy(x)

    if keep_samples:
        t_all = np.concatenate(samples_t)
        x_all = np.vstack(samples_x)
    else:
        t_all = np.empty(0)
        x_all = np.empty((0, 4))

    trace = Trace(
        t=t_all,
        i_l=x_all[:, 0],
        v_pc=x_all[:, 1],
        v_s=x_all[:, 2],
        v_m=x_all[:, 3],
        cycles=stats,
    )
    return trace, ledger


@dataclass
class DecayFit:
    """Damped-oscillation fit v(t) = v_max exp(-lam t) cos(omega t + theta) + offset."""

    v_max: float
    omega: float
    theta: float
    lam: float
    offset: float
    residual_rms: float

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)


def fit_decay(t: np.ndarray, v: np.ndarray) -> DecayFit:
    """Least-squares fit of a damped cosine to a trace segment.

    Needs at least three visible oscillation periods; raises FitError for
    segments that do not look oscillatory.
    """
    from scipy.optimize import least_squares   # deferred: most of acansim's import time

    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size != v.size or t.size < 16:
        raise FitError("fit_decay: need matching arrays with at least 16 samples")

    t0 = t[0]
    tt = t - t0
    offset0 = float(v.mean())
    d = v - offset0

    sign = np.sign(d)
    sign[sign == 0] = 1
    crossings = np.where(np.diff(sign) != 0)[0]
    if crossings.size < 6:
        raise FitError("fit_decay: segment does not look oscillatory (fewer than 3 periods)")
    # average half-period from the zero crossings
    cross_t = tt[crossings]
    half = np.diff(cross_t).mean()
    omega0 = math.pi / half

    amp0 = float(np.abs(d).max())
    if amp0 <= 0.0:
        raise FitError("fit_decay: segment is constant")

    # crude decay estimate from early/late envelope
    third = t.size // 3
    a_early = float(np.abs(d[:third]).max())
    a_late = float(np.abs(d[-third:]).max())
    span = tt[-1] - tt[third]
    lam0 = max(0.0, math.log(max(a_early, 1e-300) / max(a_late, 1e-300)) / max(span, 1e-300))

    c0 = min(1.0, max(-1.0, d[0] / amp0))
    theta0 = math.acos(c0)
    if d.size > 1 and d[1] > d[0]:
        theta0 = -theta0

    def resid(p: np.ndarray) -> np.ndarray:
        a, w, th, lam, off = p
        return a * np.exp(-lam * tt) * np.cos(w * tt + th) + off - v

    sol = least_squares(
        resid,
        x0=np.array([amp0, omega0, theta0, lam0, offset0]),
        method="lm",
        max_nfev=20000,
    )
    a, w, th, lam, off = sol.x
    if a < 0:
        a, th = -a, th + math.pi
    if w < 0:
        w, th = -w, -th
    th = math.atan2(math.sin(th), math.cos(th))
    rms = float(np.sqrt(np.mean(sol.fun ** 2)))
    if rms > 0.05 * max(abs(a), 1e-300):
        raise FitError(f"fit_decay: poor fit, residual rms {rms:.3g} vs amplitude {a:.3g}")
    # report the decay referenced to the segment start
    return DecayFit(v_max=float(a), omega=float(w), theta=float(th), lam=float(lam),
                    offset=float(off), residual_rms=rms)
