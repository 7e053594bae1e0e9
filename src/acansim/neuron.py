"""Neuron-level orchestration: the adiabatic design's phase systems and
cycle schedules, the latched comparator behavioral model, the
threshold-unit reference oracle, and full runs.

The adiabatic design is a phase-system builder plus a cycle schedule on
the engine's kernel (``run_cycles``), as the level-driven baseline is:
its plans become phases and cycle kinds, the kernel runs them, and the
run's samples become a ``Trace``.

The comparator offset is interpolated from a measured 5x5 grid over the
two trim resistances; the decision delay comes from measured anchors plus
a logarithmic metastability term at small overdrive.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .engine import (
    CycleOrder,
    EnergyLedger,
    Loss,
    PeakSearch,
    Phase,
    PhaseSystem,
    Source,
    Store,
    first_seen,
    reset_terms,
    run_cycles,
)
from .model import (
    CircuitConfig,
    DlccConfig,
    NeuronSpec,
    bypass_resistance,
    lc_series_resistance,
    reset_resistance,
    tg_resistance,
)

Code = tuple[int, ...]
_T = TypeVar("_T")

# Measured comparator offset (V) over the trim-resistance grid.  Rows are
# the left resistance, columns the right one, both spanning 1k..10k Ohm in
# equal steps.  The corner (10k, 1k) produces no output crossover at all;
# it is filled with the nearest valid column value so interpolation stays
# monotone, and queries touching that cell are flagged as extrapolated.
_TRIM_GRID = np.array([1e3, 3.25e3, 5.5e3, 7.75e3, 10e3])
_NO_CROSSOVER = (4, 0)
_OFFSET_V = np.array([
    [0.20, 110.0, 178.4, 225.2, 261.2],
    [-154.6, 0.19, 90.2, 153.2, 196.4],
    [-343.6, -116.8, 0.18, 77.6, 131.6],
    [-674.8, -233.8, -91.6, 0.25, 66.8],
    [-674.8, -397.6, -190.6, -77.2, 0.3],
]) * 1e-3

# Measured decision delay (M_L, M_R, delay in s) at the reference
# overdrive; below it the delay grows by the metastability slope per
# natural-log unit of overdrive, which is clamped at the minimum.
_DELAY_ANCHORS = ((10e3, 10e3, 147e-9), (1e3, 10e3, 51e-9), (1e3, 1e3, 87e-9))
_METASTABILITY_SLOPE = 5e-9     # s per natural-log unit
_MIN_OVERDRIVE = 1e-3           # V, clamp on |V_m - threshold|
_REFERENCE_OVERDRIVE = 0.1      # V, overdrive at which the anchors hold


def base_delay(m_l: float, m_r: float) -> float:
    """Measured delay of the anchor nearest to a trim-resistance pair."""
    return min(_DELAY_ANCHORS, key=lambda a: (a[0] - m_l) ** 2 + (a[1] - m_r) ** 2)[2]


def dlcc_offset(m_l: float, m_r: float) -> float:
    """Comparator offset voltage for a trim-resistance pair.

    Bilinear interpolation on the measured grid; exact at the 24 valid
    grid points.  Queries outside the grid are clamped (with a warning),
    and queries inside the no-crossover corner cell are flagged as
    extrapolated.
    """
    lo, hi = _TRIM_GRID[0], _TRIM_GRID[-1]
    ml, mr = float(m_l), float(m_r)
    if not (lo <= ml <= hi) or not (lo <= mr <= hi):
        warnings.warn(
            f"trim resistances ({m_l:.3g}, {m_r:.3g}) outside the measured "
            f"[{lo:.0f}, {hi:.0f}] Ohm grid; clamping",
            stacklevel=2,
        )
        ml = min(max(ml, lo), hi)
        mr = min(max(mr, lo), hi)

    i = int(np.searchsorted(_TRIM_GRID, ml, side="right") - 1)
    j = int(np.searchsorted(_TRIM_GRID, mr, side="right") - 1)
    i = min(max(i, 0), _TRIM_GRID.size - 2)
    j = min(max(j, 0), _TRIM_GRID.size - 2)

    if (i + 1, j) == _NO_CROSSOVER and ml > _TRIM_GRID[i] and mr < _TRIM_GRID[j + 1]:
        warnings.warn(
            "query falls in the no-crossover corner cell of the offset grid; "
            "result extrapolated from the nearest valid values",
            stacklevel=2,
        )

    x = (ml - _TRIM_GRID[i]) / (_TRIM_GRID[i + 1] - _TRIM_GRID[i])
    y = (mr - _TRIM_GRID[j]) / (_TRIM_GRID[j + 1] - _TRIM_GRID[j])
    z00 = _OFFSET_V[i, j]
    z01 = _OFFSET_V[i, j + 1]
    z10 = _OFFSET_V[i + 1, j]
    z11 = _OFFSET_V[i + 1, j + 1]
    return float(
        z00 * (1 - x) * (1 - y)
        + z10 * x * (1 - y)
        + z01 * (1 - x) * y
        + z11 * x * y
    )


def _decide(v_m: np.ndarray, dlcc: DlccConfig, v_os: float) -> tuple[np.ndarray, np.ndarray]:
    """Clocked comparator decisions on membrane samples v_m: the outputs
    (1 fires iff a sample exceeds v_th - v_os, v_os the trim pair's offset
    from ``dlcc_offset``; a tie does not fire) and the delays in seconds:
    the trim pair's measured anchor plus a metastability term that grows
    as the overdrive shrinks below the anchor's reference overdrive."""
    threshold = dlcc.v_th - v_os
    overdrive = np.maximum(np.abs(v_m - threshold), _MIN_OVERDRIVE)
    delay = base_delay(dlcc.m_l, dlcc.m_r) + _METASTABILITY_SLOPE * np.maximum(
        0.0, np.log(_REFERENCE_OVERDRIVE / overdrive))
    return (v_m > threshold).astype(int), delay


@dataclass(frozen=True)
class SwitchState:
    """Positions of every switch during one phase; ``synapse_on`` holds one
    flag per synapse gate, truthy where it is on."""

    bypass_on: bool
    reset_on: bool
    synapse_on: tuple[bool, ...]


# One cycle of schedule: (start_frac, end_frac, SwitchState) segments that
# partition [0, 1) in cycle-relative time.
Segment = tuple[float, float, SwitchState]
CyclePlan = Sequence[Segment]


class CycleStats(NamedTuple):
    """Per-cycle observables, one entry per cycle; the energies are in the ledger."""

    v_pk: np.ndarray         # clock-node peak
    v_m_peak: np.ndarray     # membrane peak
    v_m_sample: np.ndarray   # membrane at the decision sampling instant


class RunStats:
    """Every cycle's ``CycleStats`` of a run, made at the first read of
    ``stats``: the decision samples, and the clock and membrane peaks from
    the kernel's pending peak search (``engine.PeakSearch``), which that
    read runs, once.  The membrane peak is the search's last peak row, the
    clock peak its first, or, for a design with no clock node (the
    baseline), its drive ``rail`` in every cycle."""

    def __init__(self, search: PeakSearch, samples: np.ndarray, rail: float | None = None) -> None:
        self.samples = samples
        self._search, self._rail = search, rail

    @cached_property
    def stats(self) -> CycleStats:
        peaks = self._search.peaks
        del self._search
        v_pk = peaks[:, 0] if self._rail is None else np.full(len(peaks), self._rail)
        return CycleStats(v_pk, peaks[:, -1], self.samples)


@dataclass
class Trace:
    """Sampled run history plus per-cycle observables.

    Sample times are strictly increasing but not necessarily uniform: the
    integrator spends a denser sub-grid on the short bypass window.  V_s is
    the capacitance-weighted aggregate of the enabled top plates, held at
    its last value while every gate is open, and 0 before any gate is on.
    ``stats`` reads the run's peaks (``RunStats``).
    """

    t: np.ndarray
    i_l: np.ndarray
    v_pc: np.ndarray
    v_s: np.ndarray
    v_m: np.ndarray
    observed: RunStats

    @property
    def stats(self) -> CycleStats:
        return self.observed.stats


def _schedule(cfg: CircuitConfig, on: Sequence, all_zero: bool, forced: bool) -> tuple[Segment, ...]:
    """Switch timing for one clock cycle whose gates hold ``on``, given
    whether they are all off and whether the cycle is a recalibration
    cycle.

    The bypass window opens at the cycle start (the clock trough); the
    input gates hold the code for the whole cycle.  Reset closes for the
    trough window on recalibration cycles and for the whole cycle when
    the code is all zero.  The membrane is sampled mid-cycle, at the
    clock crest.
    """
    duty = cfg.pc.duty_d
    # gates follow the input register for the whole cycle; toggles (and the
    # driver overhead) happen only when the code actually changes
    return (
        (0.0, duty, SwitchState(bypass_on=True, reset_on=all_zero or forced, synapse_on=on)),
        (duty, 1.0, SwitchState(bypass_on=False, reset_on=all_zero, synapse_on=on)),
    )


@lru_cache(maxsize=16)
def _weight_classes(c_s: tuple[float, ...]) -> tuple[tuple[float, ...], np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """A tree's synapses grouped by weight value, worked out once per weight
    tuple: the distinct values, ascending, the synapses grouped by value in
    that order, where each value's group starts and each value's synapse
    count.  The arrays are read-only: every run on the tree shares them."""
    values, cls = np.unique(np.asarray(c_s), return_inverse=True)
    order = np.argsort(cls, kind="stable")
    starts = np.flatnonzero(np.diff(cls[order], prepend=-1))
    totals = np.diff(starts, append=len(c_s))
    for a in (order, starts, totals):
        a.flags.writeable = False
    return tuple(values.tolist()), order, starts, totals


def _weight_counts(c_s: tuple[float, ...], on: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
    """The distinct weight values of a tree, ascending, and for each row of
    the boolean (rows, n) gate matrix ``on`` the number of enabled
    synapses of each value: one sum per value for every row at once."""
    values, order, starts, _ = _weight_classes(c_s)
    return values, np.add.reduceat(on[:, order], starts, axis=1, dtype=np.intp)


def _phase_system(cfg: CircuitConfig, sw: SwitchState, values: Sequence[float],
                  counts: Sequence[int]) -> PhaseSystem:
    """Assemble (A, b) and the elements for one switch phase whose gates
    enable ``counts`` synapses of each weight value in ``values``
    (``_weight_counts``); ``sw.synapse_on`` is not read.

    State layout: [I_L, V_PC, V_s per weight value in ``values``..., V_m],
    one top plate per value whatever the gates: a value with no enabled
    synapse holds its plate (a zero row and column in A, a zero entry in b
    and no element), so every phase system of a run has one state size.
    A run gives the values that some plan of it enables
    (``_simulate_plans``).

    Topology: the DC source feeds the inductor into the clock node, which
    carries the tank capacitor and the plate/shunt parasitics of every
    disabled gate; the bypass switch adds a conductance to ground when on;
    enabled synapses form parallel RC legs to the membrane (equal weights
    lump into one leg of r_tg/n and n*c_s: its store across the leg and
    its r_tg loss); the membrane carries the divider capacitor, wiring
    parasitics and the enabled gates' output parasitics; the reset switch
    ties the membrane to V_REF when on.
    """
    tree, pc, env = cfg.tree, cfg.pc, cfg.env
    n_on = sum(counts)
    n_off = tree.n - n_on

    r_tg = tg_resistance(tree, env)
    # (top-plate state, lumped resistance, lumped capacitance) of each enabled weight value
    legs = [(2 + j, r_tg / count, count * c_val)
            for j, (c_val, count) in enumerate(zip(values, counts)) if count]

    c_pc = pc.c_e + n_off * (tree.c_pl_off + tree.c_sh) + n_on * tree.c_pl_on
    c_m = tree.c_d + tree.c_par + n_on * tree.c_pr
    g_pc = 1.0 / bypass_resistance(pc.w_n, env) if sw.bypass_on else 0.0
    g_reset = 1.0 / reset_resistance(tree, env) if sw.reset_on else 0.0
    r_lc = lc_series_resistance(cfg)

    dim = 3 + len(values)
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
    for j, r, _ in legs:
        a[1, 1] -= (1.0 / r) / c_pc
        a[1, j] = (1.0 / r) / c_pc

    # membrane: C_m dV/dt = sum_g (V_PC - V_sg)/r_g - g_reset (V_m - V_REF)
    a[im, im] = -g_reset / c_m
    b[im] = g_reset * tree.v_ref / c_m
    for j, r, _ in legs:
        a[im, 1] += (1.0 / r) / c_m
        a[im, j] -= (1.0 / r) / c_m

    # group top plates: series-leg current balance gives
    # dV_sg/dt = dV_m/dt + (V_PC - V_sg)/(r_g c_g)
    for j, r, c in legs:
        a[j, :] = a[im, :]
        b[j] = b[im]
        a[j, 1] += 1.0 / (r * c)
        a[j, j] -= 1.0 / (r * c)

    stores = (Store(pc.l_pc, 0), Store(c_pc, 1), Store(c_m, im),
              *(Store(c, j, im) for j, _, c in legs))
    losses = [Loss("r_tg", 1.0 / r, 1, j) for j, r, _ in legs]
    sources = [Source("source_dc", pc.v_dc, 0)]
    if r_lc > 0.0:
        losses.append(Loss("r_lc", r_lc, 0))   # series coil: R_lc I_L^2
    if g_pc > 0.0:
        losses.append(Loss("r_pc", g_pc, 1))
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, stores=stores, losses=tuple(losses), sources=tuple(sources))


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


def _plan_phases(cfg: CircuitConfig, plan: CyclePlan, systems: dict[tuple, PhaseSystem],
                 steps: dict[tuple, list[int]], values: Sequence[float],
                 counts: tuple[int, ...]) -> tuple[Phase, ...]:
    """Phases of one valid cycle plan whose gates enable ``counts`` synapses
    of each weight value in ``values`` (``_weight_counts``).  Phase systems
    are shared through ``systems``, keyed by their content on one circuit
    (``_circuit``): the bypass and reset switches and those counts; step
    allocations through ``steps``, keyed by all that ``_allocate_steps``
    reads: the segments' fractions and bypass switches."""
    layout = (tuple(end - start for start, end, _ in plan), tuple(sw.bypass_on for _, _, sw in plan))
    if layout not in steps:
        steps[layout] = _allocate_steps(plan, cfg.sim.steps_per_cycle)
    phases = []
    for (start, end, sw), n_steps in zip(plan, steps[layout]):
        key = (sw.bypass_on, sw.reset_on, counts)
        if key not in systems:
            systems[key] = _phase_system(cfg, sw, values, counts)
        phases.append(Phase(start, end, n_steps, systems[key]))
    return tuple(phases)


def _rejoin(dim: int) -> np.ndarray:
    """Augmented entry map of a gate change in a layout of ``dim`` states:
    the top plates of the newly enabled branch set join at the clock
    voltage (they were parked at the trough when last disconnected), and
    so does every other plate, which no element reads while held; I_L,
    V_PC and V_m carry over."""
    entry = np.eye(dim + 1)
    entry[2:dim - 1] = 0.0
    entry[2:dim - 1, 1] = 1.0
    return entry


def simulate(cfg: CircuitConfig, cycles: Sequence[CyclePlan]) -> tuple[Trace, EnergyLedger]:
    """Run the switched linear transient over the given cycle plans.

    Initial conditions: V_PC = 0, I_L = 0, V_s = 0, V_m = V_REF.  Segment
    boundaries are honored exactly (each segment is integrated with its own
    uniform sub-grid, so no switching time is displaced).  The gates of a
    plan hold for its whole cycle.  The states carry a numerical-blowup
    guard far above any legitimate swing.

    ``cycles`` holds one plan per cycle; a plan object is found by
    identity and goes to ``_simulate_plans`` once, with each cycle's index
    into the distinct plans.

    Returns the sampled trace (with the per-cycle observables attached)
    and the energy ledger.  The membrane is sampled for the decision stage
    at ``SAMPLE_FRAC`` of each cycle.
    """
    if not len(cycles):
        raise ValueError("simulate: need at least one cycle plan")
    # ``cycles`` holds each plan for the call, so identities are unique
    first, plan_of = first_seen(np.fromiter(map(id, cycles), np.uint64, len(cycles)))
    plans = [cycles[k] for k in first.tolist()]
    # each plan's gates, as a row of ``gates``; the run starts with every gate open
    gates = {(False,) * cfg.tree.n: 0}
    gate_of = []
    for plan in plans:
        _validate_plan(plan)
        on = plan[0][2].synapse_on
        if any(sw.synapse_on != on for _, _, sw in plan):
            raise ValueError("cycle plan switches gates mid-cycle; gates change only at a cycle start")
        if len(on) != cfg.tree.n:
            raise ValueError(f"switch state has {len(on)} synapse bits, tree has {cfg.tree.n}")
        gate_of.append(gates.setdefault(tuple(on), len(gates)))
    layout = _layout(cfg.tree.c_s, np.array(list(gates), dtype=bool),
                     np.array(gate_of, dtype=int), plan_of)
    _, ledger, trace = _simulate_plans(cfg, plans, layout, keep_samples=True)
    return trace, ledger


class _Layout(NamedTuple):
    """What a run makes of its plans' gates and of each cycle's plan,
    whatever the operating point (``_layout``).  Its arrays are
    read-only: the runs of a ``CodeStream`` share it."""

    plan_of: np.ndarray      # each cycle's index into the distinct plans
    gate_of: np.ndarray      # each plan's row of the gate matrix
    values: list[float]      # weight values some plan enables, ascending: a plate each
    counts: np.ndarray       # per row of gates, its enabled count of each of those values
    changes: np.ndarray      # cycles whose gates differ from the cycle before (all off before the first)
    toggles: np.ndarray      # control lines toggled in each of those cycles
    kinds: list[int]         # per kind, 2 x its plan + whether its gates change
    order: CycleOrder        # each cycle's kind


def _layout(c_s: Sequence[float], gates: np.ndarray, gate_of: np.ndarray,
            plan_of: np.ndarray) -> _Layout:
    """The ``_Layout`` of a run on a tree of weights ``c_s``, from its
    plans' gates (boolean rows, row 0 all off), each plan's row of them
    and each cycle's plan: the
    weight counts of the gate rows (``_weight_counts``), the gate changes
    with their toggle counts, and the kinds, one per distinct (plan,
    whether the gates change)."""
    values, counts = _weight_counts(c_s, gates)
    # the run's layout has a plate for each weight value some plan enables
    used = counts.any(0)
    gate = gate_of[plan_of]
    prev = np.concatenate(([0], gate[:-1]))
    changed = gate != prev
    changes = np.flatnonzero(changed)
    kind = 2 * plan_of + changed
    kind_first, kind_of = first_seen(kind)
    layout = _Layout(plan_of, gate_of, [v for v, u in zip(values, used.tolist()) if u],
                     counts[:, used], changes, (gates[prev[changes]] ^ gates[gate[changes]]).sum(1),
                     kind[kind_first].tolist(), CycleOrder(kind_of))
    for a in (plan_of, gate_of, layout.counts, changes, layout.toggles):
        a.flags.writeable = False
    return layout


class _SetUp(NamedTuple):
    """What the adiabatic design keeps of its runs on one circuit for the
    next run on it (``_simulate_plans``)."""

    circuit: tuple                     # ``_circuit``
    systems: dict[tuple, PhaseSystem]  # per ``_plan_phases`` key, each with its last run's maps
    steps: dict[tuple, list[int]]      # step allocations, as ``_plan_phases`` keys them


# the set-up of the runs on the last run's circuit
_kept = _SetUp((), {}, {})


def _circuit(cfg: CircuitConfig, values: Sequence[float]) -> tuple:
    """All that a run's phase systems and step allocations read but their
    own keys: the builder (through a wrapper that names it, as
    ``engine._build_maps`` keys its maps), the tree, the environment,
    every power-clock field but the timing (``f_nominal``, ``duty_d``),
    the run's plate values and the step budget."""
    pc = cfg.pc
    clock = tuple(getattr(pc, f.name) for f in fields(pc) if f.name not in ("f_nominal", "duty_d"))
    return (inspect.unwrap(_phase_system), cfg.tree, cfg.env, clock, tuple(values),
            cfg.sim.steps_per_cycle)


def _simulate_plans(
    cfg: CircuitConfig,
    plans: Sequence[CyclePlan],
    layout: _Layout,
    keep_samples: bool,
) -> tuple[RunStats, EnergyLedger, Trace | None]:
    """``simulate`` over a run's distinct valid plans, in order of first
    use, and its ``_Layout``; ``run_neuron`` calls it with its own.
    Phases are built once per plan (equal plans built apart share phase
    systems by content); drive toggles and entry maps are booked only
    where the gates change.  Every phase system of the run has one state
    layout, a plate per weight value that some plan enables (a value the
    run leaves off has none), so the kernel gets the run's kinds, one per
    distinct (plan, whether the gates change), the change's kind entering
    through the one square ``_rejoin`` map, and the layout's order of
    them.  Returns its observables, its ledger and its ``Trace`` or None.

    The design keeps its phase systems, each with the maps of its last
    run (``engine._build_maps``), and its step allocations for the next
    run on the same ``_circuit``, which reuses the ones it shares.  A run
    on another circuit replaces them all, so the design holds one
    circuit's: a system per switch key and an allocation per segment
    layout that its runs used."""
    n_cycles = layout.plan_of.size
    t_pc = cfg.pc.t_pc
    v_dd = cfg.dlcc.v_dd
    # numerical-blowup guard only: legitimate off-resonance beats can ride
    # well past the supply before the bypass clamp reins them in
    v_limit = 50.0 * v_dd
    e_toggle = 0.5 * cfg.tree.c_inv * v_dd ** 2
    ledger = EnergyLedger.zeros(n_cycles)
    values = layout.values
    # persistent state between cycles: [I_L, V_PC, V_s per used weight value..., V_m]
    x0 = np.array([0.0, 0.0, *[0.0] * len(values), cfg.tree.v_ref])
    keys = list(map(tuple, layout.counts.tolist()))
    global _kept
    circuit = _circuit(cfg, values)
    if _kept.circuit != circuit:
        _kept = _SetUp(circuit, {}, {})
    plan_phases = [_plan_phases(cfg, plan, _kept.systems, _kept.steps, values, keys[g])
                   for plan, g in zip(plans, layout.gate_of.tolist())]
    # gate-driver overhead: half a full charge per toggled control line
    ledger.drive[layout.changes] += layout.toggles * e_toggle
    rejoin = _rejoin(x0.size)
    kinds = [(rejoin if k % 2 else None, plan_phases[k // 2]) for k in layout.kinds]

    search, samples, sampled = run_cycles(ledger, kinds, layout.order, x0, t_pc, v_limit, (1, -1),
                                          cfg.sim.trace_stride if keep_samples else None)
    observed = RunStats(search, samples)
    if not keep_samples:
        return observed, ledger, None
    times, states = sampled
    # V_s: the plates weighted by enabled count x value (0 where held); through
    # cycles with every gate open its last value, 0 before the first enabled one
    w = (layout.counts * np.array(values))[layout.gate_of[layout.plan_of]]
    on = w.any(1)
    v_s = (states[:, :, 2:-1] @ w[:, :, None])[:, :, 0] / np.where(on, w.sum(1), 1.0)[:, None]
    last = np.maximum.accumulate(np.where(on, np.arange(n_cycles), -1))
    held = np.flatnonzero(~on)
    v_s[held] = np.where(last[held] >= 0, v_s[last[held], -1], 0.0)[:, None]
    flat = states.reshape(-1, x0.size)
    trace = Trace(t=times.ravel(), i_l=flat[:, 0], v_pc=flat[:, 1], v_s=v_s.ravel(),
                  v_m=flat[:, -1], observed=observed)
    return observed, ledger, trace


def input_sweeps(n_bits: int, n_scrambles: int = 4, seed: int = 0) -> list[list[Code]]:
    """Exhaustive input sweeps: one ascending binary order plus seeded
    random permutations of the full code set."""
    if not 1 <= n_bits <= 16:
        raise ValueError(f"n_bits must lie in [1, 16], got {n_bits}")
    codes = [
        tuple((v >> b) & 1 for b in range(n_bits))
        for v in range(2 ** n_bits)
    ]
    sweeps = [list(codes)]
    rng = np.random.default_rng(seed)
    for _ in range(n_scrambles):
        order = rng.permutation(len(codes))
        sweeps.append([codes[i] for i in order])
    return sweeps


@dataclass
class NeuronRun:
    """Outcome of a multi-cycle neuron run.  Every per-cycle array holds
    one entry per reported cycle.

    The values read from the run's peaks, ``stats``, ``v_pk_reference``
    and ``oracle_bits``, are made at their first read; the first of them
    or of ``trace.stats`` runs the run's peak search, once
    (``RunStats``).  The baseline's oracle reads no peak."""

    table: list[Code]                    # distinct codes (``_code_table``)
    bits: np.ndarray                     # the same codes as a boolean (codes, n) matrix
    index: np.ndarray                    # each cycle's code, into table
    outputs: np.ndarray                  # comparator decisions, 1 fires
    delays: np.ndarray                   # decision delays, s
    observed: RunStats                   # every cycle's observables, warm-up included
    # threshold-unit oracle: the spec, or its maker at the clock peak
    oracle: NeuronSpec | Callable[[float], NeuronSpec]
    ledger_full: EnergyLedger     # includes warm-up; use for audits
    warm_up: int                         # leading ledger cycles not reported
    trace: Trace | None

    @cached_property
    def stats(self) -> CycleStats:
        return CycleStats(*(a[self.warm_up:] for a in self.observed.stats))

    @cached_property
    def v_pk_reference(self) -> float:
        """Clock peak the oracle is built at: the median over the reported
        cycles (the baseline's rail)."""
        return float(np.median(self.stats.v_pk))

    @cached_property
    def oracle_bits(self) -> np.ndarray:
        """Threshold-unit oracle, 1 fires."""
        spec = self.oracle if isinstance(self.oracle, NeuronSpec) else self.oracle(self.v_pk_reference)
        return spec.fires_rows(self.bits)[self.index]

    @property
    def ledger(self) -> EnergyLedger:
        """Ledger view of the reported cycles."""
        return self.ledger_full.since(self.warm_up)

    @property
    def output_bits(self) -> str:
        return "".join(map(str, self.outputs.tolist()))

    @property
    def oracle_string(self) -> str:
        return "".join(map(str, self.oracle_bits.tolist()))


def _code_table(codes: Iterable[Sequence[int]], n: int) -> tuple[list[Code], np.ndarray, np.ndarray]:
    """Distinct normalised codes of a stream and each cycle's index into them.

    Returns the table of distinct codes as tuples of 0/1 ints, the same
    codes as one boolean (table size, n) matrix, and each cycle's index
    into them.  The table starts with the all-zero code (index 0, whether
    or not the stream holds it); each later entry is the next new
    normalised code in stream order.

    A stream given as one 2-D array is read whole; a numeric one has its
    bits checked and turned into booleans first, and only the first row of
    each run of equal rows goes on.  Any other stream is read code by
    code, and only its distinct raw codes go on: a tuple object seen
    before is found by identity (tuples are immutable; each is held for
    the call, so no other object takes its id); other codes, such as a
    list that may change between cycles, are copied and hashed every
    cycle.  The raw codes are then checked and turned into bits all at
    once (``_code_bits``), and normalised codes are told apart by their
    rows' packed bytes.  Raises ValueError on a stream that is not
    iterable, and, naming the code, on an empty stream, a code that is not
    a sequence (a bare bit, say) or not n bits long, or a bit that is not
    a finite number (a string, NaN or a list, say).
    """
    bad = None   # what is wrong with the first code that is no sequence of n bits
    if isinstance(codes, np.ndarray) and codes.ndim == 2:
        raw, cycle_of, raw_of = codes, range(len(codes)), None
        if len(codes) and codes.shape[1] != n:
            raw, bad = codes[:0], f"code 0 has {codes.shape[1]} bits, tree has {n} synapses"
        elif len(codes) > 1 and codes.dtype.kind in "biuf":
            raw = _code_bits(codes, cycle_of)
            packed = np.packbits(raw, axis=1)   # rows told apart by their packed bytes
            new = np.empty(len(codes), dtype=bool)
            new[0] = True
            np.any(packed[1:] != packed[:-1], axis=1, out=new[1:])
            if not new.all():
                cycle_of = np.flatnonzero(new)
                raw, raw_of = raw[cycle_of], np.cumsum(new) - 1
    else:
        try:
            codes = iter(codes)
        except TypeError:   # a bare int, None or a 0-d array
            raise ValueError("code stream is not a sequence of codes") from None
        raw, cycle_of, raw_of = [], [], []   # distinct raw codes, their first cycles
        by_raw: dict[tuple, int] = {}
        by_id: dict[int, int] = {}
        held: list[tuple] = []
        for raw_code in codes:
            is_tuple = type(raw_code) is tuple
            i = by_id.get(id(raw_code)) if is_tuple else None
            if i is None:
                try:
                    key = tuple(raw_code)
                except TypeError:
                    bad = f"code {len(raw_of)} is not a sequence of bits"
                    break
                try:
                    i = by_raw.get(key)
                except TypeError:   # a bit that is itself a list or an array
                    bad = f"code {len(raw_of)} has a bit that is not a finite number"
                    break
                if i is None:
                    if len(key) != n:
                        bad = f"code {len(raw_of)} has {len(key)} bits, tree has {n} synapses"
                        break
                    i = by_raw[key] = len(raw)
                    raw.append(key)
                    cycle_of.append(len(raw_of))
                if is_tuple:
                    by_id[id(raw_code)] = i
                    held.append(raw_code)
            raw_of.append(i)
    if len(raw):   # the codes before a bad one are checked first
        on = _code_bits(raw, cycle_of)
    if bad is not None:
        raise ValueError(bad)
    if not len(raw):
        raise ValueError("code stream is empty: need at least one code")
    on = np.concatenate((np.zeros((1, n), dtype=bool), on))   # the all-zero code first
    packed = np.packbits(on, axis=1)
    first, code_of = first_seen(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    bits = on[first]
    index = code_of[1:] if raw_of is None else code_of[1:][np.asarray(raw_of)]
    return list(map(tuple, bits.view(np.int8).tolist())), bits, index


def _code_bits(raw: Sequence[Sequence] | np.ndarray, cycle_of: Sequence[int]) -> np.ndarray:
    """The bits of raw n-bit codes as a boolean (codes, n) matrix, on where
    nonzero.  Raises ValueError at the first code with a bit that is not a
    finite number, named by its cycle: ``cycle_of[i]`` for code i."""
    try:
        arr = np.asarray(raw)
    except ValueError:   # bits that are sequences of unequal length
        arr = None
    if arr is None or arr.ndim != 2 or arr.dtype.kind not in "biuf":
        # bits that are no plain numbers, None or strings say, one by one
        for i, code in enumerate(raw):
            try:
                finite = all(map(math.isfinite, code))
            except TypeError:
                finite = False
            if not finite:
                raise ValueError(f"code {cycle_of[i]} has a bit that is not a finite number")
        return np.array(raw, dtype=object).astype(bool)
    if arr.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise ValueError(f"code {cycle_of[bad[0]]} has a bit that is not a finite number")
    return arr if arr.dtype == bool else arr != 0


class CodeStream:
    """A code stream, read once for any number of runs of either design.

    Build one where a stream runs at many operating points (frequency,
    duty, widths, corner and temperature) and pass it to ``run_neuron``
    or ``run_baseline`` in place of the codes; both wrap raw codes in one
    on entry.  It holds ``_code_table``'s ``table`` of distinct codes,
    their boolean matrix ``bits`` and each cycle's ``index`` into them,
    read-only: every run shares them (``NeuronRun.bits`` and ``index``).
    Beside them it keeps what each design derives from the stream alone,
    keyed by the settings that reads (``derive``), and nothing that
    depends on the operating point.  Built for a tree of n synapses;
    raises ValueError, naming the code, on a stream that
    ``_code_table`` rejects.
    """

    def __init__(self, codes: Iterable[Sequence[int]], n: int) -> None:
        table, bits, index = _code_table(codes, n)
        self.__setstate__((tuple(table), bits, index))

    @classmethod
    def of(cls, codes: CodeStream | Iterable[Sequence[int]], n: int) -> CodeStream:
        """``codes`` if it is a stream, else a stream of them, for a tree
        of n synapses; a stream of another size fails as its codes would."""
        if not isinstance(codes, CodeStream):
            return cls(codes, n)
        if codes.n != n:
            raise ValueError(f"code 0 has {codes.n} bits, tree has {n} synapses")
        return codes

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    def derive(self, make: Callable[..., _T], *settings) -> _T:
        """``make(self, *settings)``, made at the first call with these
        (hashable) settings and kept for the stream's later calls."""
        key = (make, *settings)
        if key not in self._derived:
            self._derived[key] = make(self, *settings)
        return self._derived[key]

    def __getstate__(self) -> tuple:
        # what the stream derived stays behind: a worker derives its own
        return self.table, self.bits, self.index

    def __setstate__(self, state: tuple) -> None:
        self.table, self.bits, self.index = state
        self.bits.flags.writeable = self.index.flags.writeable = False
        self._derived: dict[tuple, object] = {}


def decided_run(stream: CodeStream, observed: RunStats, ledger: EnergyLedger, warm_up: int,
                dlcc: DlccConfig, v_os: float, oracle: NeuronSpec | Callable[[float], NeuronSpec],
                trace: Trace | None) -> NeuronRun:
    """Finish a run of either design: book the soma energy and decide every
    reported cycle from its membrane sample, all at once; the run scores
    the codes with the threshold-unit oracle, all distinct codes at once,
    when its ``oracle_bits`` are first read.  The reported codes come as
    the stream, every cycle's samples and pending peaks in ``observed``;
    v_os is the comparator offset the oracle is built with."""
    ledger.soma[:] = dlcc.e_decision
    outputs, delays = _decide(observed.samples[warm_up:], dlcc, v_os)
    return NeuronRun(table=list(stream.table), bits=stream.bits, index=stream.index,
                     outputs=outputs, delays=delays, observed=observed, oracle=oracle,
                     ledger_full=ledger, warm_up=warm_up, trace=trace)


def _cycle_layout(stream: CodeStream, c_s: Sequence[float], warm: int,
                  recal_every: int) -> tuple[tuple[bool, ...], _Layout]:
    """``run_neuron``'s plans on a stream, after ``warm`` all-zero warm-up
    cycles and recalibrated every ``recal_every`` cycles from the first,
    on a tree of weights ``c_s``: the recalibration flag of each distinct
    (code, flag), one plan each, and their ``_Layout``, whose gate rows
    are the stream's table."""
    full = np.concatenate((np.zeros(warm, dtype=stream.index.dtype), stream.index))
    # a period past the run gives the same flags and keeps the modulus in int64
    recal = np.arange(full.size) % min(recal_every, full.size) == 0
    first, plan_of = first_seen(2 * full + recal)
    return tuple(recal[first].tolist()), _layout(c_s, stream.bits, full[first], plan_of)


def run_neuron(
    cfg: CircuitConfig,
    codes: CodeStream | Iterable[Sequence[int]],
    keep_trace: bool = False,
) -> NeuronRun:
    """Simulate one code per cycle and decide each cycle at the clock crest.

    ``codes`` is a ``CodeStream`` or the raw codes, which go into one.
    Code bits are normalised to 0/1 (``_code_table``); a stream that is
    not iterable or empty, a code that is not a sequence of one bit per
    synapse, or a bit that is not a finite number raises ValueError.
    Warm-up cycles (all-zero input, count from the sim config) are
    prepended so reported cycles see the settled oscillation; they are
    dropped from the returned arrays.
    Digital outputs are checked against the threshold-unit oracle built
    from the run's own clock peak.  One schedule object serves every cycle
    of a distinct (code, recalibration flag), and one oracle bit every
    cycle of a distinct code.  The work that grows with the synapse count
    (phase-system keys, drive toggles, oracle sums) is array work on the
    distinct codes' bit matrix, once per stream and tree (``_cycle_layout``).
    """
    stream = CodeStream.of(codes, cfg.tree.n)
    warm = cfg.sim.startup_discard_cycles
    forced, layout = stream.derive(_cycle_layout, cfg.tree.c_s, warm, cfg.sim.recal_every)
    # table entry 0 is the all-zero code, and the only one
    plans = [_schedule(cfg, stream.table[i], i == 0, f)
             for i, f in zip(layout.gate_of.tolist(), forced)]
    observed, ledger, trace = _simulate_plans(cfg, plans, layout, keep_samples=keep_trace)
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    return decided_run(stream, observed, ledger, warm, cfg.dlcc, v_os,
                       partial(NeuronSpec.from_circuit, cfg, v_os=v_os), trace)
