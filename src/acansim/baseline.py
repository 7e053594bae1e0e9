"""Conventional (non-adiabatic) counterpart of the capacitive synapse tree.

Each synapse top plate is driven rail-to-rail by an inverter through a
drive resistance, so energy is spent only when an input bit changes
level.  The membrane node keeps the same divider, parasitics and reset
switch as the adiabatic design, which makes per-component comparisons
meaningful.

The design is a phase-system builder plus a cycle schedule on the
engine's kernel (``run_cycles``): the same phase operators, divergence
guard, element-driven accounting, peak search and decision sample as the
adiabatic design.  The synapses of one weight value that share a new
level lump exactly into one leg, their spread about it into one state
per weight value that decays on its own.  The drive-resistor loss is booked
in the tree-resistor slot and the clock-generator slot stays zero (there
is no power clock here); the rail energy is a source term on every leg
whose driver sits high.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .engine import (
    BranchGroup,
    EnergyLedger,
    Loss,
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
    Environment,
    NeuronSpec,
    SynapseTreeConfig,
    check_ranges,
    reset_resistance,
    within,
)
from .neuron import NeuronRun, RunStats, _code_table, _weight_counts, decided_run, dlcc_offset


@dataclass(frozen=True)
class BaselineConfig:
    """Inverter-driven synapse tree plus the shared decision stage."""

    tree: SynapseTreeConfig = field(default_factory=SynapseTreeConfig)
    dlcc: DlccConfig = field(default_factory=DlccConfig)
    env: Environment = field(default_factory=Environment)
    r_drv: float = within("(0, inf)", 1e3)     # inverter drive resistance, Ohm
    v_dd: float = within("(0, inf)", 1.8)      # inverter rail, V
    f_clock: float = within("(0, inf)", 1e6)   # input code rate, Hz
    steps_per_cycle: int = within("[256, inf)", 4096)

    def __post_init__(self) -> None:
        check_ranges(self, "baseline")

    @classmethod
    def from_circuit(cls, cfg: CircuitConfig) -> "BaselineConfig":
        """Matched baseline: same tree, decision stage and code rate."""
        return cls(
            tree=cfg.tree, dlcc=cfg.dlcc, env=cfg.env,
            v_dd=cfg.dlcc.v_dd, f_clock=cfg.pc.f_nominal,
            steps_per_cycle=cfg.sim.steps_per_cycle,
        )


def baseline_transition_energy_analytic(
    tree: SynapseTreeConfig,
    code_from: Sequence[int],
    code_to: Sequence[int],
    v_dd: float,
) -> float:
    """Supply energy drawn through the rising drivers for one transition.

    Charge conservation on the floating membrane gives the membrane step
    exactly, hence the charge pulled from the rail by every 0->1 branch;
    the result is independent of the drive resistance.
    """
    a = [int(bool(x)) for x in code_from]
    b = [int(bool(x)) for x in code_to]
    if len(a) != tree.n or len(b) != tree.n:
        raise ValueError(f"codes must have {tree.n} bits")
    c_tot = sum(tree.c_s) + tree.c_d + tree.c_par
    dv_m = v_dd * sum(c * (y - x) for c, x, y in zip(tree.c_s, a, b)) / c_tot
    q = sum(c * (v_dd - dv_m) for c, x, y in zip(tree.c_s, a, b) if x == 0 and y == 1)
    return v_dd * q


def baseline_oracle_spec(cfg: BaselineConfig, v_os: float = 0.0) -> NeuronSpec:
    """Threshold-unit equivalent of the level-driven tree.

    Every plate is always driven, so the divider denominator is the whole
    tree and the firing rule is exactly linear in the code bits.
    """
    tree = cfg.tree
    dv = cfg.dlcc.v_th - v_os - tree.v_ref
    c_tot = sum(tree.c_s) + tree.c_d + tree.c_par
    return NeuronSpec(
        weights=tuple((np.asarray(tree.c_s) * cfg.v_dd).tolist()),
        theta=dv * c_tot,
    )


def _legs(cfg: BaselineConfig, before: np.ndarray,
          after: np.ndarray) -> list[tuple[tuple, list[float]]]:
    """Lumped legs of each transition from a row of the boolean
    (transitions, n) matrix ``before`` to the same row of ``after``, from
    one count over every transition at once: per transition its system
    key, the ``build_baseline_system`` arguments after the config and
    before the state size, and the start of each of the system's own
    states but the membrane.

    The synapses of one weight value that share a new level share their
    drive and their RC product, so they lump exactly into one leg, which
    starts at v_dd times the share of them whose previous level was high.
    Their spread about the leg decays on its own and never reaches the
    membrane; the weight value's spread state sigma, with N_w sigma^2 the
    sum of the squared spreads of all its N_w synapses, starts at
    v_dd sqrt(sum c0 c1 / (c0 + c1) / N_w) <= v_dd / 2, summed over its
    new levels, c0 and c1 their synapses of previous level low and high.
    It is a state only where a new level mixes both previous levels, so
    that a system has the same set of decaying modes as one state per
    (previous level, new level, weight value) group.
    """
    # per transition its four (previous level, new level) masks, in order
    masks = np.stack((~before & ~after, ~before & after, before & ~after, before & after), axis=1)
    _, counts = _weight_counts(cfg.tree.c_s, masks.reshape(-1, cfg.tree.n))
    c00, c01, c10, c11 = counts.reshape(before.shape[0], 4, -1).transpose(1, 0, 2)
    low, high = c00 + c10, c01 + c11   # (transitions, weight values) at each new level
    mixed = c00 * c10 / np.maximum(low, 1) + c01 * c11 / np.maximum(high, 1)
    spread = mixed > 0
    # per weight value: the low leg, the high leg, the spread, where present
    present = np.stack((low > 0, high > 0, spread), axis=2).reshape(before.shape[0], -1)
    start = cfg.v_dd * np.stack((c10 / np.maximum(low, 1), c11 / np.maximum(high, 1),
                                 np.sqrt(mixed / (low + high))), axis=2).reshape(present.shape)
    reset = ~after.any(1)   # the all-zero code closes the reset
    return [((tuple(n1), tuple(s), r), x[on].tolist()) for n1, s, r, x, on in
            zip(high.tolist(), spread.tolist(), reset.tolist(), start, present)]


def build_baseline_system(cfg: BaselineConfig, ones: Sequence[int], spread: Sequence[bool],
                          reset_on: bool, dim: int | None = None) -> PhaseSystem:
    """Phase system of one cycle: per distinct weight value, ascending, its
    low leg, its high leg and its spread state, where present, then held
    states up to ``dim`` states in all (none by default), then V_m.  A
    held state has a zero row and column in A, a zero entry in b and no
    element, so the systems of a run share the state size of its widest
    one (``run_baseline``).

    ``ones`` holds per weight value the number of its synapses whose
    driver sits high, and ``spread`` whether it has a spread state.  Each
    leg is one driver of r_drv/count in series with its lumped weight
    capacitor (its state is the top plate), its driver held at its level's
    rail; a driver held high draws the rail energy v_dd times its leg
    current.  A spread state sigma of the weight value's N_w synapses,
    of c_w each, decays at 1/(r_drv c_w), stores 1/2 N_w c_w sigma^2 and
    dissipates N_w sigma^2 / r_drv in the drivers (``_legs``).
    """
    tree = cfg.tree
    c_mb = tree.c_d + tree.c_par
    g_reset = 1.0 / reset_resistance(tree, cfg.env) if reset_on else 0.0
    values, totals = _weight_counts(tree.c_s, np.ones((1, tree.n), dtype=bool))
    legs, spreads = [], []   # (state, lumped leg, rail), (state, count, weight)
    for c, total, n1, mixed in zip(values, totals[0].tolist(), ones, spread):
        for count, u in ((total - n1, 0.0), (n1, cfg.v_dd)):
            if count:
                leg = BranchGroup(r=cfg.r_drv / count, c=count * c)
                legs.append((len(legs) + len(spreads), leg, u))
        if mixed:
            spreads.append((len(legs) + len(spreads), total, c))

    dim = dim or len(legs) + len(spreads) + 1
    a = np.zeros((dim, dim))
    b = np.zeros(dim)
    im = dim - 1
    a[im, im] = -g_reset / c_mb
    b[im] = g_reset * tree.v_ref / c_mb
    for j, g, u in legs:
        a[im, j] -= (1.0 / g.r) / c_mb
        b[im] += (u / g.r) / c_mb
    for j, g, u in legs:
        a[j, :] = a[im, :]
        b[j] = b[im]
        a[j, j] -= 1.0 / (g.r * g.c)
        b[j] += u / (g.r * g.c)
    for s, _, c in spreads:
        a[s, s] = -1.0 / (cfg.r_drv * c)

    stores = (Store(c_mb, im), *(Store(g.c, j, im) for j, g, _ in legs),
              *(Store(total * c, s) for s, total, c in spreads))
    losses = [Loss("r_tg", 1.0 / g.r, j, u=-u) for j, g, u in legs]
    losses += [Loss("r_tg", total / cfg.r_drv, s) for s, total, _ in spreads]
    sources = [Source("source_dc", -u / g.r, j, -u) for j, g, u in legs if u > 0.0]
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=tuple(g for _, g, _ in legs), stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


def _cycle_plan(system: PhaseSystem, rates: np.ndarray, t_cycle: float, spc: int) -> list[Phase]:
    """Phases of one cycle in cycle fractions: dense over the switching
    transient, coarse after.

    The slowest settling mode comes straight from the system matrix (the
    real parts of its eigenvalues, ``rates``), so the dense window tracks
    the actual transient at any tree size.  With the reset open the
    membrane-charge mode sits at exactly zero rate, as does each held
    state; they never settle and must not widen the dense window.
    """
    taus = [1.0 / -r for r in rates if r < 0.0 and -r * t_cycle >= 1.0]
    t_fine = 60.0 * max(taus) if taus else t_cycle
    if t_fine >= 0.5 * t_cycle:
        return [Phase(0.0, 1.0, spc, system)]
    n_fine = (3 * spc) // 4
    split = t_fine / t_cycle
    return [Phase(0.0, split, n_fine, system), Phase(split, 1.0, spc - n_fine, system)]


def _entry_map(starts: Sequence[float], dim: int) -> np.ndarray:
    """Augmented entry map of a cycle in a layout of ``dim`` states,
    square: each state but the membrane starts at its value in
    ``starts``, whatever the last cycle left, and each held state after
    them at 0; the membrane carries over."""
    entry = np.zeros((dim + 1, dim + 1))
    entry[:len(starts), -1] = starts
    entry[-2, -2] = entry[-1, -1] = 1.0
    return entry


def run_baseline(cfg: BaselineConfig, codes: Iterable[Sequence[int]]) -> NeuronRun:
    """Level-driven transient: one code per cycle, switching only the bits
    that change between consecutive codes.  The membrane resets to V_REF
    on all-zero codes, as in the adiabatic design.

    Code bits are normalised to 0/1; an empty stream, a code whose length
    is not the tree's synapse count or a bit that is not a finite number
    raises ValueError.  The run carries one integer per cycle: lumped legs
    (``_legs``: per weight value one leg per new level, and a spread
    state where a new level mixes both previous levels) and a drive-toggle
    count per distinct (previous code, code) pair, one phase system per
    distinct key (the high count and spread flag per weight value, and
    the reset), so transitions with the same new levels share their
    system and operators, and one oracle bit per distinct code.  Every
    system of the run has the state size of its widest transition, its
    own states first, then held states, then V_m, so each pair is one
    kind (its square entry map and phases), which the kernel gets with
    each cycle's pair index.  The legs, toggle counts and oracle bits
    come from the distinct codes' bit matrix, each in one array pass;
    each pair's starts go into its entry map's affine column.
    """
    tree = cfg.tree
    table, bits, index = _code_table(codes, tree.n)
    n_cycles = index.size

    t_cycle = 1.0 / cfg.f_clock
    e_toggle = 0.5 * tree.c_inv * cfg.v_dd ** 2
    v_limit = 50.0 * cfg.v_dd   # numerical-blowup guard, as in the adiabatic design

    ledger = EnergyLedger.zeros(n_cycles)
    # the run starts from the all-zero code, table entry 0
    prev = np.concatenate(([0], index[:-1]))
    first, pair_of = first_seen(prev * len(table) + index)
    before, after = bits[prev[first]], bits[index[first]]
    pair_legs = _legs(cfg, before, after)   # per distinct pair
    dim = max(len(starts) for _, starts in pair_legs) + 1   # the run's state size
    systems: dict[tuple, PhaseSystem] = {}
    for key, _ in pair_legs:
        if key not in systems:
            systems[key] = build_baseline_system(cfg, *key, dim)
    ledger.drive += e_toggle * (before ^ after).sum(1)[pair_of]

    # each system's phases, from one stacked eigenvalue call; a held
    # state's zero rate is dropped there as the floating membrane's is
    rates = np.linalg.eigvals(np.stack([system.a for system in systems.values()])).real
    plans = {system: _cycle_plan(system, r, t_cycle, cfg.steps_per_cycle)
             for system, r in zip(systems.values(), rates)}
    kinds = [(_entry_map(starts, dim), plans[systems[key]]) for key, starts in pair_legs]

    # the membrane at V_REF, every other state at 0
    x0 = np.append(np.zeros(dim - 1), tree.v_ref)
    search, samples, _ = run_cycles(ledger, kinds, pair_of, x0, t_cycle, v_limit, (-1,))
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    return decided_run(table, bits, index, RunStats(search, samples, rail=cfg.v_dd), ledger, 0,
                       cfg.dlcc, v_os, baseline_oracle_spec(cfg, v_os=v_os), None)
