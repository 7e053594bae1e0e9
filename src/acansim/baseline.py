"""Conventional (non-adiabatic) counterpart of the capacitive synapse tree.

Each synapse top plate is driven rail-to-rail by an inverter through a
drive resistance, so energy is spent only when an input bit changes
level.  The membrane node keeps the same divider, parasitics and reset
switch as the adiabatic design, which makes per-component comparisons
meaningful.

The design is a phase-system builder plus a cycle schedule on the
engine's kernel (``run_cycles``): the same phase operators, divergence
guard, element-driven accounting, peak search and decision sample as the
adiabatic design.  The drive-resistor loss is booked
in the tree-resistor slot and the clock-generator slot stays zero (there
is no power clock here); the rail energy is a source term on every leg
whose driver sits high.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import (
    BranchGroup,
    CycleStats,
    EnergyLedger,
    Loss,
    Phase,
    PhaseSystem,
    Source,
    Store,
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
from .neuron import Code, NeuronRun, _code_table, decided_run, dlcc_offset


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
        weights=tuple(c * cfg.v_dd for c in tree.c_s),
        theta=dv * c_tot,
    )


def _levels(tree: SynapseTreeConfig, prev_code: Code, code: Code) -> list[tuple[int, int, float, int]]:
    """Branches lumped by (previous level, new level, weight value), with counts."""
    keys: dict[tuple[int, int, float], int] = {}
    for c, p, n in zip(tree.c_s, prev_code, code):
        k = (p, n, c)
        keys[k] = keys.get(k, 0) + 1
    return [(p, n, c, cnt) for (p, n, c), cnt in sorted(keys.items())]


def build_baseline_system(
    cfg: BaselineConfig, levels: Sequence[tuple[int, int, float, int]], reset_on: bool
) -> PhaseSystem:
    """Phase system of one cycle over [V_t per group..., V_m].

    Each level group is one driver leg of r_drv/count in series with its
    lumped weight capacitor, its driver held at the new level's rail.  A
    driver held high draws the rail energy v_dd times its leg current.
    """
    tree = cfg.tree
    c_mb = tree.c_d + tree.c_par
    g_reset = 1.0 / reset_resistance(tree, cfg.env) if reset_on else 0.0
    groups = tuple(BranchGroup(r=cfg.r_drv / cnt, c=cnt * c)
                   for _, _, c, cnt in levels)
    u = [n * cfg.v_dd for _, n, _, _ in levels]

    dim = len(groups) + 1
    a = np.zeros((dim, dim))
    b = np.zeros(dim)
    im = dim - 1
    a[im, im] = -g_reset / c_mb
    b[im] = g_reset * tree.v_ref / c_mb
    for j, g in enumerate(groups):
        a[im, j] -= (1.0 / g.r) / c_mb
        b[im] += (u[j] / g.r) / c_mb
    for j, g in enumerate(groups):
        a[j, :] = a[im, :]
        b[j] = b[im]
        a[j, j] -= 1.0 / (g.r * g.c)
        b[j] += u[j] / (g.r * g.c)

    stores = (Store(c_mb, im), *(Store(g.c, j, im) for j, g in enumerate(groups)))
    losses = [Loss("r_tg", 1.0 / g.r, j, u=-u[j]) for j, g in enumerate(groups)]
    sources = [Source("source_dc", -u[j] / g.r, j, -u[j])
               for j, g in enumerate(groups) if u[j] > 0.0]
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=groups, stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


def _cycle_plan(system: PhaseSystem, rates: np.ndarray, t_cycle: float, spc: int) -> list[Phase]:
    """Phases of one cycle in cycle fractions: dense over the switching
    transient, coarse after.

    The slowest settling mode comes straight from the system matrix (the
    real parts of its eigenvalues, ``rates``), so the dense window tracks
    the actual transient at any tree size.  With the reset open the
    membrane-charge mode sits at exactly zero rate; it never settles and
    must not widen the dense window.
    """
    taus = [1.0 / -r for r in rates if r < 0.0 and -r * t_cycle >= 1.0]
    t_fine = 60.0 * max(taus) if taus else t_cycle
    if t_fine >= 0.5 * t_cycle:
        return [Phase(0.0, 1.0, spc, system)]
    n_fine = (3 * spc) // 4
    split = t_fine / t_cycle
    return [Phase(0.0, split, n_fine, system), Phase(split, 1.0, spc - n_fine, system)]


def _plate_entry(levels: Sequence[tuple[int, int, float, int]], dim_from: int,
                 v_dd: float) -> np.ndarray:
    """Augmented entry map of a cycle: each plate starts at the rail its
    driver held last cycle; the membrane carries over.  Read-only: a run
    keeps one per (transition, dim_from), so equal entries are one object."""
    entry = np.zeros((len(levels) + 2, dim_from + 1))
    entry[:len(levels), dim_from] = [p * v_dd for p, _, _, _ in levels]
    entry[len(levels), dim_from - 1] = 1.0
    entry[-1, dim_from] = 1.0
    entry.flags.writeable = False
    return entry


def run_baseline(cfg: BaselineConfig, codes: Sequence[Sequence[int]]) -> NeuronRun:
    """Level-driven transient: one code per cycle, switching only the bits
    that change between consecutive codes.  The membrane resets to V_REF
    on all-zero codes, as in the adiabatic design.

    Code bits are normalised to 0/1; an empty stream or a code whose length
    is not the tree's synapse count raises ValueError.  Repeated codes
    share their work: one level grouping and drive-toggle count per
    distinct (previous code, code) pair and one oracle bit per distinct
    code.
    """
    tree = cfg.tree
    table, index = _code_table(codes, tree.n)
    n_cycles = len(index)

    t_cycle = 1.0 / cfg.f_clock
    e_toggle = 0.5 * tree.c_inv * cfg.v_dd ** 2
    v_limit = 50.0 * cfg.v_dd   # numerical-blowup guard, as in the adiabatic design

    ledger = EnergyLedger.zeros(n_cycles)
    systems: dict[tuple, PhaseSystem] = {}
    # (previous index, index) -> (levels, phase system, drive toggles)
    transitions: dict[tuple[int, int], tuple[list, PhaseSystem, int]] = {}
    entries: dict[tuple[int, int, int], np.ndarray] = {}   # per (previous index, index, dim)
    steps: list[tuple[np.ndarray, PhaseSystem]] = []
    prev = 0   # the run starts from the all-zero code, table entry 0
    dim = 1    # and from the membrane alone, at V_REF

    for k, i in enumerate(index):
        step = transitions.get((prev, i))
        if step is None:
            prev_code, code = table[prev], table[i]
            levels = _levels(tree, prev_code, code)
            key = (tuple(levels), not any(code))
            if key not in systems:
                systems[key] = build_baseline_system(cfg, levels, reset_on=key[1])
            toggles = sum(p != n for p, n in zip(prev_code, code))
            step = transitions[prev, i] = (levels, systems[key], toggles)
        levels, system, toggles = step
        if (prev, i, dim) not in entries:
            entries[prev, i, dim] = _plate_entry(levels, dim, cfg.v_dd)
        steps.append((entries[prev, i, dim], system))
        ledger.drive[k] += e_toggle * toggles
        dim = len(levels) + 1
        prev = i

    # each system's phases, from one stacked eigenvalue call per dimension
    plans: dict[PhaseSystem, list[Phase]] = {}
    for d in dict.fromkeys(system.dim for system in systems.values()):
        group = [system for system in systems.values() if system.dim == d]
        rates = np.linalg.eigvals(np.stack([system.a for system in group])).real
        plans.update((system, _cycle_plan(system, r, t_cycle, cfg.steps_per_cycle))
                     for system, r in zip(group, rates))
    cycles = [(entry, plans[system]) for entry, system in steps]

    peaks, samples, _ = run_cycles(ledger, cycles, np.array([tree.v_ref]), t_cycle, v_limit, (-1,))
    stats = [CycleStats(v_pk=cfg.v_dd, v_m_peak=v_m_peak, v_m_sample=v_m_sample)
             for v_m_peak, v_m_sample in zip(peaks[:, 0].tolist(), samples.tolist())]
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    spec = baseline_oracle_spec(cfg, v_os=v_os)
    return decided_run(table, index, stats, ledger, 0, cfg.dlcc, v_os, spec, cfg.v_dd, None)
