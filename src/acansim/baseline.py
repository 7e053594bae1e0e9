"""Conventional (non-adiabatic) counterpart of the capacitive synapse tree.

Each synapse top plate is driven rail-to-rail by an inverter through a
drive resistance, so energy is spent only when an input bit changes
level.  The membrane node keeps the same divider, parasitics and reset
switch as the adiabatic design, which makes per-component comparisons
meaningful.

The design is a phase-system builder plus a cycle schedule on the
engine's kernel: the same step maps, propagation and element-driven
accounting as the adiabatic design.  The drive-resistor loss is booked
in the tree-resistor slot and the clock-generator slot stays zero (there
is no power clock here); the rail energy comes from the exact endpoint
charges rather than a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import (
    BranchGroup,
    CycleStats,
    EnergyLedger,
    Loss,
    PhaseSystem,
    Store,
    book_reconfig,
    book_segment,
    propagate,
    reset_terms,
    segment_sample,
    step_maps,
)
from .model import (
    CircuitConfig,
    DlccConfig,
    Environment,
    NeuronSpec,
    SynapseTreeConfig,
    reset_resistance,
)
from .neuron import Code, NeuronRun, dlcc_decide, dlcc_offset


@dataclass(frozen=True)
class BaselineConfig:
    """Inverter-driven synapse tree plus the shared decision stage."""

    tree: SynapseTreeConfig = field(default_factory=SynapseTreeConfig)
    dlcc: DlccConfig = field(default_factory=DlccConfig)
    env: Environment = field(default_factory=Environment)
    r_drv: float = 1e3        # inverter drive resistance, Ohm
    v_dd: float = 1.8         # inverter rail, V
    f_clock: float = 1e6      # input code rate, Hz
    steps_per_cycle: int = 4096

    def __post_init__(self) -> None:
        if self.r_drv <= 0:
            raise ValueError(f"baseline.r_drv: must be > 0, got {self.r_drv}")
        if self.v_dd <= 0:
            raise ValueError(f"baseline.v_dd: must be > 0, got {self.v_dd}")
        if self.f_clock <= 0:
            raise ValueError(f"baseline.f_clock: must be > 0, got {self.f_clock}")
        if self.steps_per_cycle < 256:
            raise ValueError("baseline.steps_per_cycle: must be >= 256")

    @classmethod
    def from_circuit(cls, cfg: CircuitConfig, r_drv: float = 1e3) -> "BaselineConfig":
        """Matched baseline: same tree, decision stage and code rate."""
        return cls(
            tree=cfg.tree, dlcc=cfg.dlcc, env=cfg.env,
            r_drv=r_drv, v_dd=cfg.dlcc.v_dd, f_clock=cfg.pc.f_nominal,
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
    lumped weight capacitor, its driver held at the new level's rail.
    """
    tree = cfg.tree
    c_mb = tree.c_d + tree.c_par
    g_reset = 1.0 / reset_resistance(tree, cfg.env) if reset_on else 0.0
    groups = tuple(BranchGroup(c_value=c, count=cnt, r=cfg.r_drv / cnt, c=cnt * c)
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
    sources = []
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=groups, stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


def _cycle_plan(system: PhaseSystem, t_cycle: float, spc: int) -> list[tuple[float, float, int]]:
    """(start, end, steps) sub-grids in cycle fractions: dense over the
    switching transient, coarse after.

    The slowest settling mode comes straight from the system matrix, so
    the dense window tracks the actual transient at any tree size.  With
    the reset open the membrane-charge mode sits at exactly zero rate; it
    never settles and must not widen the dense window.
    """
    rates = np.linalg.eigvals(system.a).real
    taus = [1.0 / -r for r in rates if r < 0.0 and -r * t_cycle >= 1.0]
    t_fine = 60.0 * max(taus) if taus else t_cycle
    if t_fine >= 0.5 * t_cycle:
        return [(0.0, 1.0, spc)]
    n_fine = (3 * spc) // 4
    split = t_fine / t_cycle
    return [(0.0, split, n_fine), (split, 1.0, spc - n_fine)]


def run_baseline(cfg: BaselineConfig, codes: Sequence[Sequence[int]]) -> NeuronRun:
    """Level-driven transient: one code per cycle, switching only the bits
    that change between consecutive codes.  The membrane resets to V_REF
    on all-zero codes, as in the adiabatic design."""
    tree = cfg.tree
    codes = [tuple(int(bool(x)) for x in c) for c in codes]
    for c in codes:
        if len(c) != tree.n:
            raise ValueError(f"codes must have {tree.n} bits")
    n_cycles = len(codes)
    if n_cycles == 0:
        raise ValueError("run_baseline: need at least one code")

    t_cycle = 1.0 / cfg.f_clock
    e_toggle = 0.5 * tree.c_inv * cfg.v_dd ** 2

    ledger = EnergyLedger.zeros(n_cycles)
    ledger.soma[:] = cfg.dlcc.e_decision
    stats: list[CycleStats] = []
    prev_code: Code = tuple(0 for _ in range(tree.n))
    prev_sys: PhaseSystem | None = None
    x = np.array([tree.v_ref])

    for k, code in enumerate(codes):
        levels = _levels(tree, prev_code, code)
        sys = build_baseline_system(cfg, levels, reset_on=not any(code))

        # plates start the cycle at the rail they were driven to last cycle
        x0 = np.array([*(p * cfg.v_dd for p, _, _, _ in levels), x[-1]])
        book_reconfig(ledger, k, prev_sys, x, sys, x0)
        ledger.drive[k] += e_toggle * sum(p != n for p, n in zip(prev_code, code))

        v_m_sample = math.nan
        v_m_peak = -math.inf
        x = x0
        for start, end, n_steps in _cycle_plan(sys, t_cycle, cfg.steps_per_cycle):
            dt = (end - start) * t_cycle / n_steps
            xs = propagate(*step_maps(sys.a, sys.b, dt), x, n_steps)
            book_segment(ledger, k, sys, xs, dt)
            v_m_peak = max(v_m_peak, float(xs[:, -1].max()))
            sample = segment_sample(xs[:, -1], start, end, 0.5, t_cycle, dt)
            if sample is not None:
                v_m_sample = sample
            x = xs[-1]

        # exact supply charge from endpoint states: the rail only feeds
        # branches whose driver sits high this cycle
        for j, (g, (_, n, _, _)) in enumerate(zip(sys.groups, levels)):
            if n == 1:
                ledger.source_dc[k] += cfg.v_dd * (g.c * ((x[j] - x[-1]) - (x0[j] - x0[-1])))

        prev_sys = sys
        prev_code = code
        stats.append(CycleStats(cycle=k, v_pk=cfg.v_dd, v_x=0.0,
                                v_m_peak=v_m_peak, v_m_sample=v_m_sample))

    ledger.e_stored_last = prev_sys.stored_energy(x)

    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    decisions = [dlcc_decide(s.v_m_sample, cfg.dlcc) for s in stats]
    spec = baseline_oracle_spec(cfg, v_os=v_os)
    oracle = [spec.fires(c) for c in codes]

    return NeuronRun(
        codes=codes, decisions=decisions, oracle_bits=oracle,
        stats=stats, ledger_full=ledger, warm_up=0,
        trace=None, v_pk_reference=cfg.v_dd,
    )
