"""Domain types and closed-form circuit algebra for the adiabatic neuron.

This module holds the configuration dataclasses shared by the transient
engine and the benchmarking layer, plus the small closed-form operations
(resonance, effective capacitances, divider gains, analytic energy
estimates) that serve as independent cross-checks on the simulator.

Conventions: every quantity is in base SI units (F, H, V, s, Ohm, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence


class Corner(str, Enum):
    """Process corner of the switch devices."""

    FF = "FF"
    TT = "TT"
    SS = "SS"
    FS = "FS"
    SF = "SF"


# Resistance multipliers per corner. The bypass switch is a bare nMOS, so
# the mixed corners follow the n-device half; the transmission gates are
# complementary and get the geometric mean of the fast and slow extremes.
_NMOS_MULT = {
    Corner.FF: 0.85,
    Corner.TT: 1.00,
    Corner.SS: 1.20,
    Corner.FS: 0.85,
    Corner.SF: 1.20,
}
_TG_MULT = {
    Corner.FF: 0.85,
    Corner.TT: 1.00,
    Corner.SS: 1.20,
    Corner.FS: math.sqrt(0.85 * 1.20),
    Corner.SF: math.sqrt(0.85 * 1.20),
}

TEMP_COEFF_PER_C = 0.003    # fractional on-resistance increase per degree C
T_REF_C = 25.0              # reference temperature for the multipliers
K_N_OHM_UM = 2400.0         # nMOS on-resistance scale: R = K_n / W_n


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class Environment:
    """Operating point: process corner and die temperature."""

    corner: Corner = Corner.TT
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if not isinstance(self.corner, Corner):
            object.__setattr__(self, "corner", Corner(str(self.corner)))
        _require(
            -40.0 <= self.temperature_c <= 150.0,
            f"env.temperature_c: must lie in [-40, 150], got {self.temperature_c}",
        )


def _thermal_factor(temperature_c: float) -> float:
    return 1.0 + TEMP_COEFF_PER_C * (temperature_c - T_REF_C)


@dataclass(frozen=True)
class PowerClockConfig:
    """Resonant single-phase power clock: DC feed, inductor, tank capacitor,
    and the nMOS bypass switch that tops the oscillation up once per cycle."""

    l_pc: float = 1e-3        # feed inductor, H
    c_e: float = 25e-12       # explicit tank capacitor at the clock node, F
    v_dc: float = 0.9         # DC feed voltage, V (half the logic supply)
    w_n: float = 30e-6        # bypass switch width, m
    duty_d: float = 0.05      # bypass on-time as a fraction of the cycle
    f_nominal: float = 1e6    # design/operating clock frequency, Hz
    q_lc: float = 630.0       # resonator quality factor; sets the LC series loss

    def __post_init__(self) -> None:
        _require(self.l_pc > 0, f"pc.l_pc: inductance must be > 0, got {self.l_pc}")
        _require(self.c_e > 0, f"pc.c_e: capacitance must be > 0, got {self.c_e}")
        _require(self.v_dc > 0, f"pc.v_dc: voltage must be > 0, got {self.v_dc}")
        _require(self.w_n > 0, f"pc.w_n: width must be > 0, got {self.w_n}")
        _require(
            0.0 < self.duty_d <= 0.5,
            f"pc.duty_d: duty must lie in (0, 0.5], got {self.duty_d}",
        )
        _require(self.f_nominal > 0, f"pc.f_nominal: must be > 0, got {self.f_nominal}")
        _require(self.q_lc > 0, f"pc.q_lc: quality factor must be > 0, got {self.q_lc}")

    @property
    def t_pc(self) -> float:
        """Clock period, s."""
        return 1.0 / self.f_nominal

    @property
    def t_on(self) -> float:
        """Bypass on-time per cycle, s."""
        return self.duty_d / self.f_nominal


@dataclass(frozen=True)
class SynapseTreeConfig:
    """Gated capacitive synapse tree hanging off the power clock.

    Each synapse is a transmission gate in series with a weight capacitor
    C_s whose bottom plate ties to the shared membrane node.  The membrane
    carries the divider capacitor C_d plus wiring parasitics, and a reset
    switch restores the membrane to V_REF.
    """

    c_s: tuple[float, ...] = (1e-12, 1e-12, 1e-12, 1e-12)
    c_d: float | None = None      # divider capacitor; defaults to sum(c_s)
    c_par: float = 0.5e-12        # membrane wiring parasitic, F
    r_tg_nominal: float = 5e3     # transmission-gate on-resistance at TT/25C
    c_inv: float = 2e-15          # gate-driver input capacitance per synapse
    c_sh: float = 1.5e-15         # shunt across an open gate, clock side
    c_pl_on: float = 3e-15        # clock-node plate parasitic, gate on
    c_pl_off: float = 2e-15      # clock-node plate parasitic, gate off
    c_pr: float = 3e-15           # membrane-side gate parasitic, gate on
    v_ref: float = 0.7            # membrane resting voltage, V
    r_reset: float = 1e3          # reset switch on-resistance, Ohm

    def __post_init__(self) -> None:
        _require(len(self.c_s) >= 1, "tree.c_s: need at least one synapse")
        if not isinstance(self.c_s, tuple):
            object.__setattr__(self, "c_s", tuple(float(c) for c in self.c_s))
        for i, c in enumerate(self.c_s):
            _require(c > 0, f"tree.c_s[{i}]: capacitance must be > 0, got {c}")
        if self.c_d is None:
            object.__setattr__(self, "c_d", float(sum(self.c_s)))
        _require(self.c_d > 0, f"tree.c_d: capacitance must be > 0, got {self.c_d}")
        _require(self.c_par >= 0, f"tree.c_par: must be >= 0, got {self.c_par}")
        for name in ("c_inv", "c_sh", "c_pl_on", "c_pl_off", "c_pr"):
            _require(getattr(self, name) >= 0, f"tree.{name}: must be >= 0")
        _require(self.r_tg_nominal > 0, "tree.r_tg_nominal: must be > 0")
        _require(self.r_reset > 0, "tree.r_reset: must be > 0")
        _require(self.v_ref >= 0, f"tree.v_ref: must be >= 0, got {self.v_ref}")

    @property
    def n(self) -> int:
        """Number of synapses."""
        return len(self.c_s)


@dataclass(frozen=True)
class DelayModel:
    """Decision-delay model for the comparator.

    Anchors are measured (M_L, M_R, delay) triples taken at the reference
    overdrive; below that overdrive the delay grows logarithmically with a
    metastability slope, and the overdrive is clamped at min_overdrive.
    """

    anchors: tuple[tuple[float, float, float], ...] = (
        (10e3, 10e3, 147e-9),
        (1e3, 10e3, 51e-9),
        (1e3, 1e3, 87e-9),
    )
    metastability_slope: float = 5e-9   # seconds per natural-log unit
    min_overdrive: float = 1e-3         # V, clamp on |V_m - threshold|
    reference_overdrive: float = 0.1    # V, overdrive at which anchors hold

    def __post_init__(self) -> None:
        _require(len(self.anchors) >= 1, "delay.anchors: need at least one anchor")
        _require(self.metastability_slope >= 0, "delay.metastability_slope: must be >= 0")
        _require(self.min_overdrive > 0, "delay.min_overdrive: must be > 0")
        _require(self.reference_overdrive > 0, "delay.reference_overdrive: must be > 0")

    def base_delay(self, m_l: float, m_r: float) -> float:
        """Nearest-anchor base delay for a resistance pair."""
        best = min(self.anchors, key=lambda a: (a[0] - m_l) ** 2 + (a[1] - m_r) ** 2)
        return best[2]


@dataclass(frozen=True)
class DlccConfig:
    """Behavioral comparator (dynamic latch with resistive offset trim)."""

    m_l: float = 10e3           # left trim resistance, Ohm
    m_r: float = 10e3           # right trim resistance, Ohm
    v_th: float = 1.1           # nominal decision threshold, V
    v_dd: float = 1.8           # logic supply, V
    e_decision: float = 4.49e-12  # fixed energy per clocked decision, J
    delay: DelayModel = field(default_factory=DelayModel)

    def __post_init__(self) -> None:
        _require(self.m_l > 0, f"dlcc.m_l: must be > 0, got {self.m_l}")
        _require(self.m_r > 0, f"dlcc.m_r: must be > 0, got {self.m_r}")
        _require(self.v_dd > 0, f"dlcc.v_dd: must be > 0, got {self.v_dd}")
        _require(self.e_decision >= 0, "dlcc.e_decision: must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Integration and run-protocol controls."""

    steps_per_cycle: int = 4096
    startup_discard_cycles: int = 8
    recal_every: int = 16        # force a membrane reset every Nth cycle
    trace_stride: int = 8        # record every Nth integration step

    def __post_init__(self) -> None:
        _require(
            self.steps_per_cycle >= 256,
            f"sim.steps_per_cycle: must be >= 256, got {self.steps_per_cycle}",
        )
        _require(self.startup_discard_cycles >= 0, "sim.startup_discard_cycles: must be >= 0")
        _require(self.recal_every >= 1, "sim.recal_every: must be >= 1")
        _require(self.trace_stride >= 1, "sim.trace_stride: must be >= 1")
        _require(
            self.steps_per_cycle % self.trace_stride == 0,
            "sim.trace_stride: must divide steps_per_cycle",
        )


@dataclass(frozen=True)
class CircuitConfig:
    """Complete neuron description; defaults are the reference scenario
    (1 mH / 25 pF clock at 1 MHz, four 1 pF synapses, 4 pF divider)."""

    pc: PowerClockConfig = field(default_factory=PowerClockConfig)
    tree: SynapseTreeConfig = field(default_factory=SynapseTreeConfig)
    dlcc: DlccConfig = field(default_factory=DlccConfig)
    env: Environment = field(default_factory=Environment)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.tree.v_ref <= self.dlcc.v_dd,
            f"tree.v_ref: must lie in [0, v_dd], got {self.tree.v_ref}",
        )


# ---------------------------------------------------------------------------
# closed-form operations


def series_capacitance(a: float, b: float) -> float:
    """Series combination of two capacitances; zero if either is zero."""
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return a * b / (a + b)


def resonant_frequency(l: float, c: float) -> float:
    """Natural frequency of the LC pair, Hz."""
    _require(l > 0 and c > 0, "resonant_frequency: l and c must be > 0")
    return 1.0 / (2.0 * math.pi * math.sqrt(l * c))


def active_count(tree: SynapseTreeConfig, alpha: float) -> int:
    """Number of enabled synapses at loading fraction alpha."""
    _require(0.0 <= alpha <= 1.0, f"alpha: must lie in [0, 1], got {alpha}")
    return int(round(alpha * tree.n))


def effective_pc_capacitance(
    tree: SynapseTreeConfig,
    pc: PowerClockConfig,
    alpha: float,
    all_off: bool | None = None,
) -> float:
    """Capacitance seen by the clock inductor at loading fraction alpha.

    With every gate open the tree contributes only plate and shunt
    parasitics.  Each enabled gate swaps its off-parasitics for the on
    ones and hangs its weight capacitor, in series with the membrane-side
    capacitance, off the clock node.  ``all_off`` forces the open-gate
    formula regardless of alpha.
    """
    n = tree.n
    n_on = 0 if all_off else active_count(tree, alpha)
    c = pc.c_e
    c += (n - n_on) * (tree.c_pl_off + tree.c_sh)
    c += n_on * (tree.c_pl_on + tree.c_pr)
    if n_on > 0:
        c_active = sum(tree.c_s[:n_on])
        c += series_capacitance(c_active, tree.c_d)
    return c


def effective_tree_capacitance(tree: SynapseTreeConfig, n_on: int) -> float:
    """Load presented by the tree behind the gates: membrane-side parasitics
    of the enabled gates plus the weight/divider series combination."""
    _require(0 <= n_on <= tree.n, f"n_on: must lie in [0, {tree.n}], got {n_on}")
    if n_on == 0:
        return 0.0
    c_active = sum(tree.c_s[:n_on])
    return n_on * tree.c_pr + series_capacitance(c_active, tree.c_d)


def lc_series_resistance(cfg: CircuitConfig) -> float:
    """Series loss resistance of the clock resonator.

    Modelled as a constant quality factor: R = Z0 / Q with Z0 the
    characteristic impedance at the unloaded resonance, so the per-cycle
    ring-down loss stays a fixed fraction of the stored energy whatever
    the tank capacitor.  Infinite Q gives a lossless loop.
    """
    if math.isinf(cfg.pc.q_lc):
        return 0.0
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0, all_off=True)
    return math.sqrt(cfg.pc.l_pc / c0) / cfg.pc.q_lc


def predicted_optimal_frequency(cfg: CircuitConfig, alpha: float) -> float:
    """Loaded operating frequency that keeps the clock resonant.

    Assumes the inductor was tuned so the all-off resonance sits at
    f_nominal; loading then drags the optimum down by the square root of
    the capacitance ratio.
    """
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0, all_off=True)
    ca = effective_pc_capacitance(cfg.tree, cfg.pc, alpha)
    return cfg.pc.f_nominal * math.sqrt(c0 / ca)


def tune_inductor(cfg: CircuitConfig, f_target: float | None = None, alpha: float = 0.0) -> CircuitConfig:
    """Return a config whose inductor resonates at f_target for the given
    loading (default: all-off resonance at f_nominal)."""
    f = cfg.pc.f_nominal if f_target is None else f_target
    _require(f > 0, f"f_target: must be > 0, got {f}")
    c = effective_pc_capacitance(cfg.tree, cfg.pc, alpha, all_off=(alpha == 0.0))
    l = 1.0 / ((2.0 * math.pi * f) ** 2 * c)
    return replace(cfg, pc=replace(cfg.pc, l_pc=l))


def sweep_lock_frequency(cfg: CircuitConfig, codes: Sequence[Sequence[int]]) -> float:
    """Drive frequency at which a repeating code stream rings in step.

    The tank capacitance swings with the active set, so a repeating input
    stream settles around the mean capacitance it presents rather than the
    all-off value.  Scaling f_nominal by sqrt(C_off / C_mean) keeps the
    trough aligned with the top-up window across the stream; for the
    reference 16-code sweep this lands about 2.4% below nominal.
    """
    _require(len(codes) > 0, "codes: need at least one code")
    n = cfg.tree.n
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0, all_off=True)
    total = 0.0
    for code in codes:
        _require(len(code) == n, f"codes: every code must have length {n}")
        n_on = sum(1 for b in code if b)
        total += effective_pc_capacitance(cfg.tree, cfg.pc, n_on / n)
    return cfg.pc.f_nominal * math.sqrt(c0 * len(codes) / total)


def membrane_peak_active_divider(
    tree: SynapseTreeConfig, code: Sequence[int], v_pk: float
) -> float:
    """Membrane peak using only the enabled weight capacitors in the
    divider denominator, i.e. treating open gates as disconnected.  This
    is what the transient network actually settles to and what the
    decision oracle is built on."""
    _require(len(code) == tree.n, f"code: length must be {tree.n}, got {len(code)}")
    active = [c for c, x in zip(tree.c_s, code) if x]
    if not active:
        return tree.v_ref
    c_on = sum(active)
    den = c_on + tree.c_d + tree.c_par + len(active) * tree.c_pr
    return tree.v_ref + v_pk * c_on / den


def synapse_energy_analytic(
    c_t: float, r_tg: float, t_pc: float, v_dd: float, c_inv: float
) -> float:
    """Analytic per-cycle synapse loss: quasi-adiabatic conduction term for
    a sinusoidal ramp spanning the clock period, plus the conventional
    gate-driver charging term."""
    _require(c_t >= 0 and r_tg >= 0 and t_pc > 0, "synapse_energy_analytic: bad inputs")
    adiabatic = c_t * v_dd ** 2 * (math.pi ** 2 / 8.0) * (r_tg * c_t / t_pc)
    return adiabatic + c_inv * v_dd ** 2


def topup_energy_analytic(c_pc: float, v_x: float, t_on: float, r_pc: float) -> float:
    """Energy burnt in the bypass switch dumping the residual trough voltage
    v_x off the clock capacitance during the on-window."""
    _require(c_pc >= 0 and r_pc > 0 and t_on >= 0, "topup_energy_analytic: bad inputs")
    return 0.5 * c_pc * v_x ** 2 * (1.0 - math.exp(-2.0 * t_on / (r_pc * c_pc)))


def bypass_resistance(w_n: float, env: Environment, k_n: float = K_N_OHM_UM) -> float:
    """On-resistance of the bypass nMOS at the given width and environment."""
    _require(w_n > 0, f"w_n: must be > 0, got {w_n}")
    r = k_n / (w_n * 1e6)  # k_n is Ohm*um, w_n is m
    return r * _NMOS_MULT[env.corner] * _thermal_factor(env.temperature_c)


def tg_resistance(tree: SynapseTreeConfig, env: Environment) -> float:
    """Per-gate transmission-gate on-resistance in the given environment."""
    return tree.r_tg_nominal * _TG_MULT[env.corner] * _thermal_factor(env.temperature_c)


def reset_resistance(tree: SynapseTreeConfig, env: Environment) -> float:
    """Reset switch on-resistance in the given environment."""
    return tree.r_reset * _TG_MULT[env.corner] * _thermal_factor(env.temperature_c)


@dataclass(frozen=True)
class NeuronSpec:
    """Threshold-unit equivalent of a circuit: fires iff sum(w_i x_i) > theta.

    Weights and threshold are in capacitance units; the mapping inverts the
    active-only membrane divider so the binary decision exactly matches the
    network's comparator against v_th - v_os.
    """

    weights: tuple[float, ...]
    theta: float

    def fires(self, code: Sequence[int]) -> int:
        _require(len(code) == len(self.weights), "code: length mismatch with weights")
        drive = sum(w for w, x in zip(self.weights, code) if x)
        return 1 if drive > self.theta else 0

    @classmethod
    def from_circuit(cls, cfg: CircuitConfig, v_pk: float, v_os: float = 0.0) -> "NeuronSpec":
        """Derive weights/threshold from the divider algebra at clock peak v_pk.

        Firing requires v_ref + v_pk*S/(S + C_fixed + n_on*c_pr) > v_th - v_os
        with S the enabled weight capacitance; the c_pr term folds into the
        weights so the rule stays a fixed-threshold sum.
        """
        tree, dlcc = cfg.tree, cfg.dlcc
        dv = dlcc.v_th - v_os - tree.v_ref
        c_fixed = tree.c_d + tree.c_par
        if dv >= v_pk:
            # threshold unreachable: never fires
            return cls(weights=tuple(0.0 for _ in tree.c_s), theta=math.inf)
        weights = tuple(c * (v_pk - dv) - dv * tree.c_pr for c in tree.c_s)
        return cls(weights=weights, theta=dv * c_fixed)
