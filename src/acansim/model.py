"""Domain types and closed-form circuit algebra for the adiabatic neuron.

This module holds the configuration dataclasses shared by the transient
engine and the benchmarking layer, plus the small closed-form operations
(resonance, effective capacitances, analytic energy estimates) that serve
as independent cross-checks on the simulator.  Each numeric config field
declares its admissible interval beside its default (``within``), and
every config checks them all when built (``check_ranges``).  A field read
from JSON configs declares its key there too; one without is Python-only.

Conventions: every quantity is in base SI units (F, H, V, s, Ohm, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .neuron import CodeStream


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


def within(interval: str, default, key: str | None = None):
    """Dataclass field whose value must lie in ``interval``, written in
    interval notation: "(0, inf)", "[0, inf)", "(0, 0.5]", "[-40, 150]";
    ``key`` names it in JSON configs."""
    return field(default=default, metadata={"interval": interval, "key": key})


def keyed(key: str, default):
    """Dataclass field with no declared range, named ``key`` in JSON configs."""
    return field(default=default, metadata={"key": key})


def require_within(name: str, value, interval: str) -> None:
    """Raise ValueError unless value lies in the interval.  NaN lies in no
    interval, and an infinite end belongs to it only under a bracket."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    inside = ((lo <= value if interval[0] == "[" else lo < value)
              and (value <= hi if interval[-1] == "]" else value < hi))
    if not inside:
        raise ValueError(f"{name}: must lie in {interval}, got {value}")


def check_ranges(cfg, section: str) -> None:
    """Check every field of config dataclass ``cfg`` that declares an
    interval (``within``); errors name the field as section.field."""
    for f in fields(cfg):
        if "interval" in f.metadata:
            require_within(f"{section}.{f.name}", getattr(cfg, f.name), f.metadata["interval"])


@dataclass(frozen=True)
class Environment:
    """Operating point: process corner and die temperature."""

    corner: Corner = keyed("corner", Corner.TT)
    temperature_c: float = within("[-40, 150]", 25.0, "temperature_C")

    def __post_init__(self) -> None:
        if not isinstance(self.corner, Corner):
            object.__setattr__(self, "corner", Corner(str(self.corner)))
        check_ranges(self, "env")


def _thermal_factor(temperature_c: float) -> float:
    return 1.0 + TEMP_COEFF_PER_C * (temperature_c - T_REF_C)


@dataclass(frozen=True)
class PowerClockConfig:
    """Resonant single-phase power clock: DC feed, inductor, tank capacitor,
    and the nMOS bypass switch that tops the oscillation up once per cycle."""

    l_pc: float = within("(0, inf)", 1e-3, "L_PC")      # feed inductor, H
    c_e: float = within("(0, inf)", 25e-12, "C_E")      # explicit tank capacitor at the clock node, F
    v_dc: float = within("(0, inf)", 0.9, "V_dc")       # DC feed voltage, V (half the logic supply)
    w_n: float = within("(0, inf)", 30e-6, "W_n")       # bypass switch width, m
    # bypass on-time as a fraction of the cycle; it ends before the
    # mid-cycle decision sample
    duty_d: float = within("(0, 0.5)", 0.05, "D")
    f_nominal: float = within("(0, inf)", 1e6, "f_nominal")  # design/operating clock frequency, Hz
    # resonator quality factor; sets the LC series loss (inf: lossless loop)
    q_lc: float = within("(0, inf]", 630.0)

    def __post_init__(self) -> None:
        check_ranges(self, "pc")

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

    c_s: tuple[float, ...] = keyed("C_s", (1e-12, 1e-12, 1e-12, 1e-12))
    c_d: float | None = keyed("C_d", None)                   # divider capacitor; defaults to sum(c_s)
    c_par: float = within("[0, inf)", 0.5e-12, "C_par")      # membrane wiring parasitic, F
    r_tg_nominal: float = within("(0, inf)", 5e3, "R_TG")    # transmission-gate on-resistance at TT/25C
    c_inv: float = within("[0, inf)", 2e-15, "C_inv")        # gate-driver input capacitance per synapse
    c_sh: float = within("[0, inf)", 1.5e-15, "C_sh")        # shunt across an open gate, clock side
    c_pl_on: float = within("[0, inf)", 3e-15, "C_pl_on")    # clock-node plate parasitic, gate on
    c_pl_off: float = within("[0, inf)", 2e-15, "C_pl_off")  # clock-node plate parasitic, gate off
    c_pr: float = within("[0, inf)", 3e-15, "C_pr")          # membrane-side gate parasitic, gate on
    v_ref: float = within("[0, inf)", 0.7, "V_REF")          # membrane resting voltage, V
    r_reset: float = within("(0, inf)", 1e3, "R_reset")      # reset switch on-resistance, Ohm

    def __post_init__(self) -> None:
        _require(len(self.c_s) >= 1, "tree.c_s: need at least one synapse")
        if not isinstance(self.c_s, tuple):
            object.__setattr__(self, "c_s", tuple(float(c) for c in self.c_s))
        weights = np.asarray(self.c_s)
        # all weights checked at once; one by one, to name the first bad one
        if not (weights.dtype.kind in "iuf" and np.all((weights > 0) & (weights < math.inf))):
            for i, c in enumerate(self.c_s):
                require_within(f"tree.c_s[{i}]", c, "(0, inf)")
        if self.c_d is None:
            object.__setattr__(self, "c_d", float(sum(self.c_s)))
        require_within("tree.c_d", self.c_d, "(0, inf)")
        check_ranges(self, "tree")

    @property
    def n(self) -> int:
        """Number of synapses."""
        return len(self.c_s)


@dataclass(frozen=True)
class DlccConfig:
    """Behavioral comparator (dynamic latch with resistive offset trim)."""

    m_l: float = within("(0, inf)", 10e3, "M_L")        # left trim resistance, Ohm
    m_r: float = within("(0, inf)", 10e3, "M_R")        # right trim resistance, Ohm
    v_th: float = within("(-inf, inf)", 1.1, "V_TH")    # nominal decision threshold, V
    v_dd: float = within("(0, inf)", 1.8, "V_dd")       # logic supply, V
    # fixed energy per clocked decision, J
    e_decision: float = within("[0, inf)", 4.49e-12, "E_decision")

    def __post_init__(self) -> None:
        check_ranges(self, "dlcc")


@dataclass(frozen=True)
class SimConfig:
    """Integration and run-protocol controls."""

    steps_per_cycle: int = within("[256, inf)", 4096, "steps_per_cycle")
    startup_discard_cycles: int = within("[0, inf)", 8, "startup_discard_cycles")
    # force a membrane reset every Nth cycle
    recal_every: int = within("[1, inf)", 16, "recal_every")
    trace_stride: int = within("[1, inf)", 8, "trace_stride")  # record every Nth integration step

    def __post_init__(self) -> None:
        check_ranges(self, "sim")
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
            self.tree.v_ref <= self.dlcc.v_dd,
            f"tree.v_ref: must not exceed dlcc.v_dd = {self.dlcc.v_dd}, got {self.tree.v_ref}",
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


def effective_pc_capacitance(tree: SynapseTreeConfig, pc: PowerClockConfig, alpha: float) -> float:
    """Capacitance seen by the clock inductor at loading fraction alpha.

    With every gate open (alpha 0) the tree contributes only plate and
    shunt parasitics.  Each enabled gate swaps its off-parasitics for the
    on ones and hangs its weight capacitor, in series with the
    membrane-side capacitance, off the clock node.
    """
    n_on = active_count(tree, alpha)
    return _clock_load(tree, pc, n_on, sum(tree.c_s[:n_on]))


def _clock_load(tree: SynapseTreeConfig, pc: PowerClockConfig, n_on: int, c_active: float) -> float:
    """Capacitance seen by the clock inductor with n_on gates enabled,
    whose weights sum to c_active."""
    c = pc.c_e
    c += (tree.n - n_on) * (tree.c_pl_off + tree.c_sh)
    c += n_on * (tree.c_pl_on + tree.c_pr)
    if n_on > 0:
        c += series_capacitance(c_active, tree.c_d)
    return c


def lc_series_resistance(cfg: CircuitConfig) -> float:
    """Series loss resistance of the clock resonator.

    Modelled as a constant quality factor: R = Z0 / Q with Z0 the
    characteristic impedance at the unloaded resonance, so the per-cycle
    ring-down loss stays a fixed fraction of the stored energy whatever
    the tank capacitor.  Infinite Q gives a lossless loop.
    """
    if math.isinf(cfg.pc.q_lc):
        return 0.0
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    return math.sqrt(cfg.pc.l_pc / c0) / cfg.pc.q_lc


def predicted_optimal_frequency(cfg: CircuitConfig, alpha: float) -> float:
    """Loaded operating frequency that keeps the clock resonant.

    Assumes the inductor was tuned so the all-off resonance sits at
    f_nominal; loading then drags the optimum down by the square root of
    the capacitance ratio.
    """
    c0 = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    ca = effective_pc_capacitance(cfg.tree, cfg.pc, alpha)
    return cfg.pc.f_nominal * math.sqrt(c0 / ca)


def tune_inductor(cfg: CircuitConfig) -> CircuitConfig:
    """Return a config whose inductor puts the all-off resonance at f_nominal."""
    c = effective_pc_capacitance(cfg.tree, cfg.pc, 0.0)
    l = 1.0 / ((2.0 * math.pi * cfg.pc.f_nominal) ** 2 * c)
    return replace(cfg, pc=replace(cfg.pc, l_pc=l))


def sweep_lock_frequency(cfg: CircuitConfig, codes: CodeStream | Iterable[Sequence[int]]) -> float:
    """Drive frequency at which a repeating code stream rings in step.

    The tank capacitance swings with the active set, so a repeating input
    stream settles around the mean capacitance it presents rather than the
    all-off value.  Scaling f_nominal by sqrt(C_off / C_mean) keeps the
    trough aligned with the top-up window across the stream; for the
    reference 16-code sweep this lands about 2.4% below nominal.  The
    codes are read as the designs read them (``CodeStream``), with their
    errors; each distinct code hangs its own enabled weights off the clock
    node, and the cycles' loads are summed left to right.
    """
    from .neuron import CodeStream   # neuron builds on this module
    tree = cfg.tree
    stream = CodeStream.of(codes, tree.n)
    c_active = np.cumsum(np.where(stream.bits, np.asarray(tree.c_s), 0.0), axis=1)[:, -1]
    loads = [_clock_load(tree, cfg.pc, n_on, c)
             for n_on, c in zip(stream.bits.sum(1).tolist(), c_active.tolist())]
    total = float(np.cumsum(np.take(loads, stream.index))[-1])
    c0 = effective_pc_capacitance(tree, cfg.pc, 0.0)
    return cfg.pc.f_nominal * math.sqrt(c0 * stream.index.size / total)


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


def bypass_resistance(w_n: float, env: Environment) -> float:
    """On-resistance of the bypass nMOS at the given width and environment."""
    _require(w_n > 0, f"w_n: must be > 0, got {w_n}")
    r = K_N_OHM_UM / (w_n * 1e6)  # K_N_OHM_UM is Ohm*um, w_n is m
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

    def fires_rows(self, bits: np.ndarray) -> np.ndarray:
        """1 where a row of a boolean (codes, n) matrix fires, else 0, for
        every row at once.  A row fires when its enabled weights, summed
        left to right from zero (``cumsum`` along the row, not a dot
        product or a pairwise sum), exceed theta, so a tie decides the
        same bit for bit whatever the row's length."""
        _require(bits.shape[1] == len(self.weights), "code: length mismatch with weights")
        drive = np.cumsum(np.where(bits, np.asarray(self.weights), 0.0), axis=1)[:, -1]
        return (drive > self.theta).astype(int)

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
            return cls(weights=(0.0,) * tree.n, theta=math.inf)
        weights = np.asarray(tree.c_s) * (v_pk - dv) - dv * tree.c_pr
        return cls(weights=tuple(weights.tolist()), theta=dv * c_fixed)
