"""Neuron-level orchestration: cycle schedules, the latched comparator
behavioral model, the threshold-unit reference oracle, and full runs.

The comparator offset is interpolated from a measured 5x5 grid over the
two trim resistances; the decision delay comes from measured anchors plus
a logarithmic metastability term at small overdrive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .model import CircuitConfig, DlccConfig, NeuronSpec

Code = tuple[int, ...]

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


@dataclass(frozen=True)
class Decision:
    """One clocked comparator decision."""

    outp: int
    outn: int
    delay: float        # seconds
    v_m_sampled: float
    v_os: float

    @property
    def fired(self) -> bool:
        return self.outp == 1


def dlcc_decide(v_m: float, dlcc: DlccConfig) -> Decision:
    """Strict-threshold decision: fires iff V_m exceeds v_th - v_os.

    A tie does not fire.  The delay is the measured anchor for the trim
    pair plus a metastability term that grows as the overdrive shrinks
    below the anchor's reference overdrive.
    """
    v_os = dlcc_offset(dlcc.m_l, dlcc.m_r)
    threshold = dlcc.v_th - v_os
    outp = 1 if v_m > threshold else 0

    dm = dlcc.delay
    overdrive = max(abs(v_m - threshold), dm.min_overdrive)
    base = dm.base_delay(dlcc.m_l, dlcc.m_r)
    delay = base + dm.metastability_slope * max(0.0, math.log(dm.reference_overdrive / overdrive))
    return Decision(outp=outp, outn=1 - outp, delay=delay, v_m_sampled=v_m, v_os=v_os)


def make_schedule(cfg: CircuitConfig, code: Sequence[int], cycle: int = 0) -> tuple[engine.Segment, ...]:
    """Switch timing for one clock cycle of one input code.

    The bypass window opens at the cycle start (the clock trough); the
    input gates hold the code for the whole cycle.  Reset closes for the
    trough window on recalibration cycles and for the whole cycle when
    the code is all zero.  The membrane is sampled mid-cycle, at the
    clock crest.
    """
    code = tuple(int(bool(x)) for x in code)
    if len(code) != cfg.tree.n:
        raise ValueError(f"code has {len(code)} bits, tree has {cfg.tree.n} synapses")
    duty = cfg.pc.duty_d
    if duty >= 0.5:
        raise ValueError("schedule needs duty < 0.5 so the sample lands in the evaluation segment")

    all_zero = not any(code)
    forced = cycle % cfg.sim.recal_every == 0
    bits = tuple(bool(x) for x in code)

    # gates follow the input register for the whole cycle; toggles (and the
    # driver overhead) happen only when the code actually changes
    return (
        (0.0, duty, engine.SwitchState(bypass_on=True, reset_on=all_zero or forced, synapse_on=bits)),
        (duty, 1.0, engine.SwitchState(bypass_on=False, reset_on=all_zero, synapse_on=bits)),
    )


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
    """Outcome of a multi-cycle neuron run."""

    codes: list[Code]
    decisions: list[Decision]
    oracle_bits: list[int]
    stats: list[engine.CycleStats]
    ledger_full: engine.EnergyLedger     # includes warm-up; use for audits
    warm_up: int                         # leading ledger cycles not reported
    trace: engine.Trace | None
    v_pk_reference: float

    @property
    def ledger(self) -> engine.EnergyLedger:
        """Ledger view of the reported cycles."""
        return self.ledger_full.since(self.warm_up)

    @property
    def output_bits(self) -> str:
        return "".join(str(d.outp) for d in self.decisions)

    @property
    def oracle_string(self) -> str:
        return "".join(str(b) for b in self.oracle_bits)

    @property
    def mean_tree_energy(self) -> float:
        """Mean tree energy over cycles with a non-zero input code."""
        vals = [e for e, c in zip(self.ledger.s_e, self.codes) if any(c)]
        if not vals:
            return 0.0
        return float(np.mean(vals))

    @property
    def soma_energy(self) -> float:
        return float(sum(self.ledger.soma))

    def to_csv(self, path: str) -> None:
        led = self.ledger
        s_e = led.s_e
        with open(path, "w") as fh:
            fh.write("cycle,code,V_m_peak,OutP,delay_ns,E_tree_pJ,E_soma_pJ\n")
            for i, (code, dec, st) in enumerate(zip(self.codes, self.decisions, self.stats)):
                bits = "".join(str(b) for b in code)
                fh.write(
                    f"{i},{bits},{st.v_m_peak!r},{dec.outp},"
                    f"{dec.delay * 1e9!r},{float(s_e[i]) * 1e12!r},{led.soma[i] * 1e12!r}\n"
                )


def run_neuron(
    cfg: CircuitConfig,
    codes: Sequence[Sequence[int]],
    keep_trace: bool = False,
) -> NeuronRun:
    """Simulate one code per cycle and decide each cycle at the clock crest.

    Warm-up cycles (all-zero input, count from the sim config) are
    prepended so reported cycles see the settled oscillation; they are
    dropped from the returned rows.  Digital outputs are checked against
    the threshold-unit oracle built from the run's own clock peak.
    """
    codes = [tuple(int(bool(x)) for x in c) for c in codes]
    warm = cfg.sim.startup_discard_cycles
    zero = tuple(0 for _ in range(cfg.tree.n))
    all_codes = [zero] * warm + codes

    plans = [make_schedule(cfg, c, cycle=k) for k, c in enumerate(all_codes)]
    trace, ledger = engine.simulate(cfg, plans, keep_samples=keep_trace)
    ledger.soma[:] = cfg.dlcc.e_decision

    stats = trace.cycles[warm:]
    decisions = [dlcc_decide(s.v_m_sample, cfg.dlcc) for s in stats]

    v_pk_ref = float(np.median([s.v_pk for s in stats]))
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    spec = NeuronSpec.from_circuit(cfg, v_pk_ref, v_os=v_os)
    oracle = [spec.fires(c) for c in codes]

    return NeuronRun(
        codes=codes, decisions=decisions, oracle_bits=oracle,
        stats=stats, ledger_full=ledger, warm_up=warm,
        trace=trace if keep_trace else None,
        v_pk_reference=v_pk_ref,
    )
