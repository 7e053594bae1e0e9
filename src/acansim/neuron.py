"""Neuron-level orchestration: cycle schedules, the latched comparator
behavioral model, the threshold-unit reference oracle, and full runs.

The comparator offset is interpolated from a measured 5x5 grid over the
two trim resistances; the decision delay comes from measured anchors plus
a logarithmic metastability term at small overdrive.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Decision:
    """One clocked comparator decision."""

    outp: int
    delay: float        # seconds

    @property
    def fired(self) -> bool:
        return self.outp == 1


def dlcc_decide(v_m: float, dlcc: DlccConfig, v_os: float) -> Decision:
    """Strict-threshold decision: fires iff V_m exceeds v_th - v_os, with
    v_os the trim pair's offset (``dlcc_offset``).

    A tie does not fire.  The delay is the measured anchor for the trim
    pair plus a metastability term that grows as the overdrive shrinks
    below the anchor's reference overdrive.
    """
    return _decide(np.array([v_m]), dlcc, v_os)[0]


def _decide(v_m: np.ndarray, dlcc: DlccConfig, v_os: float) -> list[Decision]:
    """``dlcc_decide`` of every sample in v_m at once."""
    threshold = dlcc.v_th - v_os
    overdrive = np.maximum(np.abs(v_m - threshold), _MIN_OVERDRIVE)
    delay = base_delay(dlcc.m_l, dlcc.m_r) + _METASTABILITY_SLOPE * np.maximum(
        0.0, np.log(_REFERENCE_OVERDRIVE / overdrive))
    return [Decision(outp=o, delay=d)
            for o, d in zip((v_m > threshold).astype(int).tolist(), delay.tolist())]


def make_schedule(cfg: CircuitConfig, code: Sequence[int], cycle: int = 0) -> tuple[engine.Segment, ...]:
    """Switch timing for one clock cycle of one input code.

    The bypass window opens at the cycle start (the clock trough); the
    input gates hold the code for the whole cycle.  Reset closes for the
    trough window on recalibration cycles and for the whole cycle when
    the code is all zero.  The membrane is sampled mid-cycle, at the
    clock crest.
    """
    bits = tuple(bool(x) for x in code)
    if len(bits) != cfg.tree.n:
        raise ValueError(f"code has {len(bits)} bits, tree has {cfg.tree.n} synapses")
    duty = cfg.pc.duty_d

    all_zero = not any(bits)
    forced = cycle % cfg.sim.recal_every == 0

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
        engine.write_csv(
            path, ("cycle", "code", "V_m_peak", "OutP", "delay_ns", "E_tree_pJ", "E_soma_pJ"),
            ((i, "".join(map(str, code)), st.v_m_peak, dec.outp, dec.delay * 1e9,
              s_e * 1e12, soma * 1e12)
             for i, (code, dec, st, s_e, soma)
             in enumerate(zip(self.codes, self.decisions, self.stats, led.s_e, led.soma))))


def _code_table(codes: Sequence[Sequence[int]], n: int) -> tuple[list[Code], list[int]]:
    """Distinct normalised codes of a stream and each cycle's index into them.

    Bits are normalised to 0/1.  The table starts with the all-zero code
    (index 0, whether or not the stream holds it); each later entry is the
    first cycle's copy of a new normalised code.  A code is normalised and
    its length checked only the first time its raw bits appear; every
    cycle still pays one C-level copy and hash of its raw tuple.  Raises
    ValueError on an empty stream or a code that is not n bits long.
    """
    zero: Code = (0,) * n
    table: list[Code] = [zero]
    by_code: dict[Code, int] = {zero: 0}
    by_raw: dict[tuple, int] = {}
    index: list[int] = []
    for raw in codes:
        key = tuple(raw)
        i = by_raw.get(key)
        if i is None:
            code = tuple(int(bool(x)) for x in key)
            if len(code) != n:
                raise ValueError(f"code {len(index)} has {len(code)} bits, tree has {n} synapses")
            i = by_raw[key] = by_code.setdefault(code, len(table))
            if i == len(table):
                table.append(code)
        index.append(i)
    if not index:
        raise ValueError("code stream is empty: need at least one code")
    return table, index


def decided_run(table: list[Code], index: list[int], stats: list[engine.CycleStats],
                ledger: engine.EnergyLedger, warm_up: int, dlcc: DlccConfig, v_os: float,
                oracle: NeuronSpec, v_pk_ref: float, trace: engine.Trace | None) -> NeuronRun:
    """Finish a run of either design: book the soma energy, decide every
    reported cycle from its membrane sample and score the codes with the
    threshold-unit oracle, once per distinct reported code.  The reported
    codes come as ``_code_table``'s table and per-cycle index; v_os is the
    comparator offset the oracle was built with."""
    ledger.soma[:] = dlcc.e_decision
    fired = {i: oracle.fires(table[i]) for i in dict.fromkeys(index)}
    return NeuronRun(
        codes=[table[i] for i in index],
        decisions=_decide(np.array([s.v_m_sample for s in stats]), dlcc, v_os),
        oracle_bits=[fired[i] for i in index],
        stats=stats, ledger_full=ledger, warm_up=warm_up,
        trace=trace, v_pk_reference=v_pk_ref,
    )


def run_neuron(
    cfg: CircuitConfig,
    codes: Sequence[Sequence[int]],
    keep_trace: bool = False,
) -> NeuronRun:
    """Simulate one code per cycle and decide each cycle at the clock crest.

    Code bits are normalised to 0/1 (``_code_table``); an empty stream or a
    code whose length is not the tree's synapse count raises ValueError.
    Warm-up cycles (all-zero input, count from the sim config) are
    prepended so reported cycles see the settled oscillation; they are
    dropped from the returned rows.  Digital outputs are checked against
    the threshold-unit oracle built from the run's own clock peak.
    Repeated codes share their work: one schedule per distinct (code,
    recalibration flag) and one oracle bit per distinct code.
    """
    table, index = _code_table(codes, cfg.tree.n)
    warm = cfg.sim.startup_discard_cycles
    recal = cfg.sim.recal_every

    schedules: dict[tuple[int, bool], tuple[engine.Segment, ...]] = {}
    plans = []
    for k, i in enumerate([0] * warm + index):
        key = (i, k % recal == 0)
        plan = schedules.get(key)
        if plan is None:
            plan = schedules[key] = make_schedule(cfg, table[i], cycle=k)
        plans.append(plan)
    trace, ledger = engine.simulate(cfg, plans, keep_samples=keep_trace)
    stats = trace.cycles[warm:]
    v_pk_ref = float(np.median([s.v_pk for s in stats]))
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    spec = NeuronSpec.from_circuit(cfg, v_pk_ref, v_os=v_os)
    return decided_run(table, index, stats, ledger, warm, cfg.dlcc, v_os, spec, v_pk_ref,
                       trace if keep_trace else None)
