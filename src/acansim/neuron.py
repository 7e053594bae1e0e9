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
from typing import Iterable, Sequence

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
    """Outcome of a multi-cycle neuron run.  Every per-cycle array holds
    one entry per reported cycle."""

    table: list[Code]                    # distinct codes (``_code_table``)
    index: np.ndarray                    # each cycle's code, into table
    outputs: np.ndarray                  # comparator decisions, 1 fires
    delays: np.ndarray                   # decision delays, s
    oracle_bits: np.ndarray              # threshold-unit oracle, 1 fires
    stats: engine.CycleStats
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
        return "".join(map(str, self.outputs.tolist()))

    @property
    def oracle_string(self) -> str:
        return "".join(map(str, self.oracle_bits.tolist()))

    def to_csv(self, path: str) -> None:
        names = ["".join(map(str, code)) for code in self.table]
        engine.write_csv(
            path, ("cycle", "code", "V_m_peak", "OutP", "delay_ns", "E_tree_pJ", "E_soma_pJ"),
            zip(range(self.index.size), map(names.__getitem__, self.index.tolist()),
                self.stats.v_m_peak.tolist(), self.outputs.tolist(), (self.delays * 1e9).tolist(),
                (self.ledger.s_e * 1e12).tolist(), (self.ledger.soma * 1e12).tolist()))


def _code_table(codes: Iterable[Sequence[int]], n: int) -> tuple[list[Code], np.ndarray]:
    """Distinct normalised codes of a stream and each cycle's index into them.

    Bits are normalised to 0/1.  The table starts with the all-zero code
    (index 0, whether or not the stream holds it); each later entry is the
    first cycle's copy of a new normalised code.  Bits are checked and
    normalised only the first time they appear.  A tuple object seen before
    is found by identity (tuples are immutable; each is held for the call,
    so no other object takes its id); other codes, such as a list that may
    change between cycles, are copied and hashed every cycle.  Raises
    ValueError, naming the code, on an empty stream, a code that is not n
    bits long or a bit that is not a finite number (a string or NaN, say).
    """
    table: list[Code] = [(0,) * n]
    by_raw: dict[tuple, int] = {table[0]: 0}   # normalised codes are raw codes too
    by_id: dict[int, int] = {}
    held: list[tuple] = []
    index: list[int] = []
    for raw in codes:
        is_tuple = type(raw) is tuple
        i = by_id.get(id(raw)) if is_tuple else None
        if i is None:
            key = tuple(raw)
            i = by_raw.get(key)
            if i is None:
                if len(key) != n:
                    raise ValueError(f"code {len(index)} has {len(key)} bits, tree has {n} synapses")
                try:
                    finite = all(map(math.isfinite, key))
                except TypeError:   # a bit that is no real number: a string, say
                    finite = False
                if not finite:
                    raise ValueError(f"code {len(index)} has a bit that is not a finite number")
                code = tuple(map(int, map(bool, key)))
                i = by_raw[key] = by_raw.setdefault(code, len(table))
                if i == len(table):
                    table.append(code)
            if is_tuple:
                by_id[id(raw)] = i
                held.append(raw)
        index.append(i)
    if not index:
        raise ValueError("code stream is empty: need at least one code")
    return table, np.array(index)


def decided_run(table: list[Code], index: np.ndarray, stats: engine.CycleStats,
                ledger: engine.EnergyLedger, warm_up: int, dlcc: DlccConfig, v_os: float,
                oracle: NeuronSpec, v_pk_ref: float, trace: engine.Trace | None) -> NeuronRun:
    """Finish a run of either design: book the soma energy, decide every
    reported cycle from its membrane sample, all at once, and score the
    codes with the threshold-unit oracle, once per distinct reported code.
    The reported codes come as ``_code_table``'s table and per-cycle index,
    the samples in ``stats``; v_os is the comparator offset the oracle was
    built with."""
    ledger.soma[:] = dlcc.e_decision
    fired = np.zeros(len(table), dtype=int)
    for i in np.unique(index).tolist():
        fired[i] = oracle.fires(table[i])
    outputs, delays = _decide(stats.v_m_sample, dlcc, v_os)
    return NeuronRun(
        table=table, index=index, outputs=outputs, delays=delays, oracle_bits=fired[index],
        stats=stats, ledger_full=ledger, warm_up=warm_up, trace=trace, v_pk_reference=v_pk_ref,
    )


def run_neuron(
    cfg: CircuitConfig,
    codes: Iterable[Sequence[int]],
    keep_trace: bool = False,
) -> NeuronRun:
    """Simulate one code per cycle and decide each cycle at the clock crest.

    Code bits are normalised to 0/1 (``_code_table``); an empty stream, a
    code whose length is not the tree's synapse count or a bit that is not
    a finite number raises ValueError.  Warm-up cycles (all-zero input,
    count from the sim config) are prepended so reported cycles see the
    settled oscillation; they are dropped from the returned arrays.
    Digital outputs are checked against the threshold-unit oracle built
    from the run's own clock peak.  One schedule object serves every cycle
    of a distinct (code, recalibration flag), and one oracle bit every
    cycle of a distinct code.
    """
    table, index = _code_table(codes, cfg.tree.n)
    warm = cfg.sim.startup_discard_cycles
    full = np.concatenate((np.zeros(warm, dtype=index.dtype), index))
    recal = np.arange(full.size) % cfg.sim.recal_every == 0
    first, plan_of = engine.first_seen(2 * full + recal)
    plans = [make_schedule(cfg, table[full[k]], cycle=k) for k in first.tolist()]
    trace, ledger = engine.simulate_plans(cfg, plans, plan_of, keep_samples=keep_trace)
    stats = engine.CycleStats(*(a[warm:] for a in trace.stats))
    v_pk_ref = float(np.median(stats.v_pk))
    v_os = dlcc_offset(cfg.dlcc.m_l, cfg.dlcc.m_r)
    spec = NeuronSpec.from_circuit(cfg, v_pk_ref, v_os=v_os)
    return decided_run(table, index, stats, ledger, warm, cfg.dlcc, v_os, spec, v_pk_ref,
                       trace if keep_trace else None)
