"""Switched linear transient engine with exact energy accounting.

Within one switch phase the circuit is linear time invariant, so a cycle
is integrated as a handful of constant (A, b) systems advanced with the
implicit trapezoidal rule.  The step map is affine, so every state of a
phase is affine in the phase's start state, and every quantity a run
keeps is a closed form in it: a *phase operator* holds those forms.

A run (``run_cycles``) has the step maps of its distinct (phase system,
step size) pairs and the end maps of its distinct phases: each system
keeps those of its last run, and only the missing ones are built,
stacked.  It then takes two passes over phase slots (a phase at its
place in a cycle).  Pass 1 carries each cycle's start state through the
entry maps and the phases' end maps and records the state in each slot
it passes: a repeated block of cycles, its first period included, goes
as one batch, from powers of its period map.  Then each slot gets one
operator, built at its first start, and the operators are compiled,
stacked: their block powers, guard bounds, and their accounts from
their systems' storage, loss and source terms (a source account is
linear in the start state, a loss account a quadratic form clipped at 0:
trapezoidal quadrature on the step grid, summed in closed form by
doubling).  Each slot guards the starts it recorded against divergence
with one product, a bound on every state of the phase at once.  Pass 2,
per slot and for all the cycles that ran it, books the accounts and the
stored energy at the cycles' ends and takes the decision sample and the
trace samples.  The stored-energy jumps caused by switch
reconfiguration (node capacitances change when gates open or close) are
booked as well, and the conservation residual is exposed as an audit.
The exact peaks are left pending (``PeakSearch``): their search (per
chunk of cycles and peak row, one product over the blocks whose chord
bound admits them for some cycle) and its chord bounds run at the first
read, so a run whose peaks nobody reads never pays for them.

The kernel knows no circuit: each design (``neuron``, ``baseline``)
builds its phase systems and cycle kinds and hands them to ``run_cycles``.
A design keeps the phase systems of its runs on one circuit, each with
the maps of its last run, for its next run on that circuit; a run on
another circuit replaces them.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class SimulationError(RuntimeError):
    """Raised when the transient leaves its validity envelope."""


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


@dataclass(eq=False)
class PhaseSystem:
    """Constant-coefficient system dx/dt = A x + b for one switch phase,
    with its elements as data: the storage terms give the stored energy of
    a state, the loss and source terms give a phase's energy accounts
    (``PhaseOperator``).  A design keeps no other record of its circuit
    here: an RC leg onto the membrane is its store across the leg and its
    loss.  Every phase system of a run has one state layout, so a switch
    state may leave states unused: such a state is *held*, a zero row and
    column in A, a zero entry in b, and no store, loss or source term.
    Systems compare and hash by identity, so a run's phases can key its
    operators.

    A system keeps the step maps (E, f) and end maps of its last run,
    read-only, for the next run that uses it (``_build_maps``): ``maps``
    per (``step_maps``, dt) and ``ends`` per (``step_maps``, dt, n), keyed
    by the function that made them.  So A and b are read-only too.
    """

    a: np.ndarray
    b: np.ndarray
    stores: tuple[Store, ...]
    losses: tuple[Loss, ...]
    sources: tuple[Source, ...]
    maps: dict = field(default_factory=dict, init=False, repr=False)
    ends: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.a.flags.writeable = self.b.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def stored_energy(self, x: np.ndarray) -> np.ndarray:
        """Stored energy of a state, or of each row of a stack of states."""
        e = 0.0
        for k, i, j in self.stores:
            d = x[..., i] if j is None else x[..., i] - x[..., j]
            e = e + 0.5 * k * d ** 2
        return e


def reset_terms(g_reset: float, v_ref: float, i: int) -> tuple[Loss, Source]:
    """Reset switch tying state i to V_REF: its conduction loss and the
    power the V_REF source delivers through it."""
    return (Loss("r_reset", g_reset, i, u=-v_ref),
            Source("source_ref", -g_reset * v_ref, i, -v_ref))


@lru_cache(maxsize=16)
def _eye(d: int) -> np.ndarray:
    """The d x d identity, read-only: every caller of one size shares it."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def step_maps(a: np.ndarray, b: np.ndarray, dt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (E, f) of one implicit trapezoidal step of size dt:
    (I - dt/2 A) x' = (I + dt/2 A) x + dt b.  Broadcasts over a stack of
    systems, a (P, d, d) and b (P, d), with one dt each."""
    dt = np.asarray(dt)
    eye = _eye(a.shape[-1])
    lhs = eye - 0.5 * dt[..., None, None] * a
    e = np.linalg.solve(lhs, eye + 0.5 * dt[..., None, None] * a)
    f = np.linalg.solve(lhs, (dt[..., None] * b)[..., None])[..., 0]
    return e, f


def _build_maps(phases: Iterable[tuple[PhaseSystem, float, int]]) -> tuple[
        dict[tuple[PhaseSystem, float], tuple[np.ndarray, np.ndarray]],
        dict[tuple[PhaseSystem, float, int], np.ndarray]]:
    """Step maps (E, f) of the distinct (system, dt) pairs of phases
    (system, dt, n) of one state size, and the end map of each distinct
    phase: M = G^n for G = [E f; 0 1] the augmented step map, so
    [x_end; 1] = M [x0; 1].

    A system keeps the maps of its last run (``PhaseSystem.maps`` and
    ``ends``), keyed by the ``step_maps`` that made them, so only the maps
    missing there are built: the step maps in one stacked ``step_maps``
    call, the end maps in one stacked power per step count.  Then each
    system keeps just the maps of these phases.  A wrapper that names the
    function it wraps by ``__wrapped__`` (``functools.wraps``, a tracer)
    makes the maps of that function; any other replacement makes its own."""
    made_by = inspect.unwrap(step_maps)
    phases = list(dict.fromkeys(phases))
    maps = {(s, dt): s.maps.get((made_by, dt)) for s, dt, _ in phases}
    new = [key for key, m in maps.items() if m is None]
    if new:
        e, f = step_maps(np.array([s.a for s, _ in new]), np.array([s.b for s, _ in new]),
                         np.array([dt for _, dt in new]))
        e.flags.writeable = f.flags.writeable = False
        maps.update(zip(new, zip(e, f)))
    ends = {(s, dt, n): s.ends.get((made_by, dt, n)) for s, dt, n in phases}
    by_n: dict[int, list[tuple[PhaseSystem, float]]] = {}
    for s, dt, n in [key for key, m in ends.items() if m is None]:
        by_n.setdefault(n, []).append((s, dt))
    for n, at in by_n.items():
        d = at[0][0].dim
        g = np.zeros((len(at), d + 1, d + 1))
        g[:, :d, :d] = [maps[k][0] for k in at]
        g[:, :d, d] = [maps[k][1] for k in at]
        g[:, d, d] = 1.0
        power = np.linalg.matrix_power(g, n)
        power.flags.writeable = False
        ends.update(((*k, n), m) for k, m in zip(at, power))
    for s, _ in maps:
        s.maps, s.ends = {}, {}
    for (s, dt), m in maps.items():
        s.maps[made_by, dt] = m
    for (s, dt, n), m in ends.items():
        s.ends[made_by, dt, n] = m
    return maps, ends


# Steps per block of a phase operator: step k = bB + m of a phase is
# G^m G^(bB) z, from a table of B powers and one power per block.
_BLOCK = 64
# Cycles x blocks per chunk of the peak search and of the sampled
# states, 2^18 steps: bounds their per-block temporaries, whatever a
# slot's length or the block length.
_CHUNK_BLOCKS = 2 ** 18 // _BLOCK
_CHORD = np.arange(_BLOCK + 1)[:, None, None] / _BLOCK   # m / B at the steps m <= B of a block
# Entries (operators x B x peak rows x blocks x (d + 1)) per stack of the
# chord deviation product (``compile_chords``): bounds its temporary, 2 MB,
# however many operators of a run share a step count.
_STACK_ENTRIES = 1 << 18


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base^0 .. base^(count-1) of a matrix, or of each matrix of a stack
    (P, d, d), on a new axis before the matrix axes: (count, d, d) or
    (P, count, d, d).  One product per matrix and doubling: the powers
    known so far, stacked as the rows of one operand, times base^s."""
    d = base.shape[-1]
    out = np.empty((*base.shape[:-2], count * d, d))
    out[..., :d, :] = _eye(d)
    s = 1
    while s < count:
        take = min(s, count - s)
        np.matmul(out[..., :take * d, :], base, out=out[..., s * d:(s + take) * d, :])
        s += take
        if s < count:
            base = base @ base
    return out.reshape(*base.shape[:-2], count, d, d)


def _stein_sums(g: np.ndarray, forms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{k<n} (G^k)^T Q G^k for a stack of maps G, forms Q and step
    counts n, by doubling over the bits of the largest n: O(log n) stacked
    products and no n-sized arrays (the trapezoid analogue of Van Loan's
    block-exponential integrals, in the manner of squared Smith iteration).
    A zero bit of n steps by I and adds no form, and doubling an empty sum
    by I leaves it empty: so the doubling starts at the top bit, a bit that
    no n sets takes no step, and one that every n sets steps by G itself,
    while sum and power stay exact."""
    eye = _eye(g.shape[-1])
    top = int(ns.max()).bit_length() - 1
    bits = (ns >> np.arange(top, -1, -1)[:, None]) & 1 == 1   # per bit, from the top: n has it
    w = np.where(bits[0][:, None, None], forms, 0.0)
    p = np.where(bits[0][:, None, None], g, eye)   # G^(terms summed so far)
    for on in bits[1:]:
        w = w + p.swapaxes(1, 2) @ w @ p
        p = p @ p
        if on.all():
            w = forms + g.swapaxes(1, 2) @ w @ g
            p = p @ g
        elif on.any():
            step = np.where(on[:, None, None], g, eye)   # G, or I where the bit is zero
            w = np.where(on[:, None, None], forms, 0.0) + step.swapaxes(1, 2) @ w @ step
            p = p @ step
    return w


class PhaseOperator:
    """Closed form of ``n`` trapezoidal steps of size ``dt`` of one phase
    system.

    Every state of the phase is affine in its start state.  In augmented
    coordinates shifted to a reference start state x_ref, z = [x0 - x_ref; 1]
    and step k is x_k = x_ref + (G^k z)[:d], with G the shifted augmented
    step map.  Every source account of the phase is then linear in z and
    every loss account a quadratic form z^T W z, booked clipped at 0.  G^k
    is evaluated as G^m G^(bB) for k = bB + m, from the block table G^m
    (m < B) and the block-start powers G^(bB); the n states are never
    stored.

    It is built from the step map ``maps`` = (E, f) of size dt and holds G;
    ``run_cycles`` builds each slot's operator once, after pass 1, at the
    slot's first start.  ``compile_operators`` adds what a run reads: the
    block table and starts, the table's peak rows (``peak_table``, steps
    m <= B), the divergence guard's bound and the accounts.
    ``compile_chords`` adds what only the peak search reads: the peak rows
    of the block starts (``coarse``) and per peak row bounds on how far the
    row rises above each block's chord (``deviation``, second order in B),
    which make the search exact.  ``coarse`` and ``deviation`` are (d + 1,
    peak rows x blocks) columns, so that ``peaks`` gets every row's
    block-start values, and their bounds, from one product each.
    """

    def __init__(self, system: PhaseSystem, dt: float, n: int,
                 maps: tuple[np.ndarray, np.ndarray], x_ref: np.ndarray,
                 peak_rows: tuple[int, ...], v_limit: float) -> None:
        d = system.dim
        e, f = maps
        g = np.zeros((d + 1, d + 1))
        g[:d, :d] = e
        # one step's drift from x_ref; E - I is exact where E is near I, so
        # the drift carries no rounding of |x_ref| into every step
        g[:d, d] = (e - _eye(d)) @ x_ref + f
        g[d, d] = 1.0
        self.system, self.dt, self.n, self.dim = system, dt, n, d
        self.peak_rows = tuple(r % d for r in peak_rows)
        self.v_limit = v_limit
        self.ref = np.concatenate((x_ref, [0.0]))   # z = [x; 1] - ref
        self._g = g

    def guard(self, zs: np.ndarray) -> np.ndarray:
        """Divergence guard of the phase over a stack of shifted start
        states, one product for the stack: True for each row whose bound
        keeps every state of the phase under the limit.  Only the other
        rows (a NaN bound among them) need ``check``."""
        return np.abs(zs) @ self._guard < 1.0

    def check(self, z: np.ndarray, k: int) -> None:
        """Exact divergence check of the phase from shifted start z in cycle
        k: every state against the limit."""
        peak = float(np.abs(self.states(z[None], np.arange(self.n + 1))).max())
        if not peak < self.v_limit:   # NaN trips it too
            raise SimulationError(
                f"state diverged in cycle {k}: |x| reached {peak:.3g}, limit {self.v_limit:.3g}")

    def row(self, r: int, k: int) -> np.ndarray:
        """Row r of G^k: state r at step k is row(r, k) @ z + x_ref[r]."""
        return self.table[k % _BLOCK, r] @ self.blocks[k // _BLOCK]

    def states(self, zs: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """States at the given steps from each shifted start state in zs,
        shape (len(zs), len(steps), d)."""
        blk, m = np.divmod(steps, _BLOCK)
        at_blocks = zs @ self.blocks[:-1].swapaxes(1, 2)   # (blocks, starts, d + 1)
        xs = at_blocks[blk] @ self.table[m, :self.dim].swapaxes(1, 2)
        return xs.swapaxes(0, 1) + self.ref[:self.dim]

    def peaks(self, zs: np.ndarray) -> np.ndarray:
        """Maximum of each state of ``peak_rows`` over every step of the
        phase, for each shifted start state in zs: (len(zs), len(peak_rows)).

        The block-start values give a lower bound on each maximum; a block
        is evaluated step by step only when, for some start, its higher end
        value plus its deviation bound above its chord reaches that bound.
        Per row, the steps of those blocks, for all the starts, take one
        product: each start's own candidates are among them."""
        coarse = (zs @ self.coarse).reshape(len(zs), len(self.peak_rows), -1)
        best = coarse[:, :, :-1].max(2)   # real block starts only
        ends = np.maximum(coarse[:, :, :-1], coarse[:, :, 1:])
        needed = (ends + (np.abs(zs) @ self.deviation).reshape(ends.shape)
                  >= best[:, :, None]).any(0)
        past = _BLOCK - 1 - self.n % _BLOCK   # steps of the last block past the end
        for i in range(len(self.peak_rows)):
            bi = np.flatnonzero(needed[i])
            steps = (self.peak_table[:_BLOCK, i] @ self.blocks[bi]).reshape(-1, self.dim + 1)
            if bi[-1] == ends.shape[2] - 1:
                steps = steps[:len(steps) - past]
            best[:, i] = np.maximum(best[:, i], (zs @ steps.T).max(1))
        return best + self.ref[list(self.peak_rows)]

    def book(self, ledger: EnergyLedger, ks: np.ndarray, zs: np.ndarray) -> None:
        """Add the phase's accounts from shifted start states zs to cycles ks
        (each cycle at most once): a source's row times z, a loss's form as
        z^T W z, clipped at 0 (a negative value is round-off of a zero loss)."""
        for account, a, loss in self.accounts:
            getattr(ledger, account)[ks] += (np.maximum(((zs @ a) * zs).sum(1), 0.0) if loss
                                             else zs @ a)

    def keep_search_only(self) -> None:
        """Drop what only a run reads, the block table, guard bound,
        accounts, step map and system; ``compile_chords`` and ``peaks``
        read the block starts and ``peak_table``."""
        del self.table, self._guard, self.accounts, self._g, self.system


def compile_operators(ops: Iterable[PhaseOperator]) -> None:
    """Complete phase operators of one state size and peak rows for a run:
    the guard and pass 2.  Per step count one ``_compile_powers`` call
    (one ``_powers`` call for the block tables, one for the block starts);
    for all of them the accounts, one Stein doubling (``_compile_accounts``).
    A lone operator is a stack of one."""
    ops = list(ops)
    for group in _by_steps(ops).values():
        _compile_powers(group)
    _compile_accounts(ops)


def compile_chords(ops: Iterable[PhaseOperator]) -> None:
    """Complete compiled operators of one state size and peak rows for
    ``peaks``: per step count one chord deviation product
    (``_compile_chords``, which lays out the peak rows' block starts and
    chord bounds as ``peaks`` multiplies them), in stacks of at most
    ``_STACK_ENTRIES`` deviation entries (one operator at least)."""
    for n, group in _by_steps(ops).items():
        d, rows = group[0].dim, group[0].peak_rows
        size = max(1, _STACK_ENTRIES // (_BLOCK * len(rows) * (n // _BLOCK + 1) * (d + 1)))
        for c in range(0, len(group), size):
            _compile_chords(group[c:c + size])


def _by_steps(ops: Iterable[PhaseOperator]) -> dict[int, list[PhaseOperator]]:
    """Operators grouped by step count, in order of first appearance."""
    by_n: dict[int, list[PhaseOperator]] = {}
    for op in ops:
        by_n.setdefault(op.n, []).append(op)
    return by_n


def _compile_powers(group: list[PhaseOperator]) -> None:
    """The block table, its peak rows, the block starts and the guard bound
    of operators of one state size, step count and peak rows."""
    d, n, rows = group[0].dim, group[0].n, list(group[0].peak_rows)
    powers = _powers(np.array([op._g for op in group]), _BLOCK + 1)   # (operators, B + 1, d + 1, d + 1)
    # block starts G^(bB) for b <= n // B, and the last block's chord end
    blocks = _powers(powers[:, _BLOCK], n // _BLOCK + 2)
    # |x_k - x_ref| <= bound @ |z| for every step k <= n; scaled by the
    # room each state has to the limit and maximised over the states, a
    # start passes when guard @ |z| < 1 (NaN fails, as does every start
    # if x_ref is at the limit)
    bound = np.abs(powers[:, :_BLOCK, :d]).max(1) @ np.abs(blocks[:, :-1]).max(1)
    room = np.array([op.v_limit for op in group])[:, None] - np.abs([op.ref[:d] for op in group])
    guards = (bound / np.where(room > 0, room, np.nan)[:, :, None]).max(1)
    for op, table, peak_rows, starts, guard in zip(group, powers, powers[:, :, rows], blocks, guards):
        op.table, op.peak_table, op.blocks, op._guard = table[:_BLOCK], peak_rows, starts, guard


def _compile_chords(group: list[PhaseOperator]) -> None:
    """The peak rows' block starts and chord deviation bounds of compiled
    operators of one state size, step count and peak rows."""
    d, n, rows = group[0].dim, group[0].n, np.array(group[0].peak_rows)
    blocks = np.array([op.blocks for op in group])
    # per peak row, (blocks, d + 1): max over the block's steps m of
    # |D_m G^(bB)|, D_m = (G^m - I - m/B (G^B - I))[r], so the row rises
    # at most that @ |z| above the chord between its block's two end
    # values (steps past the end of the last block left out)
    step = np.array([op.peak_table for op in group])   # (operators, B + 1, rows, d + 1)
    step[:, :, np.arange(rows.size), rows] -= 1.0
    step -= _CHORD * step[:, _BLOCK, None]
    by_column = blocks[:, :-1].transpose(0, 2, 1, 3).reshape(len(group), d + 1, -1)
    dev = (step[:, :_BLOCK].reshape(len(group), -1, d + 1) @ by_column).reshape(
        len(group), _BLOCK, rows.size, -1, d + 1)
    dev[:, n % _BLOCK + 1:, :, -1] = 0.0
    # both (operators, d + 1, rows x blocks), so that one product of the
    # starts gives every peak row's block-start values, one their bounds
    deviation = np.maximum(dev.max(1), -dev.min(1)).transpose(0, 3, 1, 2)
    deviation = deviation.reshape(len(group), d + 1, -1)
    coarse = blocks[:, :, rows].transpose(0, 3, 2, 1).reshape(len(group), d + 1, -1)
    for op, chord, at_starts in zip(group, deviation, coarse):
        op.deviation, op.coarse = chord, at_starts


def _compile_accounts(group: list[PhaseOperator]) -> None:
    """Each operator's accounts, (account, array, is a loss), each a
    dt-scaled trapezoid sum over the phase, the Stein sum itself: a loss as
    its form W (loss = z^T W z, which ``book`` clips at 0), a source as a
    row s (energy = s @ z); for operators of one state size."""
    d = group[0].dim
    # one form per (account, operator), the losses first; per term its form,
    # indices and operator, and its gain (or power) and offset
    accounts, at, val = [], [], []
    for losses in (True, False):
        for o, op in enumerate(group):
            terms = op.system.losses if losses else op.system.sources
            names = list(dict.fromkeys(t.account for t in terms))
            at += [(len(accounts) + names.index(t.account), t.i,
                    t.j if losses and t.j is not None else d, o) for t in terms]
            val += [(t[1], t.u) for t in terms]
            accounts += [(name, o) for name in names]
        if losses:
            n_loss = len(accounts)
    form, i, j, o = np.array(at, dtype=int).reshape(-1, 4).T
    k, u = np.array(val).reshape(-1, 2).T
    x = np.array([op.ref for op in group])
    # a term's c, with c @ z = x_i - x_j + u (j = d, the affine entry, for a
    # term to ground: its -1 is overwritten); a loss term's form is g c^T c,
    # a source term's p e^T c for e the affine unit row: G keeps the affine
    # entry, so that form sums to e^T S, S the sum of the source's row
    eye = _eye(d + 1)
    c = eye[i] - eye[j]
    c[:, d] = x[o, i] - x[o, j] + u
    left = np.where((form < n_loss)[:, None], c, eye[d])
    forms = np.zeros((len(accounts), d + 1, d + 1))
    np.add.at(forms, form, k[:, None, None] * (left[:, :, None] * c[:, None, :]))

    # trapezoid rule: step k contributes the mean of its two end points
    owner = np.array([o for _, o in accounts], dtype=int)
    g = np.array([op._g for op in group])[owner]
    w = _stein_sums(g, 0.5 * (forms + g.swapaxes(1, 2) @ forms @ g),
                    np.array([op.n for op in group])[owner])
    dt = np.array([op.dt for op in group])[owner]
    rows = dt[n_loss:, None] * w[n_loss:, d]
    w = dt[:n_loss, None, None] * w[:n_loss]
    for op in group:
        op.accounts = []
    for f, ((name, o), a) in enumerate(zip(accounts, [*w, *rows])):
        group[o].accounts.append((name, a, f < n_loss))


# In-cycle instant, as a fraction of the cycle, at which both designs
# sample the membrane for the decision: mid-cycle, at the clock crest.
SAMPLE_FRAC = 0.5


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


def energy_residual(ledger: EnergyLedger) -> float:
    """Conservation audit: source energy minus dissipation minus the change
    in stored energy, with switch-reconfiguration jumps booked back in.
    Zero for exact accounting; quadrature error otherwise."""
    delta_stored = ledger.e_stored_last - ledger.e_stored_first
    return ledger.source_total - ledger.dissipated_total - delta_stored + float(ledger.reconfig.sum())


class Phase(NamedTuple):
    """One uniform sub-grid of a cycle: ``n_steps`` steps of ``system``
    over [start, end) in cycle fractions."""

    start: float
    end: float
    n_steps: int
    system: PhaseSystem


# A phase slot's key: (phase, step offset in its cycle, ends the cycle).
SlotKey = tuple[Phase, int, bool]


def _chunks(size: int, blocks: int) -> list[int]:
    """Edges of a slot's chunks for the sampled states and the peak search:
    even chunks of its ``size`` cycles, each of at most about
    ``_CHUNK_BLOCKS`` cycles x ``blocks``, so that a slot splits the same
    way whatever its tail."""
    n_chunks = -(-size * blocks // _CHUNK_BLOCKS)
    return [c * size // n_chunks for c in range(n_chunks + 1)]


class PeakSearch:
    """A run's exact peak search, pending until the first read of
    ``peaks``: the maximum of each state of the run's peak rows over every
    step of each cycle, (cycles x peak rows).

    Until then it holds, per phase slot, the cycles that ran it, their
    shifted starts and the slot's operator, which keeps only its block
    starts and the block table's peak rows (``keep_search_only``).  The
    first read compiles the operators' chord tables (``compile_chords``),
    calls ``PhaseOperator.peaks`` once per even chunk of at most about
    ``_CHUNK_BLOCKS`` cycles x blocks (per peak row, one product of the
    chunk's starts and the steps of every block that one of them needs),
    and drops its slots.
    """

    def __init__(self, n_cycles: int, n_rows: int,
                 slots: list[tuple[PhaseOperator, np.ndarray, np.ndarray]]) -> None:
        self._shape = (n_cycles, n_rows)
        self._slots = slots   # (operator, cycles, shifted starts)

    @cached_property
    def peaks(self) -> np.ndarray:
        compile_chords(op for op, _, _ in self._slots)
        peaks = np.full(self._shape, -np.inf)
        for op, ks, zs in self._slots:
            edges = _chunks(ks.size, op.blocks.shape[0])
            for a, b in zip(edges, edges[1:]):
                peaks[ks[a:b]] = np.maximum(peaks[ks[a:b]], op.peaks(zs[a:b]))
        del self._slots
        return peaks


class CycleOrder:
    """Each cycle's index into a run's kinds (``kind_of``, read-only), and
    pass 1's order of work on it: ``_periods``, found at the first read of
    ``batches`` and kept, so that every run of one order finds it once.
    A batch is (first cycle, the kind indices of its period, cycles)."""

    def __init__(self, kind_of: np.ndarray) -> None:
        self.kind_of = kind_of.view()
        self.kind_of.flags.writeable = False

    @cached_property
    def batches(self) -> list[tuple[int, list[int], int]]:
        kind_at = self.kind_of.tolist()
        return [(k, kind_at[k:k + p], count) for k, p, count in _periods(self.kind_of)]


def run_cycles(
    ledger: EnergyLedger,
    kinds: Sequence[tuple[np.ndarray | None, Sequence[Phase]]],
    order: CycleOrder,
    x0: np.ndarray,
    t_cycle: float,
    v_limit: float,
    peak_rows: tuple[int, ...],
    stride: int | None = None,
) -> tuple[PeakSearch, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Run both designs' cycles from state x0 and book them into the ledger.

    ``kinds`` holds the run's distinct cycles and ``order`` each cycle's
    index into them (``CycleOrder``).  A kind is ``(entry, phases)``:
    ``entry`` maps the previous cycle's end state ``[x; 1]`` to this
    cycle's augmented start state (None keeps the state), then the phases
    run in order.  The step
    maps of the kinds' distinct (system, dt) pairs and the end maps of
    their distinct phases come first (``_build_maps``): each system keeps
    those of its last run, and only the ones missing there are built,
    stacked.

    Pass 1 carries each cycle's start state ``[x; 1]`` through the entry
    maps and the phases' end maps, and records each phase's start in its
    slot (a phase at its step offset in its cycle, and whether it ends the
    cycle), the one record of the pass.  It goes in the order's
    ``batches``, one ``_run_batch`` each: a repeated block of cycles, its
    first period included, as one batch, and any other cycle alone, as a
    period of one.  It runs unguarded, with
    numpy's overflow and invalid-value warnings off, for past a divergence
    the states may overflow.  Then each slot gets its ``PhaseOperator``,
    built once at the slot's first start, all of them are compiled at once
    (``compile_operators``), and each slot guards its starts, shifted by
    its operator's reference, with one product (|x| < v_limit for every
    state of the phase; a NaN trips it too).  Only the starts the bound
    fails are checked state by state, in cycle-then-phase order, so a
    divergence raises the cycle and peak that per-step propagation would
    name, before any overflow is read.  Pass 2 then works per slot on the
    stacked start states of every cycle that ran it: the ledger accounts,
    the stored energy at the cycles' start (first slots) and end (last
    slots, from the phase's end map), whose jumps from one cycle to the
    next are booked as ``reconfig``, the membrane (last state) at
    ``SAMPLE_FRAC`` (nearest step) and, with a ``stride``, the times and
    states at every stride-th step of the cycle from its first (the
    states in the even chunks of ``_chunks``).  It defers the per-cycle
    maxima of the states ``peak_rows``: each slot hands its cycles, its
    shifted starts and its operator, stripped to what the search reads,
    to a ``PeakSearch``, which searches them at the first read of its
    ``peaks``.

    A run has one state size: x0, every phase system and every entry map
    (square) share it, so that the maps and operators of a run stack
    whole, and a sampled run one cycle length, so that its cycles share
    one grid; anything else raises ValueError.  Returns the pending peak
    search (its ``peaks`` are cycles x peak rows), the decision samples
    and the sampled times (cycles x samples) and states (cycles x
    samples x d), None without a stride.
    """
    sizes = {x0.size, *(p.system.dim for _, phases in kinds for p in phases),
             *(n - 1 for entry, _ in kinds if entry is not None for n in entry.shape)}
    if len(sizes) > 1:
        raise ValueError(f"run_cycles: a run needs one state size, got sizes {sorted(sizes)}")
    lengths = {sum(p.n_steps for p in phases) for _, phases in kinds}
    if stride and len(lengths) > 1:
        raise ValueError(f"run_cycles: a sampled run needs one cycle length, "
                         f"got steps {sorted(lengths)}")
    n_cycles = order.kind_of.size

    def step(phase: Phase) -> float:
        return (phase.end - phase.start) * t_cycle / phase.n_steps

    maps, ends = _build_maps((p.system, step(p), p.n_steps) for _, phases in kinds for p in phases)
    # per kind, its entry and its slots' keys, each with its phase's end map
    kind_slots = [(entry, [((p, sum(q.n_steps for q in phases[:j]), j == len(phases) - 1),
                            ends[p.system, step(p), p.n_steps]) for j, p in enumerate(phases)])
                  for entry, phases in kinds]

    # per slot key: cycles, stacks of starts [x; 1]
    starts: dict[SlotKey, tuple[list[int], list[np.ndarray]]] = {}
    x = np.concatenate((x0, [1.0]))
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        for k, period, count in order.batches:
            x = _run_batch([kind_slots[i] for i in period], x, k, count, starts)

    # a start past the limit (or NaN) dooms the run and may overflow the
    # operators, compile and guard, so it quiets them as well; a healthy
    # run's warn
    starts = {key: (np.array(ks), np.concatenate(xs)) for key, (ks, xs) in starts.items()}
    healthy = all((np.abs(xs[:, :-1]) < v_limit).all() for _, xs in starts.values())
    # per slot key: operator, cycles, starts, starts shifted by the reference
    slots: dict[SlotKey, tuple[PhaseOperator, np.ndarray, np.ndarray, np.ndarray]] = {}
    with np.errstate(**({} if healthy else quiet)):
        for key, (ks, xs) in starts.items():
            phase = key[0]
            dt = step(phase)
            op = PhaseOperator(phase.system, dt, phase.n_steps, maps[phase.system, dt], xs[0, :-1],
                               peak_rows, v_limit)
            slots[key] = (op, ks, xs, xs - op.ref)
        compile_operators(op for op, _, _, _ in slots.values())
        # one guard product per slot; (cycle, step offset, operator, shifted
        # start) of each start past the bound
        flagged = []
        for (_, offset, _), (op, ks, _, zs) in slots.items():
            ok = op.guard(zs)
            if not ok.all():
                flagged += [(ks[i], offset, op, zs[i]) for i in np.flatnonzero(~ok).tolist()]
    for k, _, op, zp in sorted(flagged, key=lambda f: f[:2]):
        op.check(zp, k)

    samples = np.full(n_cycles, np.nan)
    e_start, e_end = np.empty(n_cycles), np.empty(n_cycles)
    if stride:
        times = np.empty((n_cycles, -(-lengths.pop() // stride)))
        states = np.empty((*times.shape, x0.size))
    for ((start, end, n_steps, system), offset, last), (op, ks, xs, zs) in slots.items():
        op.book(ledger, ks, zs)
        if offset == 0:
            e_start[ks] = system.stored_energy(xs)
        if last:
            e_end[ks] = system.stored_energy(xs @ ends[system, op.dt, n_steps].T)
        if start <= SAMPLE_FRAC < end:
            idx = min(max(int(round((SAMPLE_FRAC - start) * t_cycle / op.dt)), 0), n_steps)
            samples[ks] = zs @ op.row(op.dim - 1, idx) + op.ref[op.dim - 1]
        if stride:   # the phase's steps on the cycle's sampling grid
            first = -offset % stride
            sampled = np.arange(first, n_steps, stride)
            at = slice((offset + first) // stride, (offset + first) // stride + sampled.size)
            times[ks, at] = (ks * t_cycle + start * t_cycle)[:, None] + op.dt * sampled
            edges = _chunks(ks.size, op.blocks.shape[0])
            for a, b in zip(edges, edges[1:]):
                states[ks[a:b], at] = op.states(zs[a:b], sampled)
        op.keep_search_only()

    ledger.reconfig[1:] += e_start[1:] - e_end[:-1]
    ledger.e_stored_first = float(e_start[0])
    ledger.e_stored_last = float(e_end[-1])

    search = PeakSearch(n_cycles, len(peak_rows), [(op, ks, zs) for op, ks, _, zs in slots.values()])
    return search, samples, (times, states) if stride else None


def _periods(keys: np.ndarray) -> list[tuple[int, int, int]]:
    """Pass 1's order of work: (k, p, count) runs cycles k .. k + count - 1
    as one batch repeating their first p cycles, and (k, 1, 1) runs cycle
    k alone.  Cycles match when their keys are equal: ``CycleOrder``
    passes each cycle's kind index.  From cycle k the candidate period p
    is the distance to its next match; a block is the longest run of
    cycles from k that repeats with period p, and needs two whole periods.
    A stream shorter than two of its periods therefore runs cycle by
    cycle."""
    n = keys.size
    by_key = np.argsort(keys, kind="stable")
    same = keys[by_key[1:]] == keys[by_key[:-1]]
    nxt = np.full(n, 2 * n)   # the next match of each cycle (2n: none)
    nxt[by_key[:-1][same]] = by_key[1:][same]
    nxt, ids = nxt.tolist(), keys.tolist()
    out: list[tuple[int, int, int]] = []
    k = 0
    while k < n:
        p = nxt[k] - k
        # cycles k .. k + size - 1 repeat with period p
        size = p + _agreeing(ids, k + p, k, n - k - p) if k + 2 * p <= n else 0
        if size < 2 * p:
            p = size = 1   # a lone cycle
        out.append((k, p, size))
        k += size
    return out


def _agreeing(ids: list, a: int, b: int, length: int) -> int:
    """How many of ids[a:a + length] equal ids[b:b + length] before the
    first that differs.  Compared in slices that double from one, so it
    costs O(that count), not O(length)."""
    i, chunk = 0, 1
    while i < length:
        j = min(i + chunk, length)
        if ids[a + i:a + j] != ids[b + i:b + j]:
            return i + next(m for m in range(j - i) if ids[a + i + m] != ids[b + i + m])
        i, chunk = j, 2 * chunk
    return length


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D array (integers, or rows viewed as
    bytes) in order of first appearance: where each first appears, and
    each entry's index into them; one ``np.unique`` call."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = first.argsort()
    return first[order], order.argsort()[inverse]


def _run_batch(period: list[tuple[np.ndarray | None, list[tuple[SlotKey, np.ndarray]]]],
               x: np.ndarray, k0: int, count: int,
               starts: dict[SlotKey, tuple[list[int], list[np.ndarray]]]) -> np.ndarray:
    """Pass 1 for cycles k0 .. k0 + count - 1 at once, from state x = [x; 1]:
    they repeat ``period``, p cycles, each an entry map (or None) and its
    slot keys, each with its phase's end map.  Records the start [x; 1] of
    each of their phases in ``starts`` under its slot key, and returns the
    last cycle's end state.  A lone cycle is a period of one, with count 1.

    With more than one period start, the entry maps and end maps compose
    into the period map P, so the period starts follow by doubling; a
    trailing partial period rides along as one more start.  Each (cycle in
    the period, phase) then takes one stacked product.  Nothing is guarded
    here: past a divergence the starts may overflow, which ``run_cycles``
    lets pass silently until its guard names the divergence.
    """
    p = len(period)
    m, q = divmod(count, p)   # whole periods, cycles of the partial one
    n_starts = m + (q > 0)
    x = x[None]   # the period starts
    if n_starts > 1:   # the period map
        c = _eye(x.shape[1])
        for entry, phases in period:
            c = c if entry is None else entry @ c
            for _, end in phases:
                c = end @ c
        while len(x) < n_starts:   # by doubling
            x = np.concatenate([x, x[:n_starts - len(x)] @ c.T])
            c = c @ c
    for i, (entry, phases) in enumerate(period):
        if i == q > 0:   # the partial period ends here
            last, x = x[-1], x[:-1]
        if entry is not None:
            x = x @ entry.T
        for key, end in phases:
            ks, xs = starts.setdefault(key, ([], []))
            ks.extend(range(k0 + i, k0 + i + p * len(x), p))
            xs.append(x)
            x = x @ end.T
    return last if q else x[-1]
