"""Switched linear transient engine with exact energy accounting.

Within one switch phase the circuit is linear time invariant, so a cycle
is integrated as a handful of constant (A, b) systems advanced with the
implicit trapezoidal rule.  The step map is affine, so every state of a
phase is affine in the phase's start state, and every quantity a run
keeps is a closed form in it: a *phase operator* holds those forms.

A run (``run_cycles``) builds the step maps of its distinct (phase
system, step size) pairs, stacked, and takes two passes over phase slots
(a phase at its place in a cycle), each of which owns one operator.
Pass 1 carries each cycle's start state through the phases' end maps and
records the state in each slot it passes: a repeated block of cycles
goes as one batch, from powers of its period map.  Then the operators
are compiled, stacked: their block powers, guard and peak bounds, and
their accounts from their systems' storage, loss and source terms (a
source account is linear in the start state, a loss account a sum of
squares: trapezoidal quadrature on the step grid, summed in closed form
by doubling).  Each slot guards the starts it recorded against
divergence with one product, a bound on every state of the phase at
once.  Pass 2, per slot and for all the cycles that ran it, books the
accounts and the stored energy at the cycles' ends and finds the exact
peaks (chord-bounded), the decision sample and the trace samples.  The
stored-energy jumps caused by switch reconfiguration (node capacitances
change when gates open or close) are booked as well, and the
conservation residual is exposed as an audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .model import (
    CircuitConfig,
    bypass_resistance,
    lc_series_resistance,
    reset_resistance,
    tg_resistance,
)


class SimulationError(RuntimeError):
    """Raised when the transient leaves its validity envelope."""


class FitError(RuntimeError):
    """Raised when a trace segment cannot be fit as a damped oscillation."""


@dataclass(frozen=True)
class SwitchState:
    """Positions of every switch during one phase."""

    bypass_on: bool
    reset_on: bool
    synapse_on: tuple[bool, ...]


# One cycle of schedule: (start_frac, end_frac, SwitchState) segments that
# partition [0, 1) in cycle-relative time.
Segment = tuple[float, float, SwitchState]
CyclePlan = Sequence[Segment]


@dataclass(frozen=True)
class BranchGroup:
    """Branches sharing one weight value, lumped into a single series RC
    leg onto the membrane."""

    r: float         # lumped resistance, per-branch resistance / count
    c: float         # lumped capacitance, count * per-branch capacitance


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
    (``PhaseOperator``).  ``groups`` are the lumped branch legs, in the
    order of their top-plate states.  Systems compare and hash by identity,
    so a run's phases can key its operators.
    """

    a: np.ndarray
    b: np.ndarray
    groups: tuple[BranchGroup, ...]
    stores: tuple[Store, ...]
    losses: tuple[Loss, ...]
    sources: tuple[Source, ...]

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


def build_phase_system(cfg: CircuitConfig, sw: SwitchState) -> PhaseSystem:
    """Assemble (A, b) and the elements for one switch phase.

    State layout: [I_L, V_PC, V_s per group..., V_m]; with no enabled
    synapse this is the reduced 3-state system [I_L, V_PC, V_m].

    Topology: the DC source feeds the inductor into the clock node, which
    carries the tank capacitor and the plate/shunt parasitics of every
    disabled gate; the bypass switch adds a conductance to ground when on;
    enabled synapses form parallel RC legs to the membrane (equal weights
    lump into one leg of r_tg/n and n*c_s); the membrane carries the
    divider capacitor, wiring parasitics and the enabled gates' output
    parasitics; the reset switch ties the membrane to V_REF when on.
    """
    tree, pc, env = cfg.tree, cfg.pc, cfg.env
    if len(sw.synapse_on) != tree.n:
        raise ValueError(f"switch state has {len(sw.synapse_on)} synapse bits, tree has {tree.n}")

    active = [i for i, on in enumerate(sw.synapse_on) if on]
    n_on = len(active)
    n_off = tree.n - n_on

    r_tg = tg_resistance(tree, env)
    groups = []
    for c_val in sorted({tree.c_s[i] for i in active}):
        count = sum(1 for i in active if tree.c_s[i] == c_val)
        groups.append(BranchGroup(r=r_tg / count, c=count * c_val))
    groups = tuple(groups)

    c_pc = pc.c_e + n_off * (tree.c_pl_off + tree.c_sh) + n_on * tree.c_pl_on
    c_m = tree.c_d + tree.c_par + n_on * tree.c_pr
    g_pc = 1.0 / bypass_resistance(pc.w_n, env) if sw.bypass_on else 0.0
    g_reset = 1.0 / reset_resistance(tree, env) if sw.reset_on else 0.0
    r_lc = lc_series_resistance(cfg)

    n_g = len(groups)
    dim = 3 + n_g
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
    for j, g in enumerate(groups):
        a[1, 1] -= (1.0 / g.r) / c_pc
        a[1, 2 + j] = (1.0 / g.r) / c_pc

    # membrane: C_m dV/dt = sum_g (V_PC - V_sg)/r_g - g_reset (V_m - V_REF)
    a[im, im] = -g_reset / c_m
    b[im] = g_reset * tree.v_ref / c_m
    for j, g in enumerate(groups):
        a[im, 1] += (1.0 / g.r) / c_m
        a[im, 2 + j] -= (1.0 / g.r) / c_m

    # group top plates: series-leg current balance gives
    # dV_sg/dt = dV_m/dt + (V_PC - V_sg)/(r_g c_g)
    for j, g in enumerate(groups):
        a[2 + j, :] = a[im, :]
        b[2 + j] = b[im]
        a[2 + j, 1] += 1.0 / (g.r * g.c)
        a[2 + j, 2 + j] -= 1.0 / (g.r * g.c)

    stores = (Store(pc.l_pc, 0), Store(c_pc, 1), Store(c_m, im),
              *(Store(g.c, 2 + j, im) for j, g in enumerate(groups)))
    losses = [Loss("r_tg", 1.0 / g.r, 1, 2 + j) for j, g in enumerate(groups)]
    sources = [Source("source_dc", pc.v_dc, 0)]
    if r_lc > 0.0:
        losses.append(Loss("r_lc", r_lc, 0))   # series coil: R_lc I_L^2
    if g_pc > 0.0:
        losses.append(Loss("r_pc", g_pc, 1))
    if g_reset > 0.0:
        loss, source = reset_terms(g_reset, tree.v_ref, im)
        losses.append(loss)
        sources.append(source)
    return PhaseSystem(a=a, b=b, groups=groups, stores=stores,
                       losses=tuple(losses), sources=tuple(sources))


def step_maps(a: np.ndarray, b: np.ndarray, dt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (E, f) of one implicit trapezoidal step of size dt:
    (I - dt/2 A) x' = (I + dt/2 A) x + dt b.  Broadcasts over a stack of
    systems, a (P, d, d) and b (P, d), with one dt each."""
    dt = np.asarray(dt)
    eye = np.eye(a.shape[-1])
    lhs = eye - 0.5 * dt[..., None, None] * a
    e = np.linalg.solve(lhs, eye + 0.5 * dt[..., None, None] * a)
    f = np.linalg.solve(lhs, (dt[..., None] * b)[..., None])[..., 0]
    return e, f


def _build_maps(pairs: Iterable[tuple[PhaseSystem, float]]) -> dict[tuple[PhaseSystem, float],
                                                                    tuple[np.ndarray, np.ndarray]]:
    """Step maps of the distinct (system, dt) pairs, one stacked
    ``step_maps`` call per state dimension."""
    pairs = list(dict.fromkeys(pairs))
    maps = {}
    for dim in dict.fromkeys(system.dim for system, _ in pairs):
        group = [(system, dt) for system, dt in pairs if system.dim == dim]
        e, f = step_maps(np.stack([s.a for s, _ in group]), np.stack([s.b for s, _ in group]),
                         np.array([dt for _, dt in group]))
        maps.update(zip(group, zip(e, f)))
    return maps


# Steps per block of a phase operator: step k = bB + m of a phase is
# G^m G^(bB) z, from a table of B powers and one power per block.
_BLOCK = 32
# Cycles x blocks per pass-2 chunk of the peak search and the sampled
# states: bounds their per-block temporaries, whatever a slot's length.
_CHUNK_BLOCKS = 8192
_CHORD = np.arange(_BLOCK + 1)[:, None, None] / _BLOCK   # m / B at the steps m <= B of a block
# Entries (operators x B x peak rows x blocks x (d + 1)) per compile stack
# of the chord deviation product: bounds its temporary, 2 MB, however
# many operators share a state dimension and step count.
_STACK_ENTRIES = 1 << 18


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base^0 .. base^(count-1) of a matrix, or of each matrix of a stack
    (P, d, d), on a new axis before the matrix axes: (count, d, d) or
    (P, count, d, d).  One product per matrix and doubling: the powers
    known so far, stacked as the rows of one operand, times base^s."""
    d = base.shape[-1]
    out = np.empty((*base.shape[:-2], count * d, d))
    out[..., :d, :] = np.eye(d)
    s = 1
    while s < count:
        take = min(s, count - s)
        np.matmul(out[..., :take * d, :], base, out=out[..., s * d:(s + take) * d, :])
        s += take
        if s < count:
            base = base @ base
    return out.reshape(*base.shape[:-2], count, d, d)


def _end_power(g: np.ndarray, n: int) -> np.ndarray:
    """G^n as the compiled tables give it, G^(n mod B) @ (G^B)^(n // B):
    each factor the product of the squarings G^(2^i) over the set bits i
    of its exponent, lowest first, which is how ``_powers`` forms them.
    (``dot``: the same product as ``@``, with less overhead per call.)"""
    parts = [np.eye(g.shape[-1])] * 2   # bits below B, and from B on
    for i in range(n.bit_length()):
        if i:
            g = g.dot(g)
        if n >> i & 1:
            part = i >= _BLOCK.bit_length() - 1
            parts[part] = parts[part].dot(g)
    return parts[0].dot(parts[1])


def _stein_sums(g: np.ndarray, forms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{k<n} (G^k)^T Q G^k for a stack of maps G, forms Q and step
    counts n, by doubling over the bits of the largest n: O(log n) stacked
    products and no n-sized arrays (the trapezoid analogue of Van Loan's
    block-exponential integrals, in the manner of squared Smith iteration).
    A zero bit of n steps by I and adds no form: sum and power stay exact."""
    on = (ns[None, :] >> np.arange(int(ns.max()).bit_length())[::-1, None]) & 1 == 1
    eye = np.eye(g.shape[-1])
    steps = np.where(on[:, :, None, None], g, eye)        # per bit: G, or I where it is zero
    fronts = np.where(on[:, :, None, None], forms, 0.0)   # per bit: the form one more step adds
    w = np.zeros_like(forms)
    p = np.broadcast_to(eye, g.shape)   # G^(terms summed so far)
    for step, front in zip(steps, fronts):
        w = w + np.swapaxes(p, 1, 2) @ w @ p
        p = p @ p
        w = front + np.swapaxes(step, 1, 2) @ w @ step
        p = p @ step
    return w


class PhaseOperator:
    """Closed form of ``n`` trapezoidal steps of size ``dt`` of one phase
    system.

    Every state of the phase is affine in its start state.  In augmented
    coordinates shifted to a reference start state x_ref, z = [x0 - x_ref; 1]
    and step k is x_k = x_ref + (G^k z)[:d], with G the shifted augmented
    step map.  Every source account of the phase is then linear in z and
    every loss account a quadratic form, a sum of squares of a factor.  G^k
    is evaluated as G^m G^(bB) for k = bB + m, from the block table G^m
    (m < B) and the block-start powers G^(bB); the n states are never
    stored.

    It is built from the step map ``maps`` = (E, f) of size dt and holds G
    and the end map, all that pass 1 needs.  ``compile_operators`` adds the
    rest: the block table and starts, the divergence guard's bound, per
    peak row bounds on how far the row rises above each block's chord
    (second order in B), which make the peak search exact, and the
    accounts.
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
        g[:d, d] = (e - np.eye(d)) @ x_ref + f
        g[d, d] = 1.0
        self.system, self.dt, self.n, self.dim = system, dt, n, d
        self.peak_rows = tuple(r % d for r in peak_rows)
        self.v_limit = v_limit
        self.ref = np.append(x_ref, 0.0)   # z = [x; 1] - ref
        self._g = g
        # [x_end; 1] = end @ z
        self.end = _end_power(g, n)
        self.end[:d, d] += x_ref

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
        at_blocks = zs @ np.swapaxes(self.blocks[:-1], 1, 2)   # (blocks, starts, d + 1)
        xs = at_blocks[blk] @ np.swapaxes(self.table[m, :self.dim], 1, 2)
        return np.swapaxes(xs, 0, 1) + self.ref[:self.dim]

    def peak(self, zs: np.ndarray, i: int) -> np.ndarray:
        """Maximum of state ``peak_rows[i]`` over every step of the phase, for
        each shifted start state in zs.

        The block-start values give a lower bound on the maximum; only the
        blocks whose higher end value plus deviation bound above their
        chord reaches it are evaluated step by step."""
        r = self.peak_rows[i]
        coarse = zs @ self.blocks[:, r].T
        best = coarse[:, :-1].max(1)   # real block starts only
        ends = np.maximum(coarse[:, :-1], coarse[:, 1:])
        ci, bi = np.nonzero(ends + np.abs(zs) @ self.deviation[i].T >= best[:, None])
        vals = (self.blocks[bi] @ zs[ci, :, None])[:, :, 0] @ self.table[:, r].T
        vals[bi == self.blocks.shape[0] - 2, self.n % _BLOCK + 1:] = -np.inf   # past the end
        top = np.maximum.reduceat(vals.max(1), np.searchsorted(ci, np.arange(len(zs))))
        return np.maximum(best, top) + self.ref[r]

    def book(self, ledger: EnergyLedger, ks: np.ndarray, zs: np.ndarray) -> None:
        """Add the phase's accounts from shifted start states zs to cycles ks
        (each cycle at most once)."""
        for account, a, loss in self.accounts:
            getattr(ledger, account)[ks] += np.square(zs @ a.T).sum(1) if loss else zs @ a


def compile_operators(ops: Iterable[PhaseOperator]) -> None:
    """Complete phase operators built in pass 1 for the guard and pass 2,
    stacked: per state dimension, step count and peak rows one ``_powers``
    call for the block tables, one for the block starts and one deviation
    product (``_compile_powers``), in stacks of at most ``_STACK_ENTRIES``
    deviation entries (one operator at least); per state dimension the
    accounts, one Stein doubling and one ``eigh`` call
    (``_compile_accounts``).  A lone operator is a stack of one."""
    shapes: dict[tuple[int, int, tuple[int, ...]], list[PhaseOperator]] = {}
    dims: dict[int, list[PhaseOperator]] = {}
    for op in ops:
        shapes.setdefault((op.dim, op.n, op.peak_rows), []).append(op)
        dims.setdefault(op.dim, []).append(op)
    for (d, n, rows), group in shapes.items():
        size = max(1, _STACK_ENTRIES // (_BLOCK * len(rows) * (n // _BLOCK + 1) * (d + 1)))
        for c in range(0, len(group), size):
            _compile_powers(group[c:c + size])
    for group in dims.values():
        _compile_accounts(group)


def _compile_powers(group: list[PhaseOperator]) -> None:
    """The block table, block starts, guard bound and chord deviation
    bounds of operators of one state dimension, step count and peak rows."""
    d, n, rows = group[0].dim, group[0].n, np.array(group[0].peak_rows)
    powers = _powers(np.stack([op._g for op in group]), _BLOCK + 1)   # (operators, B + 1, d + 1, d + 1)
    # block starts G^(bB) for b <= n // B, and the last block's chord end
    blocks = _powers(powers[:, _BLOCK], n // _BLOCK + 2)
    # |x_k - x_ref| <= bound @ |z| for every step k <= n; scaled by the
    # room each state has to the limit and maximised over the states, a
    # start passes when guard @ |z| < 1 (NaN fails, as does every start
    # if x_ref is at the limit)
    bound = np.abs(powers[:, :_BLOCK, :d]).max(1) @ np.abs(blocks[:, :-1]).max(1)
    room = np.array([op.v_limit for op in group])[:, None] - np.abs([op.ref[:d] for op in group])
    guards = (bound / np.where(room > 0, room, np.nan)[:, :, None]).max(1)
    # per peak row, (blocks, d + 1): max over the block's steps m of
    # |D_m G^(bB)|, D_m = (G^m - I - m/B (G^B - I))[r], so the row rises
    # at most that @ |z| above the chord between its block's two end
    # values (steps past the end of the last block left out)
    step = powers[:, :, rows]                        # (operators, B + 1, rows, d + 1)
    step[:, :, np.arange(rows.size), rows] -= 1.0
    step -= _CHORD * step[:, _BLOCK, None]
    by_column = blocks[:, :-1].transpose(0, 2, 1, 3).reshape(len(group), d + 1, -1)
    dev = (step[:, :_BLOCK].reshape(len(group), -1, d + 1) @ by_column).reshape(
        len(group), _BLOCK, rows.size, -1, d + 1)
    dev[:, n % _BLOCK + 1:, :, -1] = 0.0
    deviation = np.maximum(dev.max(1), -dev.min(1))
    for op, table, starts, guard, chord in zip(group, powers, blocks, guards, deviation):
        op.table, op.blocks, op._guard, op.deviation = table[:_BLOCK], starts, guard, chord


def _compile_accounts(group: list[PhaseOperator]) -> None:
    """Each operator's accounts, (account, array, is a loss), each a
    trapezoid sum over the phase: a loss as factors F (loss = |F z|^2), a
    source as a row s (energy = s @ z); for operators of one dimension."""
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
    x = np.stack([op.ref for op in group])
    # a term's c, with c @ z = x_i - x_j + u (j = d, the affine entry, for a
    # term to ground: its -1 is overwritten); a loss term's form is g c^T c,
    # a source term's p e^T c for e the affine unit row: G keeps the affine
    # entry, so that form sums to e^T S, S the sum of the source's row
    eye = np.eye(d + 1)
    c = eye[i] - eye[j]
    c[:, d] = x[o, i] - x[o, j] + u
    left = np.where((form < n_loss)[:, None], c, eye[d])
    forms = np.zeros((len(accounts), d + 1, d + 1))
    np.add.at(forms, form, k[:, None, None] * (left[:, :, None] * c[:, None, :]))

    # trapezoid rule: step k contributes the mean of its two end points
    owner = np.array([o for _, o in accounts], dtype=int)
    g = np.stack([op._g for op in group])[owner]
    w = _stein_sums(g, 0.5 * (forms + np.swapaxes(g, 1, 2) @ forms @ g),
                    np.array([op.n for op in group])[owner])
    dt = np.array([op.dt for op in group])[owner]
    rows = dt[n_loss:, None] * w[n_loss:, d]
    # sum-of-squares factors, so every loss is non-negative: eigenvectors
    # of each form's correlation matrix (diagonal scaled to one, which
    # keeps the eigensolver's error relative to each coordinate's own
    # scale); correlations past +-1 and negative diagonals are round-off
    # of a zero and are clipped
    w = w[:n_loss]
    scale = np.sqrt(np.clip(np.einsum("aii->ai", w), 0.0, None))
    outer = scale[:, :, None] * scale[:, None, :]
    corr = np.clip(np.divide(w, outer, out=np.zeros_like(w), where=outer > 0.0), -1.0, 1.0)
    lam, vec = np.linalg.eigh(corr)
    factors = (np.sqrt(dt[:n_loss, None] * np.clip(lam, 0.0, None))[:, :, None]
               * np.swapaxes(vec, 1, 2) * scale[:, None, :])
    for op in group:
        op.accounts = []
    for f, ((name, o), a) in enumerate(zip(accounts, [*factors, *rows])):
        group[o].accounts.append((name, a, f < n_loss))


# In-cycle instant, as a fraction of the cycle, at which both designs
# sample the membrane for the decision: mid-cycle, at the clock crest.
SAMPLE_FRAC = 0.5


class CycleStats(NamedTuple):
    """Per-cycle observables, one entry per cycle; the energies are in the ledger."""

    v_pk: np.ndarray         # clock-node peak
    v_m_peak: np.ndarray     # membrane peak
    v_m_sample: np.ndarray   # membrane at the decision sampling instant


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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV data file: the header, then one line per row.  Float
    cells, numpy scalars included, are written as ``repr(float(v))`` so
    they read back exactly; any other cell as ``str(v)``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


@dataclass
class Trace:
    """Sampled run history plus per-cycle observables.

    Sample times are strictly increasing but not necessarily uniform: the
    integrator spends a denser sub-grid on the short bypass window.  V_s is
    the capacitance-weighted aggregate of the enabled top plates, held at
    its last value while every gate is open.
    """

    t: np.ndarray
    i_l: np.ndarray
    v_pc: np.ndarray
    v_s: np.ndarray
    v_m: np.ndarray
    stats: CycleStats

    def to_csv(self, path: str) -> None:
        write_csv(path, ("t", "I_L", "V_PC", "V_s", "V_m"),
                  zip(self.t, self.i_l, self.v_pc, self.v_s, self.v_m))


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


class Phase(NamedTuple):
    """One uniform sub-grid of a cycle: ``n_steps`` steps of ``system``
    over [start, end) in cycle fractions."""

    start: float
    end: float
    n_steps: int
    system: PhaseSystem


# A phase slot's key: (phase, step offset in its cycle, ends the cycle).
SlotKey = tuple[Phase, int, bool]


def run_cycles(
    ledger: EnergyLedger,
    kinds: Sequence[tuple[np.ndarray | None, Sequence[Phase]]],
    kind_of: np.ndarray,
    x0: np.ndarray,
    t_cycle: float,
    v_limit: float,
    peak_rows: tuple[int, ...],
    stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Run both designs' cycles from state x0 and book them into the ledger.

    ``kinds`` holds the run's distinct cycles and ``kind_of`` each cycle's
    index into them.  A kind is ``(entry, phases)``: ``entry`` maps the
    previous cycle's end state ``[x; 1]`` to this cycle's augmented start
    state (None keeps the state), then the phases run in order.  The step
    maps of the kinds' distinct (system, dt) pairs are built first, one
    stacked call per state dimension.  Each slot, a phase at its step
    offset in its cycle (and whether it ends the cycle), owns one
    ``PhaseOperator``, built at the slot's first start state.

    Pass 1 carries each cycle's start state through the end maps of its
    phases and records each phase's shifted start in its slot, the one
    record of the pass.  It goes in the order of ``_periods`` on
    ``kind_of``, one ``_run_batch`` per item: a cycle in no repeated block
    and each cycle of a block's first period go alone, as a period of one,
    and the rest of a block as one batch.  It runs unguarded, with numpy's
    overflow and invalid-value warnings off, for past a divergence the
    states may overflow.  Then all the slots' operators are compiled at once
    (``compile_operators``), and each slot guards its stacked starts with
    one product (|x| < v_limit for every state of the phase; a NaN trips
    it too).  Only the starts the bound fails are checked state by state,
    in cycle-then-phase order, so a divergence raises the cycle and peak
    that per-step propagation would name, before any overflow is read.
    Pass 2 then works per slot on the stacked start states of every cycle
    that ran it: the ledger accounts, the stored energy at the cycles'
    start (first slots) and end (last slots), whose jumps from one cycle
    to the next are booked as ``reconfig``, the per-cycle maxima of the
    states ``peak_rows`` (in even chunks of at most about ``_CHUNK_BLOCKS``
    cycles x blocks), the membrane (last state) at ``SAMPLE_FRAC`` (nearest
    step) and, with a ``stride``, the states at every stride-th step of the
    concatenated cycle.

    All phases of a cycle share its state layout.  Returns the maxima
    (cycles x peak rows), the decision samples and the per-cycle sampled
    states (None without a stride).
    """
    n_cycles = kind_of.size
    # per kind, its entry and slot keys
    kind_slots = [(entry, [(phase, sum(q.n_steps for q in phases[:j]), j == len(phases) - 1)
                           for j, phase in enumerate(phases)]) for entry, phases in kinds]
    maps = _build_maps((system, (end - start) * t_cycle / n_steps)
                       for _, phases in kinds for start, end, n_steps, system in phases)

    def operator(key: SlotKey, x: np.ndarray) -> PhaseOperator:
        start, end, n_steps, system = key[0]
        dt = (end - start) * t_cycle / n_steps
        return PhaseOperator(system, dt, n_steps, maps[system, dt], x, peak_rows, v_limit)

    # per slot key: operator, cycles, stacks of shifted starts
    slots: dict[SlotKey, tuple[PhaseOperator, list[int], list[np.ndarray]]] = {}
    z = np.append(x0, 1.0)
    kind_at = kind_of.tolist()
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        for k, p, count in _periods(kind_of):
            # the period from cycle k: a batch's equals the p cycles before it
            period = [kind_slots[i] for i in kind_at[k:k + max(p, 1)]]
            z = _run_batch(period, z, k, count, slots, operator)

    slots = {key: (op, np.array(ks), np.concatenate(zs)) for key, (op, ks, zs) in slots.items()}
    # a start past the limit (or NaN; an operator's reference is a start
    # too) dooms the run and may overflow the compile and guard, so it
    # quiets them as well; a healthy run's warn
    healthy = all((np.abs(zs[:, :op.dim] + op.ref[:op.dim]) < op.v_limit).all()
                  for op, _, zs in slots.values())
    with np.errstate(**({} if healthy else quiet)):
        compile_operators(op for op, _, _ in slots.values())
        # one guard product per slot; (cycle, step offset, operator, shifted
        # start) of each start past the bound
        flagged = []
        for (_, offset, _), (op, ks, zs) in slots.items():
            ok = op.guard(zs)
            if not ok.all():
                flagged += [(ks[i], offset, op, zs[i]) for i in np.flatnonzero(~ok).tolist()]
    for k, _, op, zp in sorted(flagged, key=lambda f: f[:2]):
        op.check(zp, k)

    peaks = np.full((n_cycles, len(peak_rows)), -np.inf)
    samples = np.full(n_cycles, np.nan)
    e_start, e_end = np.empty(n_cycles), np.empty(n_cycles)
    states: list[np.ndarray] = []
    if stride:
        shapes = [(-(-sum(p.n_steps for p in phases) // stride), phases[0].system.dim)
                  for _, phases in kinds]
        states = [np.empty(shapes[i]) for i in kind_at]
    for ((start, end, n_steps, system), offset, ends), (op, ks, zs) in slots.items():
        op.book(ledger, ks, zs)
        if offset == 0:
            e_start[ks] = system.stored_energy(zs + op.ref)
        if ends:
            e_end[ks] = system.stored_energy(zs @ op.end.T)
        if start <= SAMPLE_FRAC < end:
            idx = min(max(int(round((SAMPLE_FRAC - start) * t_cycle / op.dt)), 0), n_steps)
            samples[ks] = zs @ op.row(op.dim - 1, idx) + op.ref[op.dim - 1]
        if stride:   # the phase's steps on the cycle's sampling grid
            first = -offset % stride
            sampled = np.arange(first, n_steps, stride)
            rows_at = slice((offset + first) // stride, (offset + first) // stride + sampled.size)
        # even chunks: a slot splits the same way whatever its tail
        n_chunks = -(-ks.size * op.blocks.shape[0] // _CHUNK_BLOCKS)
        edges = [c * ks.size // n_chunks for c in range(n_chunks + 1)]
        for a, b in zip(edges, edges[1:]):
            kc, zc = ks[a:b], zs[a:b]
            for i in range(len(peak_rows)):
                peaks[kc, i] = np.maximum(peaks[kc, i], op.peak(zc, i))
            if stride:
                for k, xs in zip(kc.tolist(), op.states(zc, sampled)):
                    states[k][rows_at] = xs

    ledger.reconfig[1:] += e_start[1:] - e_end[:-1]
    ledger.e_stored_first = float(e_start[0])
    ledger.e_stored_last = float(e_end[-1])

    return peaks, samples, states if stride else None


def _periods(keys: np.ndarray) -> list[tuple[int, int, int]]:
    """Pass 1's order of work: (k, 0, 1) runs cycle k alone, (k, p, count)
    runs cycles k .. k + count - 1 as one batch repeating the p before k
    (count >= p).  Cycles match when their keys are equal: ``run_cycles``
    passes each cycle's kind index.  From cycle k the candidate period p
    is the distance to its next match; a block needs one whole period
    matched, then extends by doubling, and its first period is split the
    same way."""
    n = keys.size
    by_key = np.argsort(keys, kind="stable")
    same = keys[by_key[1:]] == keys[by_key[:-1]]
    nxt = np.full(n, 2 * n)   # the next match of each cycle (2n: none)
    nxt[by_key[:-1][same]] = by_key[1:][same]
    out: list[tuple[int, int, int]] = []
    _split(0, n, nxt.tolist(), keys.tolist(), out)
    return out


def _split(k: int, stop: int, nxt: list[int], ids: list[int],
           out: list[tuple[int, int, int]]) -> None:
    """``_periods`` for cycles k .. stop - 1, into ``out``.  Not a closure:
    one that calls itself is a reference cycle, freed only by the gc."""
    while k < stop:
        p = nxt[k] - k
        size = 2 * p   # cycles k .. k + size - 1 repeat with period p
        if k + size > stop or ids[k + p:k + size] != ids[k:k + p]:
            out.append((k, 0, 1))
            k += 1
            continue
        while k + size < stop:
            take = min(size, stop - k - size)
            if ids[k + size:k + size + take] != ids[k:k + take]:
                size += next(i for i, (a, b) in enumerate(zip(ids[k + size:], ids[k:])) if a != b)
                break
            size += take
        _split(k, k + p, nxt, ids, out)
        out.append((k + p, p, size - p))
        k += size


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array in order of first appearance:
    where each first appears, and each entry's index into them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _run_batch(period: list[tuple[np.ndarray | None, list[SlotKey]]], z: np.ndarray,
               k0: int, count: int,
               slots: dict[SlotKey, tuple[PhaseOperator, list[int], list[np.ndarray]]],
               operator: Callable[[SlotKey, np.ndarray], PhaseOperator]) -> np.ndarray:
    """Pass 1 for cycles k0 .. k0 + count - 1 at once, from state z: they
    repeat ``period``, p cycles, each an entry map (or None) and its slot
    keys.  Records their shifted starts in ``slots`` (a new slot gets
    ``operator(key, x)``, built at its first start x) and returns the last
    cycle's end state.  A lone cycle is a period of one, with count 1.

    With more than one period start, the entry maps and the end maps, each
    phase's shift folded in, compose into the period map P, so the period
    starts follow by doubling; a trailing partial period rides along as
    one more start.  Each (cycle in the period, phase) then takes one
    stacked product.  Nothing is guarded here: past a divergence the
    starts may overflow, which ``run_cycles`` lets pass silently until its
    guard names the divergence.
    """
    p = len(period)
    m, q = divmod(count, p)   # whole periods, cycles of the partial one
    n_starts = m + (q > 0)
    z = z[None]   # the period starts
    if n_starts > 1:   # the period map; its slots ran in the first period
        c = np.eye(z.shape[1])
        for entry, keys in period:
            c = c if entry is None else entry @ c
            for key in keys:   # the end map, its shift folded in
                op = slots[key][0]
                fold = op.end.copy()
                fold[:, -1] -= op.end @ op.ref
                c = fold @ c
        while len(z) < n_starts:   # by doubling
            z = np.concatenate([z, z[:n_starts - len(z)] @ c.T])
            c = c @ c
    for i, (entry, keys) in enumerate(period):
        if i == q > 0:   # the partial period ends here
            end, z = z[-1], z[:-1]
        if entry is not None:
            z = z @ entry.T
        for key in keys:
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = (operator(key, z[0, :-1]), [], [])
            op, ks, starts = slot
            zp = z - op.ref
            ks.extend(range(k0 + i, k0 + i + p * len(zp), p))
            starts.append(zp)
            z = zp @ op.end.T
    return end if q else z[-1]


def _plan_phases(cfg: CircuitConfig, plan: CyclePlan,
                 systems: dict[tuple, PhaseSystem]) -> tuple[Phase, ...]:
    """Phases of one cycle plan.  Phase systems are shared through
    ``systems`` across the plans of a run, keyed by their content: the
    bypass and reset switches and the multiset of enabled weights."""
    _validate_plan(plan)
    if len({sw.synapse_on for _, _, sw in plan}) > 1:
        raise ValueError("cycle plan switches gates mid-cycle; gates change only at a cycle start")
    weights = tuple(sorted(c for c, on in zip(cfg.tree.c_s, plan[0][2].synapse_on, strict=True)
                           if on))
    phases = []
    for (start, end, sw), n_steps in zip(plan, _allocate_steps(plan, cfg.sim.steps_per_cycle)):
        key = (sw.bypass_on, sw.reset_on, weights)
        if key not in systems:
            systems[key] = build_phase_system(cfg, sw)
        phases.append(Phase(start, end, n_steps, systems[key]))
    return tuple(phases)


def _rejoin(dim_from: int, dim_to: int) -> np.ndarray:
    """Augmented entry map of a gate change: the top plates of the newly
    enabled branch set join at the clock voltage (they were parked at the
    trough when last disconnected); I_L, V_PC and V_m carry over."""
    entry = np.zeros((dim_to + 1, dim_from + 1))
    entry[0, 0] = 1.0
    entry[1:dim_to - 1, 1] = 1.0
    entry[dim_to - 1, dim_from - 1] = 1.0
    entry[dim_to, dim_from] = 1.0
    return entry


def simulate(
    cfg: CircuitConfig,
    cycles: Sequence[CyclePlan],
    keep_samples: bool = True,
) -> tuple[Trace, EnergyLedger]:
    """Run the switched linear transient over the given cycle plans.

    Initial conditions: V_PC = 0, I_L = 0, V_s = 0, V_m = V_REF.  Segment
    boundaries are honored exactly (each segment is integrated with its own
    uniform sub-grid, so no switching time is displaced).  The gates of a
    plan hold for its whole cycle.  The states carry a numerical-blowup
    guard far above any legitimate swing.

    ``cycles`` holds one plan per cycle.  Phases are built once per plan
    object (equal plans built apart share phase systems by content); drive
    toggles and entry maps are booked only where the gates change.  The
    kernel gets the run's kinds, one per distinct (plan, state size entered
    from where the gates change), and each cycle's index into them.

    Returns the sampled trace (with the per-cycle observables attached)
    and the energy ledger.  The membrane is sampled for the decision stage
    at ``SAMPLE_FRAC`` of each cycle.
    """
    n_cycles = len(cycles)
    if n_cycles == 0:
        raise ValueError("simulate: need at least one cycle plan")
    stride = cfg.sim.trace_stride
    t_pc = cfg.pc.t_pc
    v_dd = cfg.dlcc.v_dd
    # numerical-blowup guard only: legitimate off-resonance beats can ride
    # well past the supply before the bypass clamp reins them in
    v_limit = 50.0 * v_dd
    e_toggle = 0.5 * cfg.tree.c_inv * v_dd ** 2
    ledger = EnergyLedger.zeros(n_cycles)
    # persistent state between cycles: [I_L, V_PC, V_s per group..., V_m]
    x0 = np.array([0.0, 0.0, cfg.tree.v_ref])

    # per cycle its plan, by identity (``cycles`` holds each plan for the call)
    first, plan_of = first_seen(np.fromiter(map(id, cycles), np.uint64, n_cycles))
    systems: dict[tuple, PhaseSystem] = {}
    plans = [tuple(cycles[k]) for k in first.tolist()]
    plan_phases = [_plan_phases(cfg, plan, systems) for plan in plans]
    # per cycle its gate key, into ``gates``; the run starts with every gate open
    gates = {(False,) * cfg.tree.n: 0}
    gate = np.array([gates.setdefault(plan[0][2].synapse_on, len(gates)) for plan in plans])[plan_of]
    prev = np.concatenate(([0], gate[:-1]))
    changes = np.flatnonzero(gate != prev)
    # gate-driver overhead: half a full charge per toggled control line
    on = np.array(list(gates), dtype=bool)
    ledger.drive[changes] += (on[prev[changes]] != on[gate[changes]]).sum(1) * e_toggle
    # per cycle its kind: its plan and, where the gates change, the state
    # size it enters from through ``_rejoin`` (0: no entry map)
    dims = np.array([phases[0].system.dim for phases in plan_phases])
    dim_from = np.where(gate != prev, np.concatenate(([x0.size], dims[plan_of[:-1]])), 0)
    kind_first, kind_of = first_seen(plan_of * (dims.max() + 1) + dim_from)
    kinds = [(_rejoin(d, dims[p]) if d else None, plan_phases[p])
             for p, d in zip(plan_of[kind_first].tolist(), dim_from[kind_first].tolist())]

    peaks, samples, states = run_cycles(ledger, kinds, kind_of, x0, t_pc, v_limit, (1, -1),
                                        stride if keep_samples else None)
    stats = CycleStats(peaks[:, 0], peaks[:, 1], samples)

    # a cycle has steps_per_cycle steps, which the stride divides: its
    # samples are its first step and every stride-th one after
    t_all = np.empty((len(states or ()), cfg.sim.steps_per_cycle // stride))
    x_all = np.empty((*t_all.shape, 4))   # columns i_l, v_pc, v_s_agg, v_m
    v_s_hold = 0.0   # last known top-plate aggregate
    for k, (p, rows) in enumerate(zip(plan_of.tolist(), states or ())):
        states[k] = None   # each cycle's states are held once, here or in x_all
        phases = plan_phases[p]
        groups = phases[0].system.groups
        if groups:   # the gates hold all cycle
            w = np.array([g.c for g in groups])
            agg = (rows[:, 2:-1] @ w) / w.sum()
            v_s_hold = float(agg[-1])
        else:
            agg = v_s_hold
        t_all[k] = np.concatenate([
            k * t_pc + start * t_pc + (end - start) * t_pc / n_steps * np.arange(n_steps)
            for start, end, n_steps, _ in phases])[::stride]
        x = x_all[k]
        x[:, 0], x[:, 1], x[:, 2], x[:, 3] = rows[:, 0], rows[:, 1], agg, rows[:, -1]
    x_all = x_all.reshape(-1, 4)
    trace = Trace(t=t_all.ravel(), i_l=x_all[:, 0], v_pc=x_all[:, 1], v_s=x_all[:, 2],
                  v_m=x_all[:, 3], stats=stats)
    return trace, ledger


@dataclass
class DecayFit:
    """Damped-oscillation fit v(t) = v_max exp(-lam t) cos(omega t + theta) + offset."""

    v_max: float
    omega: float
    theta: float
    lam: float
    offset: float
    residual_rms: float

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)


def fit_decay(t: np.ndarray, v: np.ndarray) -> DecayFit:
    """Least-squares fit of a damped cosine to a trace segment.

    Needs at least three visible oscillation periods; raises FitError for
    segments that do not look oscillatory.
    """
    from scipy.optimize import least_squares   # deferred: most of acansim's import time

    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size != v.size or t.size < 16:
        raise FitError("fit_decay: need matching arrays with at least 16 samples")

    t0 = t[0]
    tt = t - t0
    offset0 = float(v.mean())
    d = v - offset0

    sign = np.sign(d)
    sign[sign == 0] = 1
    crossings = np.where(np.diff(sign) != 0)[0]
    if crossings.size < 6:
        raise FitError("fit_decay: segment does not look oscillatory (fewer than 3 periods)")
    # average half-period from the zero crossings
    cross_t = tt[crossings]
    half = np.diff(cross_t).mean()
    omega0 = math.pi / half

    amp0 = float(np.abs(d).max())
    if amp0 <= 0.0:
        raise FitError("fit_decay: segment is constant")

    # crude decay estimate from early/late envelope
    third = t.size // 3
    a_early = float(np.abs(d[:third]).max())
    a_late = float(np.abs(d[-third:]).max())
    span = tt[-1] - tt[third]
    lam0 = max(0.0, math.log(max(a_early, 1e-300) / max(a_late, 1e-300)) / max(span, 1e-300))

    c0 = min(1.0, max(-1.0, d[0] / amp0))
    theta0 = math.acos(c0)
    if d.size > 1 and d[1] > d[0]:
        theta0 = -theta0

    def resid(p: np.ndarray) -> np.ndarray:
        a, w, th, lam, off = p
        return a * np.exp(-lam * tt) * np.cos(w * tt + th) + off - v

    sol = least_squares(
        resid,
        x0=np.array([amp0, omega0, theta0, lam0, offset0]),
        method="lm",
        max_nfev=20000,
    )
    a, w, th, lam, off = sol.x
    if a < 0:
        a, th = -a, th + math.pi
    if w < 0:
        w, th = -w, -th
    th = math.atan2(math.sin(th), math.cos(th))
    rms = float(np.sqrt(np.mean(sol.fun ** 2)))
    if rms > 0.05 * max(abs(a), 1e-300):
        raise FitError(f"fit_decay: poor fit, residual rms {rms:.3g} vs amplitude {a:.3g}")
    # report the decay referenced to the segment start
    return DecayFit(v_max=float(a), omega=float(w), theta=float(th), lam=float(lam),
                    offset=float(off), residual_rms=rms)
