"""Switched linear transient engine with exact energy accounting.

Within one switch phase the circuit is linear time invariant, so a cycle
is integrated as a handful of constant (A, b) systems advanced with the
implicit trapezoidal rule.  The step map is affine, so every state of a
phase is affine in the phase's start state, and every quantity a run
keeps is a closed form in it: a *phase operator*, one per distinct
(phase system, step size, step count), holds those forms.

A phase system carries its elements as data (storage, loss and source
terms), from which a run compiles its operators' accounts, stacked: a source
account is linear in the start state, a loss account a sum of squares
(trapezoidal quadrature on the step grid, summed in closed form by
doubling).  A run takes two passes (``run_cycles``).  Pass 1 carries each
cycle's start state through the phases' end maps, with a divergence guard
that bounds every state of a phase at once and visits the states only when
the bound reaches the limit.  It splits the cycles into runs of repeated
cycles (same phases, state kept): a run's first cycle goes phase by
phase, the rest as one batch whose starts come from powers of the cycle
map and whose guard is one product per phase.  Pass 2 evaluates, per
phase and for all cycles that ran it together, the accounts, the exact
per-cycle peaks (block-start values plus per-block deviation bounds pick
the few blocks to search step by step, in chunks of bounded cycles x
blocks), the decision sample and the trace samples.  The stored-energy
jumps caused by switch reconfiguration (node capacitances change when
gates open or close) are booked as well, and the conservation residual
is exposed as an audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

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
    _maps: dict[float, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False)

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


def _build_maps(pairs: Iterable[tuple[PhaseSystem, float]]) -> None:
    """Step maps of the (system, dt) pairs that their system lacks, one
    stacked ``step_maps`` call per state dimension."""
    todo = [(system, dt) for system, dt in dict.fromkeys(pairs) if dt not in system._maps]
    for dim in dict.fromkeys(system.dim for system, _ in todo):
        group = [(system, dt) for system, dt in todo if system.dim == dim]
        e, f = step_maps(np.stack([s.a for s, _ in group]), np.stack([s.b for s, _ in group]),
                         np.array([dt for _, dt in group]))
        for (system, dt), *maps in zip(group, e, f):
            system._maps[dt] = tuple(maps)


# Steps per block of a phase operator: step k = bB + m of a phase is
# G^m G^(bB) z, from a table of B powers and one power per block.
_BLOCK = 32
# Cycles x blocks per pass-2 chunk of the peak search and the sampled
# states: bounds their per-block temporaries, whatever a slot's length.
_CHUNK_BLOCKS = 8192
# Entries of a chunk's deviation-bound product: small enough to stay in cache.
_DEVIATION_CHUNK = 32768


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base^0 .. base^(count-1), stacked: one batched product per doubling."""
    out = np.empty((count, *base.shape))
    out[0] = np.eye(base.shape[0])
    s = 1
    while s < count:
        take = min(s, count - s)
        out[s:s + take] = out[:take] @ base
        s += take
        if s < count:
            base = base @ base
    return out


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

    It also holds the end map and the divergence guard's bound, and
    ``compile_operators`` adds the accounts and, per peak row, bounds on how
    far it moves within each block, which make the peak search exact.
    """

    def __init__(self, system: PhaseSystem, dt: float, n: int, x_ref: np.ndarray,
                 peak_rows: tuple[int, ...], v_limit: float) -> None:
        d = system.dim
        _build_maps([(system, dt)])   # a no-op in a run, which built them all
        e, f = system._maps[dt]
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
        self.table = _powers(g, _BLOCK)
        self.blocks = _powers(self.table[_BLOCK // 2] @ self.table[_BLOCK // 2], n // _BLOCK + 1)
        # [x_end; 1] = end @ z
        self.end = self.table[n % _BLOCK] @ self.blocks[-1]
        self.end[:d, d] += x_ref
        # |x_k - x_ref| <= bound @ |z| for every step k <= n; scaled by the
        # room each state has to the limit and maximised over the states,
        # a start passes when guard @ |z| < 1 (NaN fails, as does every
        # start if x_ref is at the limit)
        bound = np.abs(self.table[:, :d]).max(0) @ np.abs(self.blocks).max(0)
        room = v_limit - np.abs(x_ref)
        self._guard = (bound / room[:, None]).max(0) if (room > 0).all() else np.full(d + 1, np.nan)

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
        at_blocks = zs @ np.swapaxes(self.blocks, 1, 2)   # (blocks, starts, d + 1)
        xs = at_blocks[blk] @ np.swapaxes(self.table[m, :self.dim], 1, 2)
        return np.swapaxes(xs, 0, 1) + self.ref[:self.dim]

    def peak(self, zs: np.ndarray, i: int) -> np.ndarray:
        """Maximum of state ``peak_rows[i]`` over every step of the phase, for
        each shifted start state in zs.

        The block-start values give a lower bound on the maximum; only the
        blocks whose start value plus deviation bound reaches it are
        evaluated step by step."""
        r = self.peak_rows[i]
        coarse = zs @ self.blocks[:, r].T
        best = coarse.max(1)
        ci, bi = np.nonzero(coarse + np.abs(zs) @ self.deviation[i].T >= best[:, None])
        vals = (self.blocks[bi] @ zs[ci, :, None])[:, :, 0] @ self.table[:, r].T
        vals[bi == self.blocks.shape[0] - 1, self.n % _BLOCK + 1:] = -np.inf   # past the end
        top = np.maximum.reduceat(vals.max(1), np.searchsorted(ci, np.arange(len(zs))))
        return np.maximum(best, top) + self.ref[r]

    def book(self, ledger: EnergyLedger, ks: np.ndarray, zs: np.ndarray) -> None:
        """Add the phase's accounts from shifted start states zs to cycles ks
        (each cycle at most once)."""
        for account, a, loss in self.accounts:
            getattr(ledger, account)[ks] += np.square(zs @ a.T).sum(1) if loss else zs @ a


def compile_operators(ops: Iterable[PhaseOperator]) -> None:
    """Compile the accounts and peak deviation bounds of phase operators,
    stacked per state dimension (and peak-row count, which a run's share):
    one Stein doubling and one ``eigh`` call for the accounts, deviation
    bounds in chunks of bounded size.  A lone operator is a batch of one."""
    groups: dict[tuple[int, int], list[PhaseOperator]] = {}
    for op in ops:
        groups.setdefault((op.dim, len(op.peak_rows)), []).append(op)
    for (d, n_rows), group in groups.items():
        _compile_accounts(group)
        group.sort(key=lambda op: -op.n)   # a chunk pads its blocks to its first one's
        per = max(1, _DEVIATION_CHUNK // (n_rows * _BLOCK * group[0].blocks.shape[0] * (d + 1)))
        for at in range(0, len(group), per):
            _compile_deviation(group[at:at + per])


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


def _compile_deviation(group: list[PhaseOperator]) -> None:
    """Per peak row, (blocks, d + 1): max over the block's steps m of
    |(G^m - I)[r] G^(bB)|, so the row moves at most that @ |z| from its
    block-start value; block powers padded with zeros to the first's count."""
    n_ops, n_rows, d1 = len(group), len(group[0].peak_rows), group[0].dim + 1
    n_blocks = [op.blocks.shape[0] for op in group]
    by_column = np.zeros((n_ops, d1, max(n_blocks) * d1))   # [G^(bB) for b] side by side
    for o, op in enumerate(group):
        by_column[o, :, :n_blocks[o] * d1] = op.blocks.transpose(1, 0, 2).reshape(d1, -1)
    ops, rows = np.arange(n_ops)[:, None], np.array([op.peak_rows for op in group])
    step = np.stack([op.table for op in group])[ops, :, rows]         # (ops, rows, B, d + 1)
    step[ops, np.arange(n_rows), :, rows] -= 1.0
    dev = (step.reshape(n_ops, -1, d1) @ by_column).reshape(n_ops, n_rows, _BLOCK, -1)
    for o, op in enumerate(group):   # past the end, in the last block
        dev[o, :, op.n % _BLOCK + 1:, (n_blocks[o] - 1) * d1:n_blocks[o] * d1] = 0.0
    dev = np.maximum(dev.max(2), -dev.min(2)).reshape(n_ops, n_rows, -1, d1)
    for o, op in enumerate(group):
        op.deviation = list(dev[o, :, :n_blocks[o]])


# In-cycle instant, as a fraction of the cycle, at which both designs
# sample the membrane for the decision: mid-cycle, at the clock crest.
SAMPLE_FRAC = 0.5


@dataclass
class CycleStats:
    """Per-cycle observables; the energies of a cycle are in the ledger."""

    v_pk: float          # clock-node peak
    v_m_peak: float      # membrane peak
    v_m_sample: float    # membrane at the decision sampling instant


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
    """Sampled run history plus per-cycle stats.

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
    cycles: list[CycleStats] = field(default_factory=list)

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


def run_cycles(
    ledger: EnergyLedger,
    cycles: Sequence[tuple[np.ndarray | None, Sequence[Phase]]],
    x0: np.ndarray,
    t_cycle: float,
    v_limit: float,
    peak_rows: tuple[int, ...],
    stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Run both designs' cycles from state x0 and book them into the ledger.

    Each cycle is ``(entry, phases)``: ``entry`` maps the previous cycle's
    end state ``[x; 1]`` to this cycle's augmented start state (None keeps
    the state), then the phases run in order.  The step maps are built
    first, stacked.  One ``PhaseOperator`` is built per distinct (system,
    dt, n_steps), at its first start state, and compiled with the others
    at the start of pass 2 (``compile_operators``).

    Pass 1 carries each cycle's start state through the end maps of its
    phases, checking every phase with the divergence guard (|x| < v_limit
    for every state; a NaN trips it too).  It goes run by run: a run is a
    cycle and the cycles after it with no entry map and the same phases
    object.  The run's first cycle goes phase by phase; the others go as
    one batch (``_run_batch``), guarded by one product per phase.  Pass 2
    then works per phase slot on the stacked start states of every cycle
    that ran it: the ledger accounts, the stored-energy jumps, the
    per-cycle maxima of the states ``peak_rows`` (in even chunks of at
    most about ``_CHUNK_BLOCKS`` cycles x blocks), the membrane (last
    state) at ``SAMPLE_FRAC`` (nearest step) and, with a ``stride``, the
    states at every stride-th step of the concatenated cycle.

    All phases of a cycle share its state layout.  Returns the maxima
    (cycles x peak rows), the decision samples and the per-cycle sampled
    states (None without a stride).
    """
    n_cycles = len(cycles)
    # runs of repeated cycles: [first cycle, length]; a run's later cycles
    # keep the state (no entry map) and run the same phases object
    runs: list[list[int]] = []
    last = None
    for k, (entry, phases) in enumerate(cycles):
        if entry is None and phases is last:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
            last = phases
    width = 1 + max(x0.size, *(cycles[k][1][0].system.dim for k, _ in runs))
    _build_maps((system, (end - start) * t_cycle / n_steps)
                for k, _ in runs for start, end, n_steps, system in cycles[k][1])

    ops: dict[tuple[PhaseSystem, float, int], PhaseOperator] = {}
    # per (phase, step offset in its cycle): operator, cycles, stacks of shifted starts
    slots: dict[tuple[Phase, int], tuple[PhaseOperator, list[int], list[np.ndarray]]] = {}
    # each cycle's incoming state (then the run's end) and its start state
    # after its entry map, augmented and zero-padded to one width
    carried = np.zeros((n_cycles + 1, width))
    starts = np.zeros((n_cycles, width))

    z = np.append(x0, 1.0)
    for k, r in runs:
        entry, phases = cycles[k]
        carried[k, :z.size] = z
        if entry is not None:
            z = entry @ z
        starts[k, :z.size] = z
        # the run's first cycle: operators built at its start state, if new
        run_slots = []
        offset = 0
        for phase in phases:
            slot = slots.get((phase, offset))
            if slot is None:
                start, end, n_steps, system = phase
                key = (system, (end - start) * t_cycle / n_steps, n_steps)
                op = ops.get(key)
                if op is None:
                    op = ops[key] = PhaseOperator(*key, z[:-1], peak_rows, v_limit)
                slot = slots[phase, offset] = (op, [], [])
            op, ks, zs = slot
            zp = z - op.ref
            if not op.guard(zp[None])[0]:
                op.check(zp, k)
            ks.append(k)
            zs.append(zp[None])
            z = op.end @ zp
            offset += phase.n_steps
            run_slots.append(slot)
        if r > 1:
            z = _run_batch(run_slots, z, k + 1, r - 1, carried, starts)
    carried[n_cycles, :z.size] = z

    compile_operators(ops.values())
    peaks = np.full((n_cycles, len(peak_rows)), -np.inf)
    samples = np.full(n_cycles, np.nan)
    states: list[np.ndarray] = []
    if stride:
        states = [np.empty((-(-sum(p.n_steps for p in phases) // stride), phases[0].system.dim))
                  for _, phases in cycles]
    for ((start, end, n_steps, _), offset), (op, ks, zs) in slots.items():
        ks, zs = np.array(ks), np.concatenate(zs)
        op.book(ledger, ks, zs)
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

    # stored-energy jumps where one cycle hands its end state to the next
    e_start = _stored_energies(starts, cycles, runs, 0)
    e_end = _stored_energies(carried[1:], cycles, runs, -1)
    ledger.reconfig[1:] += e_start[1:] - e_end[:-1]
    ledger.e_stored_first = float(e_start[0])
    ledger.e_stored_last = float(e_end[-1])

    return peaks, samples, states if stride else None


def _run_batch(run_slots: list[tuple[PhaseOperator, list[int], list[np.ndarray]]],
               z: np.ndarray, k0: int, m: int, carried: np.ndarray,
               starts: np.ndarray) -> np.ndarray:
    """Pass 1 for cycles k0 .. k0 + m - 1 of a run at once, from state z:
    records their states in ``carried`` and ``starts`` and their shifted
    starts in the run's phase slots, and returns the last one's end state.

    Each phase's shift folds into its end map and those compose into the
    cycle map C, so the starts follow by doubling (one product by C^s per
    doubling) and each phase's shifted starts by one stacked product.  Each
    stack gets one guard reduction; only the (cycle, phase) pairs whose
    bound fails are checked exactly, in cycle-then-phase order, so a
    divergence names the cycle and peak the per-cycle loop would.  Past a
    true divergence later starts may overflow, so the batched products
    run without numpy warnings and the check raises first.
    """
    d1 = z.size
    c = np.eye(d1)
    for op, _, _ in run_slots:
        fold = op.end.copy()
        fold[:, -1] -= op.end @ op.ref
        c = fold @ c
    zs = np.empty((m, d1))   # the batch's start states
    zs[0] = z
    shifted, flagged = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        s = 1
        while s < m:
            take = min(s, m - s)
            zs[s:s + take] = zs[:take] @ c.T
            s += take
            if s < m:
                c = c @ c
        z = zs
        for j, (op, _, _) in enumerate(run_slots):
            zp = z - op.ref
            shifted.append(zp)
            flagged.extend((i, j) for i in np.flatnonzero(~op.guard(zp)).tolist())
            z = zp @ op.end.T
    ks = range(k0, k0 + m)
    for i, j in sorted(flagged):
        run_slots[j][0].check(shifted[j][i], ks[i])
    carried[k0:k0 + m, :d1] = starts[k0:k0 + m, :d1] = zs
    for (_, slot_ks, slot_zs), zp in zip(run_slots, shifted):
        slot_ks.extend(ks)
        slot_zs.append(zp)
    return z[-1]


def _stored_energies(states: np.ndarray, cycles: Sequence[tuple[np.ndarray | None, Sequence[Phase]]],
                     runs: list[list[int]], which: int) -> np.ndarray:
    """Stored energy of each cycle's (padded) augmented state under the
    system of its phase ``which``, one vectorised evaluation per distinct
    system."""
    by_system: dict[PhaseSystem, list[int]] = {}
    for k, r in runs:
        by_system.setdefault(cycles[k][1][which].system, []).extend(range(k, k + r))
    out = np.empty(len(states))
    for system, ks in by_system.items():
        out[ks] = system.stored_energy(states[ks])
    return out


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

    Returns the sampled trace (with per-cycle stats attached) and the
    energy ledger.  The membrane is sampled for the decision stage at
    ``SAMPLE_FRAC`` of each cycle.
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

    systems: dict[tuple, PhaseSystem] = {}
    # plan object id -> (plan, phases); holding the plan keeps its id unique.
    # Equal plans built as separate objects share phase systems by content.
    plan_phases: dict[int, tuple[tuple[Segment, ...], tuple[Phase, ...]]] = {}
    ledger = EnergyLedger.zeros(n_cycles)
    steps: list[tuple[np.ndarray | None, tuple[Phase, ...]]] = []

    # persistent state between cycles: [I_L, V_PC, V_s per group..., V_m]
    x0 = np.array([0.0, 0.0, cfg.tree.v_ref])
    prev_on = (False,) * cfg.tree.n
    prev_plan = None
    dim = x0.size
    for k, plan in enumerate(cycles):
        plan = tuple(plan)
        hit = plan_phases.get(id(plan))
        if hit is None:
            hit = plan_phases[id(plan)] = (plan, _plan_phases(cfg, plan, systems))
        phases = hit[1]
        entry = None
        if plan is not prev_plan:   # the same plan object holds the same gates
            on = plan[0][2].synapse_on
            if on != prev_on:
                # gate-driver overhead: half a full charge per toggled control line
                ledger.drive[k] += sum(a != b for a, b in zip(prev_on, on)) * e_toggle
                entry = _rejoin(dim, phases[0].system.dim)
            prev_on = on
            prev_plan = plan
        steps.append((entry, phases))
        dim = phases[-1].system.dim

    peaks, samples, states = run_cycles(ledger, steps, x0, t_pc, v_limit, (1, -1),
                                        stride if keep_samples else None)
    stats = [CycleStats(v_pk=v_pk, v_m_peak=v_m_peak, v_m_sample=v_m_sample)
             for (v_pk, v_m_peak), v_m_sample in zip(peaks.tolist(), samples.tolist())]

    # a cycle has steps_per_cycle steps, which the stride divides: its
    # samples are its first step and every stride-th one after
    states = states or []
    n_rows = sum(len(rows) for rows in states)
    t_all = np.empty(n_rows)
    x_all = np.empty((n_rows, 4))   # columns i_l, v_pc, v_s_agg, v_m
    v_s_hold = 0.0   # last known top-plate aggregate
    at = 0
    for k, ((_, phases), rows) in enumerate(zip(steps, states)):
        states[k] = None   # each cycle's states are held once, here or in x_all
        groups = phases[0].system.groups
        if groups:   # the gates hold all cycle
            w = np.array([g.c for g in groups])
            agg = (rows[:, 2:-1] @ w) / w.sum()
            v_s_hold = float(agg[-1])
        else:
            agg = v_s_hold
        t_all[at:at + len(rows)] = np.concatenate([
            k * t_pc + start * t_pc + (end - start) * t_pc / n_steps * np.arange(n_steps)
            for start, end, n_steps, _ in phases])[::stride]
        x = x_all[at:at + len(rows)]
        x[:, 0], x[:, 1], x[:, 2], x[:, 3] = rows[:, 0], rows[:, 1], agg, rows[:, -1]
        at += len(rows)
    trace = Trace(t=t_all, i_l=x_all[:, 0], v_pc=x_all[:, 1], v_s=x_all[:, 2], v_m=x_all[:, 3],
                  cycles=stats)
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
