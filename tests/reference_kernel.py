"""Per-step reference for ``engine.run_cycles``, for tests only.

It propagates every state of every phase (map doubling over the steps of
a segment) and books each account by ``np.trapezoid`` over the states, as
the engine did before its closed-form phase operators.  The parity tests
run both designs through this kernel and through the engine's and
compare the results.  ``Gathers`` shows which blocks the peak search
evaluates step by step, for tests that compare it with an exhaustive one.
``stein_sums`` is the engine's Stein doubling with a step at every bit,
for the test that pins the engine's, which skips the bits no step count
sets, to it.
"""

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from acansim import baseline, engine, neuron
from acansim.engine import SAMPLE_FRAC, SimulationError

ACCOUNTS = ("source_dc", "source_ref", "r_pc", "r_lc", "r_tg", "r_reset",
            "drive", "reconfig", "soma")


def propagate(e: np.ndarray, f: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """All n+1 states of the affine recurrence x_{k+1} = E x_k + f.

    Uses map doubling: the s-step map is squared repeatedly and applied to
    the already-known prefix, so the whole segment costs O(log n) small
    matrix products.
    """
    xs = np.empty((n + 1, x0.size))
    xs[0] = x0
    s = 1
    e_s = e
    f_s = f
    while s < n + 1:
        take = min(s, n + 1 - s)
        xs[s:s + take] = xs[:take] @ e_s.T + f_s
        s += take
        if s < n + 1:
            f_s = e_s @ f_s + f_s
            e_s = e_s @ e_s
    return xs


def book_segment(ledger, k, system, xs, dt):
    """Add one propagated segment's source and loss integrals to cycle k."""
    for account, p, i, u in system.sources:
        getattr(ledger, account)[k] += p * np.trapezoid(xs[:, i] + u, dx=dt)
    for account, g, i, j, u in system.losses:
        d = xs[:, i] if j is None else xs[:, i] - xs[:, j]
        getattr(ledger, account)[k] += g * np.trapezoid((d + u) ** 2, dx=dt)


class Searched(NamedTuple):
    """A peak search that has run: the per-step maxima, read as the
    kernel's pending ``engine.PeakSearch`` is, through ``peaks``."""

    peaks: np.ndarray


def run_cycles(ledger, kinds, kind_of, x0, t_cycle, v_limit, peak_rows, stride=None):
    """Same contract as ``engine.run_cycles``, one propagated segment per
    phase and cycle; the peaks are found per step, during the run."""
    n_cycles = kind_of.size
    peaks = np.full((n_cycles, len(peak_rows)), -np.inf)
    samples = np.full(n_cycles, np.nan)
    states = [] if stride else None
    x = x0
    prev = None
    for k, (entry, phases) in enumerate(map(kinds.__getitem__, kind_of.tolist())):
        start_x = x if entry is None else (entry @ np.append(x, 1.0))[:-1]
        e_start = phases[0].system.stored_energy(start_x)
        if prev is None:
            ledger.e_stored_first = float(e_start)
        else:
            ledger.reconfig[k] += e_start - prev.stored_energy(x)
        x = start_x
        trajectories = []
        for start, end, n_steps, system in phases:
            dt = (end - start) * t_cycle / n_steps
            xs = propagate(*engine.step_maps(system.a, system.b, dt), x, n_steps)
            peak = float(np.abs(xs).max())
            if not peak < v_limit:
                raise SimulationError(
                    f"state diverged in cycle {k}: |x| reached {peak:.3g}, limit {v_limit:.3g}")
            book_segment(ledger, k, system, xs, dt)
            peaks[k] = np.maximum(peaks[k], xs[:, list(peak_rows)].max(0))
            if start <= SAMPLE_FRAC < end:
                idx = min(max(int(round((SAMPLE_FRAC - start) * t_cycle / dt)), 0), n_steps)
                samples[k] = xs[idx, -1]
            trajectories.append(xs)
            x = xs[-1]
        if stride:
            states.append(np.vstack([xs[:-1] for xs in trajectories])[::stride])
        prev = phases[-1].system
    ledger.e_stored_last = float(prev.stored_energy(x))
    return Searched(peaks), samples, states


def stein_sums(g, forms, ns):
    """``engine._stein_sums`` stepping at every bit of the largest n: a bit
    that no n sets steps every map by I and adds no form."""
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


class Gathers(np.ndarray):
    """A phase operator's block starts that record each gather of them by
    an index array in ``gathered``: ``op.blocks = op.blocks.view(Gathers)``
    and ``op.blocks.gathered = []``, then each peak row of ``op.peaks``
    adds the blocks it evaluates step by step."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            self.gathered.append(index.tolist())
        return np.asarray(super().__getitem__(index))


@contextmanager
def reference_kernel():
    """Run both designs through ``run_cycles`` above inside the block.

    Every module that holds the kernel's ``run_cycles`` gets the reference,
    and the block fails on exit if the reference never ran: a design that
    found the kernel elsewhere would compare the kernel with itself.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return run_cycles(*args, **kwargs)

    modules = (engine, neuron, baseline)
    saved = [m.run_cycles for m in modules]
    for m in modules:
        m.run_cycles = counted
    try:
        yield
    finally:
        for m, kernel in zip(modules, saved):
            m.run_cycles = kernel
    assert calls, "no run went through the reference run_cycles"


def assert_same_run(run, ref):
    """A run of the engine's kernel against the same run of the reference.

    Each cycle's accounts agree within 1e-9 of that cycle's dissipation.
    Idle baseline codes dissipate next to nothing, and their membrane sits
    ~1e-15 V off V_REF (round-off in the step map's fixed point), which
    the V_REF source term books to first order (~1e-25 J per cycle), so a
    floor of 1e-11 of the stored energy is added; it stays ten orders below
    the accounts of any switching cycle.  Stored-energy ends, peaks,
    samples and trace samples agree within 1e-10 relative, decisions and
    oracle bits exactly.
    """
    led, want = run.ledger_full, ref.ledger_full
    stored = max(abs(want.e_stored_first), abs(want.e_stored_last))
    tol = 1e-9 * (want.r_pc + want.r_lc + want.r_tg + want.r_reset) + 1e-11 * stored
    for name in ACCOUNTS:
        err = np.abs(getattr(led, name) - getattr(want, name))
        worst = int(np.argmax(err - tol))
        assert np.all(err <= tol), f"{name}: cycle {worst} off by {err[worst]:.3g}, tol {tol[worst]:.3g}"
    assert led.e_stored_first == pytest.approx(want.e_stored_first, rel=1e-10)
    assert led.e_stored_last == pytest.approx(want.e_stored_last, rel=1e-10)
    for field in ("v_pk", "v_m_peak", "v_m_sample"):
        np.testing.assert_allclose(getattr(run.stats, field), getattr(ref.stats, field),
                                   rtol=1e-10, err_msg=field)
    assert run.output_bits == ref.output_bits
    np.testing.assert_array_equal(run.oracle_bits, ref.oracle_bits)
    assert (run.trace is None) == (ref.trace is None)
    if run.trace is not None:
        np.testing.assert_array_equal(run.trace.t, ref.trace.t)
        for field in ("i_l", "v_pc", "v_s", "v_m"):
            col = getattr(ref.trace, field)
            np.testing.assert_allclose(getattr(run.trace, field), col, rtol=1e-10,
                                       atol=1e-10 * np.abs(col).max(), err_msg=field)
