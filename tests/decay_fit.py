"""Damped-oscillation fits of trace segments, for tests only.

The ring-down tests fit a free-running clock node with ``fit_decay`` and
compare the fitted frequency and loss rate with closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares


class FitError(RuntimeError):
    """Raised when a trace segment cannot be fit as a damped oscillation."""


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
