"""Damped-oscillation fits on synthetic series: the test helper's own checks."""

import math

import numpy as np
import pytest

from decay_fit import FitError, fit_decay


def test_fit_decay_synthetic_damped_sine():
    t = np.linspace(0.0, 10e-6, 4000)
    omega = 2.0 * math.pi * 1e6
    v = 0.9 + 0.8 * np.exp(-1e4 * t) * np.cos(omega * t + 0.3)
    fit = fit_decay(t, v)
    assert fit.omega == pytest.approx(omega, rel=1e-6)
    assert fit.lam == pytest.approx(1e4, rel=0.01)
    assert fit.offset == pytest.approx(0.9, abs=1e-3)


def test_fit_decay_rejects_flat_and_short_series():
    t = np.linspace(0.0, 1e-5, 100)
    with pytest.raises(FitError):
        fit_decay(t, np.ones_like(t))
    with pytest.raises(FitError):
        fit_decay(t[:8], np.sin(t[:8] * 1e6))
