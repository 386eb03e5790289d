"""Shared independent oracles: tail masses by direct integration.

These deliberately avoid the closed-form cdf/survival branches they are
used to check; every probability is an adaptive-Simpson integral of the
density over the region in question.
"""

import math

from lapdetect import LaplaceDist
from lapdetect.quadrature import adaptive_simpson

_LADDER = (-40, -30, -21, -14, -9, -5, -3, -1.5, 0, 1.5, 3, 5, 9, 14, 21, 30, 40)


def _breaks(d: LaplaceDist, *extra: float) -> list[float]:
    return [d.mu + k * d.b for k in _LADDER] + list(extra)


def integral(
    d: LaplaceDist, f, lo: float, hi: float, *extra: float, tol: float = 1e-10
) -> float:
    """Integral of ``f`` over [lo, hi], cut along d's ladder and at ``extra``."""
    return adaptive_simpson(f, lo, hi, tol, breakpoints=_breaks(d, *extra))


def right_mass(d: LaplaceDist, k: float, tol: float = 1e-10) -> float:
    """P(Z > k) by quadrature."""
    return integral(d, d.pdf, k, max(d.mu, k) + 45.0 * d.b, tol=tol)


def left_mass(d: LaplaceDist, k: float, tol: float = 1e-10) -> float:
    """P(Z < k) by quadrature."""
    return integral(d, d.pdf, min(d.mu, k) - 45.0 * d.b, k, tol=tol)


def outside_mass(d: LaplaceDist, k1: float, k2: float, tol: float = 1e-10) -> float:
    """P(Z < k2) + P(Z > k1) by quadrature."""
    return left_mass(d, k2, 0.5 * tol) + right_mass(d, k1, 0.5 * tol)


def laplace_shift_auc(delta_over_b: float) -> float:
    """P(Z1 > Z0) for Z1 ~ Lap(d, b), Z0 ~ Lap(0, b), with d/b given.

    The difference of two independent unit Laplace draws has density
    (1/4)(1 + |t|) e^{-|t|}, whose upper tail integrates to
    (2 + x) e^{-x} / 4; this is the exact area under the one-sided ROC
    for a pure location shift.
    """
    x = abs(delta_over_b)
    return 1.0 - 0.25 * (2.0 + x) * math.exp(-x)
