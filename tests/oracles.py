"""Shared independent oracles: tail masses by direct integration, and the
most powerful test.

The tail masses deliberately avoid the closed-form cdf/survival branches
they are used to check; each is an adaptive-Simpson integral of the density
over the region in question. :func:`np_region` writes the Laplace tail
formula out itself and uses no ``LaplaceDist`` method.
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


def _above(mu: float, b: float, t: float) -> float:
    """P(Z > t) for Z ~ Lap(mu, b), written out: 1/2 e^(-(t - mu)/b) past mu."""
    if t >= mu:
        return 0.5 * math.exp(-(t - mu) / b)
    return 1.0 - 0.5 * math.exp((t - mu) / b)


def np_region(alpha: float, p0: LaplaceDist, p1: LaplaceDist) -> tuple[float, float, float]:
    """The most powerful size-``alpha`` region for p0 against p1, b1 >= b0.

    Returns (a, k, power) for the region z < a or z > k. With d = mu1 - mu0 >= 0
    and u = z - mu0, ln LR(z) - ln(b0/b1) = |u|/b0 - |u - d|/b1 is piecewise
    linear with its minimum -d/b1 at u = 0: slope -(1/b0 - 1/b1) below 0,
    1/b0 + 1/b1 up to d, and 1/b0 - 1/b1 past d. So the region where it
    exceeds a cutoff c has its two ends in closed form, and its size falls
    monotonically in c; c is the one root of size(c) = alpha, by bisection.
    At b1 = b0 the ratio is flat at its top, u >= d, where H0 has mass
    1/2 e^(-d/b0). For alpha at most that, every size-alpha subset of the top
    (a randomized test) is most powerful, with power alpha e^(d/b0); the
    returned k is then mu0 + b0 ln(1/(2 alpha)), the right tail of that size.
    """
    mu0, b0, b1 = p0.mu, p0.b, p1.b
    d = p1.mu - mu0
    if not (b1 >= b0 and d >= 0.0 and (d > 0.0 or b1 > b0)):
        raise ValueError("need b1 >= b0, mu1 >= mu0 and p1 != p0")
    down, up = 1.0 / b0 - 1.0 / b1, 1.0 / b0 + 1.0 / b1

    def ends(c: float) -> tuple[float, float]:
        # The region u < lo or u > hi.
        lo = -(c + d / b1) / down if down > 0.0 else -math.inf
        hi = (c + d / b1) / up if c <= d / b0 else (c - d / b1) / down
        return lo, hi

    def mass(mu: float, b: float, lo: float, hi: float) -> float:
        # P(Z < lo) + P(Z > hi) for Z ~ Lap(mu, b); -Z ~ Lap(-mu, b).
        return _above(-mu, b, -lo) + _above(mu, b, hi)

    if down == 0.0 and alpha <= 0.5 * math.exp(-d / b0):
        lo, hi, power = -math.inf, b0 * math.log(0.5 / alpha), alpha * math.exp(d / b0)
    else:
        c_lo, c_hi = -d / b1, d / b0
        while down > 0.0 and mass(0.0, b0, *ends(c_hi)) > alpha:
            c_hi = 2.0 * c_hi + 1.0
        for _ in range(200):
            c = 0.5 * (c_lo + c_hi)
            if mass(0.0, b0, *ends(c)) > alpha:
                c_lo = c
            else:
                c_hi = c
        lo, hi = ends(c_hi)
        power = mass(d, b1, lo, hi)
    return mu0 + lo, mu0 + hi, power
