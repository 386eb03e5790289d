"""KL divergence between Laplace distributions and the KL-DP check.

The canonical closed form follows from E_p0|Z - mu1| having the exact
expression |dmu| + b0 e^(-|dmu|/b0):

    D(p0 || p1) = ln(b1/b0) - 1 + (b0/b1) e^(-|dmu|/b0) + |dmu|/b1

It depends on the locations only through |dmu| and is confirmed by direct
quadrature. A second closed form sometimes quoted for the mu1 < mu0
regime, whose final term is the constant b0/b1 instead of |dmu|/b1,
disagrees with the integral (its dmu -> 0 limit is 1, not 0); it is kept
available as :func:`kl_laplace_variant` for side-by-side comparison but
is never the default.

KL-DP bounds the divergence between the release distributions on
neighboring inputs by e^eps; :func:`kl_dp_check` reports both sides.
"""

from __future__ import annotations

import io
import math
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import _csv
from ._record import _Record
from .laplace import LaplaceDist
from .mechanism import MechanismConfig
from .quadrature import _gauss_kronrod

__all__ = [
    "KlReport",
    "kl_laplace",
    "kl_laplace_variant",
    "kl_quadrature",
    "kl_dp_check",
    "kl_sweep",
    "write_kl_sweep_csv",
]

# Breakpoints in units of b0 on each side of mu0: the integrand decays on
# scale b0 away from mu0, and panels longer than ~5 decay lengths can fool
# the error estimate into accepting a stretch it has not resolved.
_LADDER_STEPS = (1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 10.5, 13.5, 17.0, 21.0, 26.0, 31.0, 36.0, 40.0)
_LADDER = (0.0, *_LADDER_STEPS, *(-k for k in _LADDER_STEPS))

# The keys of a kl_sweep row, in the order its CSV writes them.
_SWEEP_HEADER = ["epsilon", "theta", "dmu_over_s", "kl", "bound", "violated"]


class KlReport(_Record):
    """Closed-form and quadrature divergence next to the e^eps admissibility bound."""

    __slots__ = ("d_closed", "d_quadrature", "epsilon", "bound", "violated")

    def __init__(
        self, d_closed: float, d_quadrature: float, epsilon: float, bound: float, violated: bool
    ):
        self._set(d_closed, d_quadrature, epsilon, bound, violated)


def _log_ratio(b1: float, b0: float) -> float:
    """ln(b1/b0); a difference of logs where b1/b0 is no normal finite float."""
    r = b1 / b0
    return math.log(r) if 2.0**-1022 <= r < math.inf else math.log(b1) - math.log(b0)


def kl_laplace(p0: LaplaceDist, p1: LaplaceDist) -> float:
    """D(p0 || p1) in nats; zero iff the distributions coincide.

    Built from the exact absolute moment E_p0|Z - mu1|, hence symmetric in
    the sign of the location shift. Note the divergence is asymmetric in
    its arguments whenever the scales differ.
    """
    return _log_ratio(p1.b, p0.b) - 1.0 + p0.mean_abs_dev(p1.mu) / p1.b


def kl_laplace_variant(p0: LaplaceDist, p1: LaplaceDist) -> float:
    """Alternative closed form for the mu1 < mu0 regime, kept for comparison.

    ln(b1/b0) - 1 + (b0/b1) e^((mu1-mu0)/b0) + b0/b1. Its final term is
    constant in the shift, so the dmu -> 0 limit is 1 rather than 0 and
    the value disagrees with :func:`kl_quadrature` except where the two
    forms happen to cross. Exposed only behind an explicit flag in the
    CLI; report it alongside kl_laplace and the quadrature oracle.

    Raises:
        ValueError: Unless mu1 < mu0 (the regime this form is stated for).
    """
    if not p1.mu < p0.mu:
        raise ValueError(
            f"variant form requires mu1 < mu0, got mu0={p0.mu}, mu1={p1.mu}"
        )
    r = p0.b / p1.b
    return _log_ratio(p1.b, p0.b) - 1.0 + r * math.exp((p1.mu - p0.mu) / p0.b) + r


def kl_quadrature(p0: LaplaceDist, p1: LaplaceDist, tol: float = 1e-10) -> float:
    """Direct integral of p0 ln(p0/p1), the oracle for the closed forms.

    Adaptive Gauss-Kronrod (G10-K21) over both locations +- 40 b0 (the p0
    factor kills the integrand on scale b0), split at both density kinks
    and along a geometric ladder on both sides of mu0, so no piece within
    40 b0 of mu0 is longer than 5 b0, however far apart the locations are.
    On each such piece the integrand is exp(linear) times linear, so one
    21-point panel per piece meets tol: 630 evaluations at 4e-9 and at
    1e-10 alike when both locations lie within a few b0. The log ratio is
    expanded analytically so the integrand stays finite where either
    density underflows.

    In the frame standardized by b0, u = (z - mu0)/b0, the integrand is
    (1/2) e^-|u| (ln(b1/b0) + |u - d| r - |u|), d = (mu1 - mu0)/b0, r = b0/b1:
    no node is a difference of large locations, so mu0 does not move the value.

    tol is floored at 2**-44 m, m = |ln(b1/b0)| + (|mu1 - mu0| + b0)/b1 + 1,
    a bound on the integral of p0 |ln(p0/p1)| from the inputs, not the closed
    forms: a tol below the double rounding of D (1e8 at eps 1e8) exhausts the budget.

    Raises:
        ValueError: If m overflows (b0/b1, |mu1 - mu0|/b0 or |mu1 - mu0|/b1
            is inf), where the integrand is inf or NaN and no panel converges.
        QuadratureError: If the subdivision budget cannot reach ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    log_scale = _log_ratio(p1.b, p0.b)
    d, r = (p1.mu - p0.mu) / p0.b, p0.b / p1.b
    m = abs(log_scale) + (abs(d) + 1.0) * r + 1.0
    if not m < math.inf:
        raise ValueError(
            "cannot integrate: the integrand's bound |ln(b1/b0)| + (|mu1 - mu0| + b0)/b1 + 1 "
            f"overflows (b0/b1 = {r!r}, |mu1 - mu0|/b0 = {abs(d)!r}, "
            f"|mu1 - mu0|/b1 = {abs(p1.mu - p0.mu) / p1.b!r})"
        )
    exp = math.exp

    def integrand(u: float) -> float:
        # 0.5 * exp(-|u|) is p0's density in u; this runs over a thousand times per call.
        au = abs(u)
        return exp(-au) * 0.5 * (log_scale + abs(u - d) * r - au)

    a, b = min(0.0, d) - 40.0, max(0.0, d) + 40.0
    tol = max(tol, 2.0**-44 * m)
    return _gauss_kronrod(integrand, a, b, tol, breakpoints=(d, *_LADDER))


def _dp_bound(epsilon: float) -> float:
    """The KL-DP bound e^eps; +inf once eps exceeds ln(max double), about 709.78."""
    try:
        return math.exp(epsilon)
    except OverflowError:
        return math.inf


def kl_dp_check(p0: LaplaceDist, p1: LaplaceDist, epsilon: float) -> KlReport:
    """Check D(p0 || p1) <= e^eps and report both sides plus the oracle value."""
    if not epsilon > 0.0:
        raise ValueError(f"privacy parameter must be positive, got {epsilon}")
    d = kl_laplace(p0, p1)
    bound = _dp_bound(epsilon)
    return KlReport(d, kl_quadrature(p0, p1), epsilon, bound, d > bound)


def kl_sweep(
    eps_grid: Sequence[float],
    thetas: Sequence[float],
    dmu_over_s: Sequence[float],
    s: float = 1.0,
    mu0: float = 0.0,
) -> list[dict]:
    """Divergence vs privacy budget over a (theta, dmu/s, eps) grid.

    For each cell, p0 = Lap(0, s/eps) and p1 = Lap(dmu, theta (s/eps)),
    dmu = dmu_over_s s, are the no-attack and attack noise laws centred on
    mu0: the divergence depends only on the shift and the scales, so mu0 is
    checked, with s and each (theta, eps), by MechanismConfig but moves no
    row. Rows carry the closed form and the e^eps bound, flagging cells
    where the bound is violated.
    """
    if not (len(eps_grid) and len(thetas) and len(dmu_over_s)):
        raise ValueError("eps_grid, thetas and dmu_over_s must each be nonempty")
    rows = []
    for theta in thetas:
        b0s = [MechanismConfig(s, eps, theta, mu0).b0 for eps in eps_grid]
        for ratio in dmu_over_s:
            if not abs(ratio) < math.inf:
                raise ValueError(f"bias ratio must be finite, got dmu_over_s={ratio}")
            dmu = ratio * s
            if not abs(dmu) < math.inf:
                raise ValueError(f"shift dmu_over_s*s overflows, got dmu_over_s={ratio}, s={s}")
            for eps, b0 in zip(eps_grid, b0s):
                d = kl_laplace(LaplaceDist(0.0, b0), LaplaceDist(dmu, theta * b0))
                bound = _dp_bound(eps)
                rows.append(dict(zip(_SWEEP_HEADER, (eps, theta, ratio, d, bound, d > bound))))
    return rows


def write_kl_sweep_csv(rows: Sequence[dict], out: str | Path | io.TextIOBase) -> None:
    """Emit ``epsilon,theta,dmu_over_s,kl,bound,violated`` rows (17 sig digits)."""
    _csv.write_csv(out, _SWEEP_HEADER, map(itemgetter(*_SWEEP_HEADER), rows))
