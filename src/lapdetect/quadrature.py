"""Adaptive quadrature for piecewise-smooth scalar integrands.

Serves as the numerical oracle for every closed-form probability in the
package: tail masses, powers and KL divergences are re-derived by direct
integration and compared against their analytic expressions in the tests.
The integrands here are smooth except at isolated kinks (distribution
locations, comparison points), so callers pass those as breakpoints and
each smooth piece is integrated independently. :func:`adaptive_simpson`
is the general oracle. ``_gauss_kronrod`` applies a G10-K21 rule to the
same pieces. :func:`lapdetect.divergence.kl_quadrature` cuts its range so
that each piece near the mass is at most 5 decay lengths long and has no
kink inside, so the integrand there is exp(linear) times linear; when
the locations are a few decay lengths apart, one 21-point panel per
piece meets tol 4e-9 and 1e-10 alike, where Simpson's panel count grows
as tol shrinks, and the loop bookkeeping runs once per 21 evaluations,
not once per 2.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

__all__ = ["QuadratureError", "adaptive_simpson"]

_SIXTH = 1.0 / 6.0
_FIFTEENTH = 1.0 / 15.0

# Gauss-Kronrod G10-K21 on [-1, 1] (QUADPACK qk21, the rule of its QAGS): the
# Kronrod weight of the centre node, then (x, Kronrod weight, Gauss weight)
# for each node pair +-x; the Gauss weight is 0 on Kronrod-only nodes.
_K21_CENTRE = 0.1494455540029169
_K21_PAIRS = (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
)
_K21_MAX_PANELS = 1 << 16

# Simpson's forced subdivision levels before the error estimate is trusted,
# which guards against deceptive acceptance on panels much longer than the
# integrand's decay length, and its subdivision budget.
_SIMPSON_MIN_DEPTH = 2
_SIMPSON_MAX_PANELS = 1 << 22


class QuadratureError(ArithmeticError):
    """Raised when the subdivision budget is exhausted before reaching tol.

    Attributes:
        value: Best available estimate of the integral.
        achieved: Error bound actually achieved, the sum of the accepted
            panels' estimates. Usually larger than the requested tolerance;
            it can be smaller when some panel could not meet its share of
            the tolerance before the budget ran out.
    """

    def __init__(self, message: str, value: float, achieved: float):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Classic adaptive Simpson with Richardson extrapolation: a panel is
    accepted once the two-level estimate difference |S2-S1|/15 drops below
    its share of the tolerance budget. ``breakpoints`` should list the
    integrand's kinks (and, for rapidly decaying integrands, a few scale
    markers); each resulting piece gets an equal share of ``tol``.

    Args:
        f: Scalar integrand, evaluated at O(tol^(-1/4)) points per piece.
        a: Lower limit; must satisfy ``a <= b``.
        b: Upper limit.
        tol: Absolute error target for the whole interval.
        breakpoints: Interior split points; values outside (a, b) are
            ignored, so callers may pass candidate kinks unconditionally.

    Returns:
        The integral estimate, with absolute error bounded by ``tol``
        (up to the validity of the Simpson error model).

    Raises:
        ValueError: If ``a > b`` or ``tol`` is not positive.
        QuadratureError: If the budget is exhausted before convergence.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if a > b:
        raise ValueError(f"integration limits must be ordered, got ({a}, {b})")
    if a == b:
        return 0.0

    pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    piece_tol = tol / (len(pts) - 1)

    total = 0.0
    err_bound = 0.0
    panels = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = f(lo), f(mid), f(hi)
        whole = (hi - lo) * _SIXTH * (flo + 4.0 * fmid + fhi)
        stack = [(lo, flo, mid, fmid, hi, fhi, whole, piece_tol, _SIMPSON_MIN_DEPTH)]
        while stack:
            x0, f0, xm, fm, x1, f1, s, t, d = stack.pop()
            panels += 1
            lm = 0.5 * (x0 + xm)
            rm = 0.5 * (xm + x1)
            flm = f(lm)
            frm = f(rm)
            left = (xm - x0) * _SIXTH * (f0 + 4.0 * flm + fm)
            right = (x1 - xm) * _SIXTH * (fm + 4.0 * frm + f1)
            err = (left + right - s) * _FIFTEENTH
            if (d <= 0 and abs(err) <= t) or panels > _SIMPSON_MAX_PANELS:
                total += left + right + err
                err_bound += abs(err)
            else:
                half = 0.5 * t
                stack.append((x0, f0, lm, flm, xm, fm, left, half, d - 1))
                stack.append((xm, fm, rm, frm, x1, f1, right, half, d - 1))

    if panels > _SIMPSON_MAX_PANELS:
        raise _exhausted(panels, tol, total, err_bound)
    return total


def _gauss_kronrod(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Iterable[float] = (),
) -> float:
    """G10-K21 counterpart of :func:`adaptive_simpson`, for ``a < b``.

    Same pieces and tolerance shares: each piece starts as one panel with
    tol / pieces, each half of a split panel gets half of its panel's share.
    A panel is accepted once |K21 - G10|, which bounds the K21 error on a
    smooth panel, is within its share; the result sums the accepted K21
    values. Each panel costs 21 evaluations. Unlike Simpson's
    ``_SIMPSON_MIN_DEPTH``, nothing forces a split: the estimate is trusted
    over a whole piece, so callers must cut pieces short enough for the
    integrand's scale (``kl_quadrature`` keeps them within 5 decay lengths).

    Raises:
        QuadratureError: After more than ``_K21_MAX_PANELS`` panels.
    """
    pts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    piece_tol = tol / (len(pts) - 1)
    stack = [(lo, hi, piece_tol) for lo, hi in zip(pts[:-1], pts[1:])]
    total = 0.0
    err_bound = 0.0
    panels = 0
    while stack:
        lo, hi, t = stack.pop()
        panels += 1
        half = 0.5 * (hi - lo)
        mid = lo + half
        kronrod, gauss = _K21_CENTRE * f(mid), 0.0
        for x, wk, wg in _K21_PAIRS:
            pair = f(mid - half * x) + f(mid + half * x)
            kronrod += wk * pair
            gauss += wg * pair
        err = abs(kronrod - gauss) * half
        if err <= t or panels > _K21_MAX_PANELS:
            total += kronrod * half
            err_bound += err
        else:
            stack += [(lo, mid, 0.5 * t), (mid, hi, 0.5 * t)]

    if panels > _K21_MAX_PANELS:
        raise _exhausted(panels, tol, total, err_bound)
    return total


def _exhausted(panels: int, tol: float, value: float, achieved: float) -> QuadratureError:
    if achieved > tol:
        why = f"achieved error bound {achieved:.3e} exceeds tol {tol:.3e}"
    else:
        why = (
            f"some panel could not meet its share of tol {tol:.3e} "
            f"(achieved error bound {achieved:.3e})"
        )
    return QuadratureError(
        f"subdivision budget exhausted after {panels} panels; {why}",
        value=value,
        achieved=achieved,
    )
