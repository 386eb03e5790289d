"""Threshold detection of an injected bias in Laplace releases.

Covers the full testing machinery for the residual z = release - q(x):

* one-sided threshold tests (right tail for positive bias, left for
  negative), with the likelihood-ratio cutoff kappa they correspond to;
* the symmetric two-sided test that splits its size evenly per tail,
  for the case where the bias direction is unknown;
* exact size and power of both, ROC curves with trapezoid AUC, and the
  interval of biases detectable at given error rates.

Sizes are tail masses of the null residual distribution and powers are
tail masses of the alternative, so every quantity here is an exact
closed form; the test suite re-derives each one by adaptive quadrature.

The one-sided test is most powerful (Neyman-Pearson) only at theta = 1.
Past it the most powerful region has two unequal tails, none of the shapes
here: at s = eps = dmu = 1, theta = 2, alpha = 0.3 its power is 0.667,
against 0.608 right-tail and 0.618 two-sided.

A critical region is held once, as offsets (lo, hi) from mu0 in units of z,
rejecting z < mu0 + lo or z > mu0 + hi; a one-sided test has one infinite
end. Calibration, sizes and powers work in the frame centred on mu0, where
H0 = Lap(0, b0) and H1 = Lap(x_a, b1), so a large mu0 costs them no
precision. An ROC curve is computed column by column with the helpers a
DetectionTest calls on one-element lists; every point is size-checked to 1e-12.
"""

from __future__ import annotations

import io
import math
import operator
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import _csv
from ._record import _Record
from .mechanism import AttackSpec, MechanismConfig, hypothesis_pair

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TailDirection",
    "Decision",
    "DetectionTest",
    "RocPoint",
    "RocCurve",
    "BiasInterval",
    "likelihood_ratio",
    "kappa",
    "decide",
    "roc_curve",
    "bias_interval",
    "write_roc_csv",
]

# Recomputed test size must match the stored alpha this closely.
_SIZE_ATOL = 1e-12


class TailDirection(Enum):
    """Critical-region shape: right/left tail for known bias sign, else both."""

    RIGHT = "right"
    LEFT = "left"
    TWO_SIDED = "two-sided"

    @property
    def one_sided(self) -> bool:
        return self is not TailDirection.TWO_SIDED


class Decision(Enum):
    DETECTED = "detected"
    NOT_DETECTED = "not-detected"


def _regions(alphas: list[float], b0: float, direction: TailDirection) -> tuple[list, list]:
    """Size-alpha critical regions as columns (los, his) of offsets from mu0.

    One-sided: (-inf, t) or (t, inf), t the alpha quantile of H0 = Lap(0, b0)
    mirrored for the right tail. Two-sided: (-h, h), h = -b0 ln(alpha) >= 0,
    alpha/2 beyond each end.
    """
    log, one_sided = math.log, direction.one_sided
    for a in alphas:
        if not (0.0 < a < 1.0 or a == 1.0 and not one_sided):
            raise ValueError(f"size must lie in (0, 1{')' if one_sided else ']'}, got alpha={a}")
    if one_sided:
        # The alpha quantile of Lap(0, 1): exact log arguments on both branches,
        # which meet at 0 bitwise at alpha = 0.5.
        scale = b0 if direction is TailDirection.LEFT else -b0
        ends = [scale * (log(2.0 * a) if a < 0.5 else -log(2.0 * (1.0 - a))) for a in alphas]
    else:
        ends = [-(b0 * log(a)) for a in alphas]
    if not all(map(math.isfinite, ends)):
        bad = next(t for t in ends if not math.isfinite(t))
        raise ValueError(f"threshold offset must be finite, got {bad}")
    if direction is TailDirection.LEFT:
        return ends, [math.inf] * len(ends)
    return ([-math.inf] * len(ends) if one_sided else list(map(operator.neg, ends))), ends


def _masses(los: list[float], his: list[float], mu: float, b: float) -> list[float]:
    """Mass of Lap(mu, b), centred on mu0, below each lo plus above each hi.

    ``LaplaceDist.cdf`` at lo plus ``LaplaceDist.survival`` at hi, in their
    float expressions. An infinite end adds exactly 0.0, so a column of them,
    one shape to a column as ``_regions`` builds it, costs no exp.
    """
    exp = math.exp
    if los[0] == -math.inf:
        return [t if hi > mu else 1.0 - t for hi in his for t in (0.5 * exp(-abs(hi - mu) / b),)]
    if his[0] == math.inf:
        return [t if lo < mu else 1.0 - t for lo in los for t in (0.5 * exp(-abs(lo - mu) / b),)]
    return [
        (t if lo < mu else 1.0 - t) + (u if hi > mu else 1.0 - u)
        for lo, hi in zip(los, his)
        for t, u in ((0.5 * exp(-abs(lo - mu) / b), 0.5 * exp(-abs(hi - mu) / b)),)
    ]


def _check(alphas: list[float], los: list[float], his: list[float], b0: float):
    """Raise unless each region has size alpha."""
    atol = _SIZE_ATOL
    for size, alpha in zip(_masses(los, his, 0.0, b0), alphas):
        if not abs(size - alpha) <= atol:  # a NaN alpha fails too
            raise ValueError(f"threshold(s) give size {size}, which is not alpha={alpha}")


def likelihood_ratio(
    z: float | np.ndarray, cfg: MechanismConfig, attack: AttackSpec
) -> float | np.ndarray:
    """Ratio of the H1 to H0 residual densities at z.

    (1/theta) exp{ eps|z - mu0|/s - eps|z - mu1|/(theta s) }, computed in
    the exponent to stay finite where either density underflows. For
    theta = 1 and |x_a| <= s the ratio is confined to [e^-eps, e^eps],
    which is precisely the pure-DP guarantee of the mechanism.
    """
    h0, h1 = hypothesis_pair(cfg, attack)
    if isinstance(z, (float, int)):
        try:
            return math.exp(abs(z - h0.mu) / h0.b - abs(z - h1.mu) / h1.b) / cfg.theta
        except OverflowError:
            return math.inf
    import numpy as np
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):  # inf, as the scalar path returns
        return np.exp(np.abs(z - h0.mu) / h0.b - np.abs(z - h1.mu) / h1.b) / cfg.theta


class DetectionTest(_Record):
    """A calibrated test: size alpha and critical region (lo, hi).

    ``lo`` and ``hi`` are offsets from mu0 in units of z: the test rejects
    z < mu0 + lo or z > mu0 + hi. A right tail is (-inf, t), a left tail
    (t, inf) and the two-sided test (-h, h) with h >= 0. Construction
    re-derives the size and rejects if it disagrees with ``alpha`` by more
    than 1e-12, so a DetectionTest is consistent by invariant.
    """

    __slots__ = ("alpha", "cfg", "lo", "hi")

    def __init__(self, alpha: float, cfg: MechanismConfig, lo: float, hi: float):
        self._set(alpha, cfg, lo, hi)
        if not math.isfinite(self.offset):
            raise ValueError(f"threshold offset must be finite, got {self.offset}")
        if not (self.lo == -math.inf or self.hi == math.inf or 0.0 <= self.hi == -self.lo):
            raise ValueError(f"need (-h, h) with half-width h >= 0, got ({self.lo}, {self.hi})")
        _check([self.alpha], [self.lo], [self.hi], self.cfg.b0)

    @classmethod
    def from_alpha(
        cls, alpha: float, cfg: MechanismConfig, direction: TailDirection
    ) -> "DetectionTest":
        """Calibrate the critical region for a requested size."""
        (lo,), (hi,) = _regions([alpha], cfg.b0, direction)
        return cls(alpha, cfg, lo, hi)

    @property
    def direction(self) -> TailDirection:
        """RIGHT for (-inf, t), LEFT for (t, inf), TWO_SIDED for (-h, h)."""
        if self.lo == -math.inf:
            return TailDirection.RIGHT
        return TailDirection.LEFT if self.hi == math.inf else TailDirection.TWO_SIDED

    @property
    def offset(self) -> float:
        """The finite end t of a one-sided region, or the half-width h."""
        return self.lo if self.hi == math.inf else self.hi

    @property
    def k1(self) -> float:
        """Threshold mu0 + offset: the one-sided k, or the upper two-sided one."""
        return self.cfg.mu0 + self.offset

    k = k1  # the one-sided name, as RocPoint stores it in k1

    @property
    def k2(self) -> float | None:
        """Lower two-sided threshold mu0 + lo; None for a one-sided test."""
        return None if self.direction.one_sided else self.cfg.mu0 + self.lo

    def size(self) -> float:
        """False-alarm probability: null mass of the critical region."""
        return _masses([self.lo], [self.hi], 0.0, self.cfg.b0)[0]

    def power(self, attack: AttackSpec) -> float:
        """Detection probability: alternative mass of the critical region."""
        return _masses([self.lo], [self.hi], attack.x_a, self.cfg.b1)[0]


def kappa(test: DetectionTest, attack: AttackSpec) -> float:
    """Likelihood-ratio cutoff of the one-sided test's critical region.

    (1/theta) exp{ +-(eps/(theta s)) (d(1+theta) - x_a) } with the offset
    d = k - mu0 and the sign set by the bias direction; coincides with
    likelihood_ratio evaluated at z = k whenever k lies between mu0 and mu1.
    """
    if not test.direction.one_sided:
        raise ValueError("the likelihood-ratio cutoff is defined for one-sided tests")
    if attack.direction == 0:
        raise ValueError("cutoff undefined for zero bias (hypotheses coincide)")
    cfg = test.cfg
    ts = cfg.theta * cfg.s  # rate = 1/b1, through b1 where theta*s overflows
    rate = cfg.eps / ts if ts < math.inf else 1.0 / cfg.b1
    expo = rate * (test.offset * (1.0 + cfg.theta) - attack.x_a)
    try:
        return math.exp(expo if attack.direction > 0 else -expo) / cfg.theta
    except OverflowError:
        return math.inf


def decide(residual_z: float, test: DetectionTest) -> Decision:
    """Classify one residual; boundary values are NotDetected (strict tails)."""
    if math.isnan(residual_z):  # NaN fails every strict comparison
        raise ValueError("cannot classify a NaN residual")
    lo, hi = test.cfg.mu0 + test.lo, test.cfg.mu0 + test.hi
    return Decision.DETECTED if residual_z > hi or residual_z < lo else Decision.NOT_DETECTED


class RocPoint(NamedTuple):
    """One operating point: size, threshold(s), and power.

    One-sided curves store the single threshold in k1 and leave k2 None.
    """

    alpha: float
    k1: float
    k2: float | None
    power: float


class RocCurve(_Record):
    """Ordered ROC samples plus trapezoid AUC over [(0,0), ..., (1,1)]."""

    __slots__ = ("direction", "points", "auc")

    def __init__(self, direction: TailDirection, points: tuple[RocPoint, ...], auc: float):
        alphas = [p.alpha for p in points]
        powers = [p.power for p in points]
        # Each pair check fails at a NaN; a one-point curve has no pairs.
        if any(map(math.isnan, alphas[:1] + powers[:1])):
            raise ValueError("ROC sizes and powers must not be NaN")
        if not all(map(operator.lt, alphas, alphas[1:])):
            raise ValueError("ROC grid sizes must be strictly increasing, without NaN")
        # Small slack: power is mathematically nondecreasing in alpha, but
        # faithful rounding of exp can invert near-saturated neighbors.
        if not all(p2 >= p1 - 1e-12 for p1, p2 in zip(powers, powers[1:])):
            raise ValueError("ROC powers must be nondecreasing in alpha, without NaN")
        if not 0.0 <= auc <= 1.0:
            raise ValueError(f"AUC must lie in [0, 1], got {auc}")
        self._set(direction, points, auc)


def roc_curve(
    cfg: MechanismConfig,
    attack: AttackSpec,
    direction: TailDirection,
    grid: int = 999,
) -> RocCurve:
    """Sweep alpha over {i/(grid+1)} and record threshold(s) and power.

    The default 999-point grid samples alpha = 0.001 ... 0.999; AUC is the
    trapezoid rule over the grid augmented with the limit endpoints (0,0)
    and (1,1). Each point is size-checked to 1e-12 and equals
    ``DetectionTest.from_alpha``'s threshold(s) and power bit for bit.
    """
    if grid < 2:
        raise ValueError(f"ROC grid needs at least 2 points, got {grid}")
    b0, mu0 = cfg.b0, cfg.mu0
    alphas = [i / (grid + 1) for i in range(1, grid + 1)]
    los, his = _regions(alphas, b0, direction)
    _check(alphas, los, his, b0)
    powers = _masses(los, his, attack.x_a, cfg.b1)
    k1s = [mu0 + t for t in (los if direction is TailDirection.LEFT else his)]
    k2s = repeat(None) if direction.one_sided else [mu0 + lo for lo in los]
    points = tuple(map(RocPoint, alphas, k1s, k2s, powers))
    xs = [0.0, *alphas, 1.0]
    ys = [0.0, *powers, 1.0]
    auc = math.fsum(
        0.5 * (y1 + y2) * (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])
    )
    return RocCurve(direction=direction, points=points, auc=min(auc, 1.0))


class BiasInterval(_Record):
    """Symmetric interval of biases, (s/eps) log(alpha beta_bar^theta) on each side."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self._set(lo, hi)


def bias_interval(
    alpha: float, beta_bar: float, cfg: MechanismConfig
) -> BiasInterval:
    """Interval for the bias from the two-sided size-alpha test and beta_bar in (0, 1].

    lo = (s/eps)(ln alpha + theta ln beta_bar), finite where beta_bar^theta
    underflows, and hi = -lo; degenerates to (0, 0) at alpha = beta_bar = 1.
    At x_a = hi, Lap(x_a, b1) has mass exactly beta_bar/2 below the test's
    upper threshold offset h = -b0 ln alpha (at lo, above -h), so the test's
    power at either end is 1 - beta_bar/2 + (1/2) e^(-(hi + h)/b1), not beta_bar.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(
            f"size must lie in (0, 1]: log(alpha) diverges at alpha={alpha}"
        )
    if not 0.0 < beta_bar <= 1.0:
        raise ValueError(
            f"power must lie in (0, 1]: log diverges at beta_bar={beta_bar}"
        )
    lo = cfg.b0 * (math.log(alpha) + cfg.theta * math.log(beta_bar))
    return BiasInterval(lo=lo, hi=0.0 - lo)


def write_roc_csv(curve: RocCurve, out: str | Path | io.TextIOBase) -> None:
    """Emit ``alpha,k1,k2,power`` rows, floats at 17 significant digits.

    One-sided curves leave the k2 column empty.
    """
    _csv.write_csv(out, RocPoint._fields, curve.points)
