"""Neyman-Pearson detection of an injected bias in Laplace releases.

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

A critical region is held once, as its offset from mu0 in the units of z;
calibration, sizes and powers work in the frame centred on mu0, where H0 =
Lap(0, b0) and H1 = Lap(x_a, b1), so a large mu0 costs them no precision.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import _csv
from .laplace import LaplaceDist
from .mechanism import AttackSpec, MechanismConfig, hypothesis_pair

__all__ = [
    "TailDirection",
    "Decision",
    "DetectionTest",
    "RocPoint",
    "RocCurve",
    "BiasInterval",
    "one_sided_threshold",
    "one_sided_size",
    "one_sided_power",
    "likelihood_ratio",
    "kappa",
    "two_sided_thresholds",
    "two_sided_size",
    "two_sided_power",
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


def _calibrate(alpha: float, b0: float, direction: TailDirection) -> float:
    """Offset from mu0 of the size-alpha critical region, in units of z.

    One-sided: the signed threshold offset, a quantile of H0 = Lap(0, b0).
    Two-sided: the half-width -b0 ln(alpha) >= 0, alpha/2 beyond each end.
    """
    if not direction.one_sided:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(
                f"size must lie in (0, 1] (log alpha diverges at 0), got alpha={alpha}"
            )
        return -(b0 * math.log(alpha))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"size must lie strictly in (0, 1), got alpha={alpha}")
    # The alpha quantile of Lap(0, 1): exact log arguments on both branches,
    # which meet at 0 bitwise at alpha = 0.5.
    q = math.log(2.0 * alpha) if alpha < 0.5 else -math.log(2.0 * (1.0 - alpha))
    return b0 * q if direction is TailDirection.LEFT else -b0 * q


def _region(direction: TailDirection, offset: float) -> tuple[float, float]:
    """Critical region as offsets (lo, hi) from mu0: reject z < lo or z > hi."""
    if direction is TailDirection.LEFT:
        return offset, math.inf
    return (-math.inf if direction.one_sided else -offset), offset


def _mass(dist: LaplaceDist, lo: float, hi: float) -> float:
    """Mass of ``dist``, centred on mu0, below lo plus above hi (inf adds 0)."""
    if lo > hi:
        raise ValueError(f"need k2 <= k1, got k2 - mu0 = {lo} > k1 - mu0 = {hi}")
    return dist.cdf(lo) + dist.survival(hi)


def one_sided_threshold(
    alpha: float, cfg: MechanismConfig, direction: TailDirection
) -> float:
    """Threshold of the size-alpha one-sided critical region.

    Right tail: the k with P_H0(Z > k) = alpha, i.e. the (1-alpha)
    quantile of Lap(mu0, s/eps); left tail: the alpha quantile. Equals
    mu0 exactly at alpha = 0.5, where the two closed-form branches
    (mu0 - (s/eps) ln(2 alpha) for alpha <= 0.5 on the right tail,
    mu0 + (s/eps) ln(2(1-alpha)) above) meet.
    """
    if not direction.one_sided:
        raise ValueError("one-sided threshold requires a right or left tail")
    return cfg.mu0 + _calibrate(alpha, cfg.b0, direction)


def one_sided_size(k: float, cfg: MechanismConfig, direction: TailDirection) -> float:
    """False-alarm probability of the threshold test: null mass beyond k."""
    if not direction.one_sided:
        raise ValueError("one-sided size requires a right or left tail")
    return _mass(LaplaceDist(0.0, cfg.b0), *_region(direction, k - cfg.mu0))


def one_sided_power(
    k: float, cfg: MechanismConfig, attack: AttackSpec, direction: TailDirection
) -> float:
    """Detection probability: alternative mass beyond k; always in [0, 1]."""
    if not direction.one_sided:
        raise ValueError("one-sided power requires a right or left tail")
    return _mass(LaplaceDist(attack.x_a, cfg.b1), *_region(direction, k - cfg.mu0))


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
    z = np.asarray(z, dtype=float)
    return np.exp(np.abs(z - h0.mu) / h0.b - np.abs(z - h1.mu) / h1.b) / cfg.theta


def two_sided_thresholds(alpha: float, cfg: MechanismConfig) -> tuple[float, float]:
    """Symmetric pair (k1, k2) with null mass alpha/2 in each outer tail.

    k1 = mu0 - (s/eps) ln(alpha) >= mu0 >= k2 = mu0 + (s/eps) ln(alpha);
    alpha = 1 collapses both onto mu0 (the test always rejects).
    """
    half = _calibrate(alpha, cfg.b0, TailDirection.TWO_SIDED)
    return cfg.mu0 + half, cfg.mu0 - half


def two_sided_size(k1: float, k2: float, cfg: MechanismConfig) -> float:
    """False-alarm probability of the two-sided test: null mass outside (k2, k1)."""
    return _mass(LaplaceDist(0.0, cfg.b0), k2 - cfg.mu0, k1 - cfg.mu0)


def two_sided_power(
    k1: float, k2: float, cfg: MechanismConfig, attack: AttackSpec
) -> float:
    """Detection probability of the two-sided test: H1 mass outside (k2, k1).

    Equals (1/2) e^{eps(k2-mu1)/(theta s)} + (1/2) e^{-eps(k1-mu1)/(theta s)}
    whenever k2 <= mu1 <= k1, and remains a valid probability when mu1
    falls outside the acceptance interval.
    """
    return _mass(LaplaceDist(attack.x_a, cfg.b1), k2 - cfg.mu0, k1 - cfg.mu0)


@dataclass(frozen=True)
class DetectionTest:
    """A calibrated test: tail direction, size alpha and critical region.

    ``offset`` is the region's distance from mu0 in units of z: reject beyond
    k = mu0 + offset (one-sided) or outside mu0 -+ offset (two-sided, offset
    >= 0). Construction re-derives the size and rejects if it disagrees with
    ``alpha`` by more than 1e-12, so a DetectionTest is consistent by invariant.
    """

    direction: TailDirection
    alpha: float
    cfg: MechanismConfig
    offset: float

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError(f"threshold offset must be finite, got {self.offset}")
        if self.offset < 0.0 and not self.direction.one_sided:
            raise ValueError(f"two-sided half-width must be >= 0, got {self.offset}")
        size = self.size()
        if abs(size - self.alpha) > _SIZE_ATOL:
            raise ValueError(
                f"threshold(s) give size {size}, which is not alpha={self.alpha}"
            )

    @classmethod
    def from_alpha(
        cls, alpha: float, cfg: MechanismConfig, direction: TailDirection
    ) -> "DetectionTest":
        """Calibrate the critical region for a requested size."""
        return cls(direction, alpha, cfg, _calibrate(alpha, cfg.b0, direction))

    @property
    def k1(self) -> float:
        """Threshold mu0 + offset: the one-sided k, or the upper two-sided one."""
        return self.cfg.mu0 + self.offset

    k = k1  # the one-sided name, as RocPoint stores it in k1

    @property
    def k2(self) -> float | None:
        """Lower two-sided threshold mu0 - offset; None for a one-sided test."""
        return None if self.direction.one_sided else self.cfg.mu0 - self.offset

    def size(self) -> float:
        """False-alarm probability: null mass of the critical region."""
        h0 = LaplaceDist(0.0, self.cfg.b0)
        return _mass(h0, *_region(self.direction, self.offset))

    def power(self, attack: AttackSpec) -> float:
        """Detection probability: alternative mass of the critical region."""
        h1 = LaplaceDist(attack.x_a, self.cfg.b1)
        return _mass(h1, *_region(self.direction, self.offset))


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
    expo = (cfg.eps / (cfg.theta * cfg.s)) * (
        test.offset * (1.0 + cfg.theta) - attack.x_a
    )
    try:
        return math.exp(expo if attack.direction > 0 else -expo) / cfg.theta
    except OverflowError:
        return math.inf


def decide(residual_z: float, test: DetectionTest) -> Decision:
    """Classify one residual; boundary values are NotDetected (strict tails)."""
    return (
        Decision.DETECTED if bool(_detected(residual_z, test)) else Decision.NOT_DETECTED
    )


def _detected(z: float | np.ndarray, test: DetectionTest) -> bool | np.ndarray:
    """Vectorized strict-inequality critical-region membership."""
    lo, hi = _region(test.direction, test.offset)
    return (z > test.cfg.mu0 + hi) | (z < test.cfg.mu0 + lo)


@dataclass(frozen=True)
class RocPoint:
    """One operating point: size, threshold(s), and power.

    One-sided curves store the single threshold in k1 and leave k2 None.
    """

    alpha: float
    k1: float
    k2: float | None
    power: float


@dataclass(frozen=True)
class RocCurve:
    """Ordered ROC samples plus trapezoid AUC over [(0,0), ..., (1,1)]."""

    direction: TailDirection
    points: tuple[RocPoint, ...]
    auc: float

    def __post_init__(self):
        alphas = [p.alpha for p in self.points]
        powers = [p.power for p in self.points]
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("ROC grid sizes must be strictly increasing")
        # Small slack: power is mathematically nondecreasing in alpha, but
        # faithful rounding of exp can invert near-saturated neighbors.
        if any(p2 < p1 - 1e-12 for p1, p2 in zip(powers, powers[1:])):
            raise ValueError("ROC powers must be nondecreasing in alpha")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"AUC must lie in [0, 1], got {self.auc}")


def roc_curve(
    cfg: MechanismConfig,
    attack: AttackSpec,
    direction: TailDirection,
    grid: int = 999,
) -> RocCurve:
    """Sweep alpha over {i/(grid+1)} and record threshold(s) and power.

    The default 999-point grid samples alpha = 0.001 ... 0.999; AUC is the
    trapezoid rule over the grid augmented with the limit endpoints (0,0)
    and (1,1).
    """
    if grid < 2:
        raise ValueError(f"ROC grid needs at least 2 points, got {grid}")
    points = []
    for i in range(1, grid + 1):
        test = DetectionTest.from_alpha(i / (grid + 1), cfg, direction)
        points.append(RocPoint(test.alpha, test.k1, test.k2, test.power(attack)))
    xs = [0.0, *(p.alpha for p in points), 1.0]
    ys = [0.0, *(p.power for p in points), 1.0]
    auc = math.fsum(
        0.5 * (y1 + y2) * (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])
    )
    return RocCurve(direction=direction, points=tuple(points), auc=min(auc, 1.0))


@dataclass(frozen=True)
class BiasInterval:
    """Symmetric interval of biases, (s/eps) log(alpha power^theta) on each side."""

    lo: float
    hi: float


def bias_interval(
    alpha: float, beta_bar: float, cfg: MechanismConfig
) -> BiasInterval:
    """Interval for the bias implied by a two-sided test of size alpha, power beta_bar.

    lo = (s/eps)(ln alpha + theta ln beta_bar), finite where beta_bar^theta
    underflows, and hi = -lo; degenerates to (0, 0) at alpha = beta_bar = 1.
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
    header = ["alpha", "k1", "k2", "power"]
    _csv.write_csv(out, header, map(attrgetter(*header), curve.points))
