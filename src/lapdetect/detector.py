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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"size must lie strictly in (0, 1), got alpha={alpha}")
    d0 = cfg.null_dist()
    if direction is TailDirection.RIGHT:
        # Mirror of the quantile's two branches: exact log arguments on
        # both sides, and both branches meet at k = mu0 bitwise.
        if alpha < 0.5:
            return d0.mu - d0.b * math.log(2.0 * alpha)
        return d0.mu + d0.b * math.log(2.0 * (1.0 - alpha))
    if direction is TailDirection.LEFT:
        return d0.quantile(alpha)
    raise ValueError("one-sided threshold requires a right or left tail")


def one_sided_size(k: float, cfg: MechanismConfig, direction: TailDirection) -> float:
    """False-alarm probability of the threshold test: null mass beyond k."""
    d0 = cfg.null_dist()
    if direction is TailDirection.RIGHT:
        return d0.survival(k)
    if direction is TailDirection.LEFT:
        return d0.cdf(k)
    raise ValueError("one-sided size requires a right or left tail")


def one_sided_power(
    k: float, cfg: MechanismConfig, attack: AttackSpec, direction: TailDirection
) -> float:
    """Detection probability: alternative mass beyond k; always in [0, 1]."""
    _, h1 = hypothesis_pair(cfg, attack)
    if direction is TailDirection.RIGHT:
        return h1.survival(k)
    if direction is TailDirection.LEFT:
        return h1.cdf(k)
    raise ValueError("one-sided power requires a right or left tail")


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
    if not 0.0 < alpha <= 1.0:
        raise ValueError(
            f"size must lie in (0, 1] (log alpha diverges at 0), got alpha={alpha}"
        )
    t = cfg.b0 * math.log(alpha)
    return cfg.mu0 - t, cfg.mu0 + t


def two_sided_size(k1: float, k2: float, cfg: MechanismConfig) -> float:
    """False-alarm probability of the two-sided test: null mass outside (k2, k1)."""
    if k2 > k1:
        raise ValueError(f"thresholds must satisfy k2 <= k1, got ({k1}, {k2})")
    d0 = cfg.null_dist()
    return d0.cdf(k2) + d0.survival(k1)


def two_sided_power(
    k1: float, k2: float, cfg: MechanismConfig, attack: AttackSpec
) -> float:
    """Detection probability of the two-sided test: H1 mass outside (k2, k1).

    Equals (1/2) e^{eps(k2-mu1)/(theta s)} + (1/2) e^{-eps(k1-mu1)/(theta s)}
    whenever k2 <= mu1 <= k1, and remains a valid probability when mu1
    falls outside the acceptance interval.
    """
    if k2 > k1:
        raise ValueError(f"thresholds must satisfy k2 <= k1, got ({k1}, {k2})")
    _, h1 = hypothesis_pair(cfg, attack)
    return h1.cdf(k2) + h1.survival(k1)


@dataclass(frozen=True)
class DetectionTest:
    """A calibrated test: tail direction, threshold(s), and size alpha.

    One-sided tests carry ``k``; two-sided tests carry ``k1 >= k2``
    symmetric about mu0. Construction re-derives the size from the
    thresholds and rejects if it disagrees with ``alpha`` by more than
    1e-12, so a DetectionTest is internally consistent by invariant.
    """

    direction: TailDirection
    alpha: float
    cfg: MechanismConfig
    k: float | None = None
    k1: float | None = None
    k2: float | None = None

    def __post_init__(self):
        if self.direction.one_sided:
            if self.k is None or self.k1 is not None or self.k2 is not None:
                raise ValueError("one-sided test takes k and no (k1, k2)")
        else:
            if self.k1 is None or self.k2 is None or self.k is not None:
                raise ValueError("two-sided test takes (k1, k2) and no k")
            if self.k2 > self.k1:
                raise ValueError(f"need k2 <= k1, got ({self.k1}, {self.k2})")
            mid = 0.5 * (self.k1 + self.k2)
            if abs(mid - self.cfg.mu0) > _SIZE_ATOL * max(1.0, abs(self.cfg.mu0)):
                raise ValueError(
                    f"two-sided thresholds must be symmetric about mu0="
                    f"{self.cfg.mu0}, got midpoint {mid}"
                )
        size = self.size()
        if abs(size - self.alpha) > _SIZE_ATOL:
            raise ValueError(
                f"threshold(s) give size {size}, which is not alpha={self.alpha}"
            )

    @classmethod
    def from_alpha(
        cls, alpha: float, cfg: MechanismConfig, direction: TailDirection
    ) -> "DetectionTest":
        """Calibrate the threshold(s) for a requested size."""
        if direction.one_sided:
            k = one_sided_threshold(alpha, cfg, direction)
            return cls(direction=direction, alpha=alpha, cfg=cfg, k=k)
        k1, k2 = two_sided_thresholds(alpha, cfg)
        return cls(direction=direction, alpha=alpha, cfg=cfg, k1=k1, k2=k2)

    def size(self) -> float:
        """False-alarm probability: null mass of the critical region."""
        if self.direction.one_sided:
            return one_sided_size(self.k, self.cfg, self.direction)
        return two_sided_size(self.k1, self.k2, self.cfg)

    def power(self, attack: AttackSpec) -> float:
        """Detection probability: alternative mass of the critical region."""
        if self.direction.one_sided:
            return one_sided_power(self.k, self.cfg, attack, self.direction)
        return two_sided_power(self.k1, self.k2, self.cfg, attack)


def kappa(test: DetectionTest, attack: AttackSpec) -> float:
    """Likelihood-ratio cutoff of the one-sided test's critical region.

    (1/theta) exp{ +-(eps/(theta s)) (k(1+theta) - theta mu0 - mu1) } with
    the sign set by the bias direction; coincides with likelihood_ratio
    evaluated at z = k whenever k lies between mu0 and mu1.
    """
    if not test.direction.one_sided:
        raise ValueError("the likelihood-ratio cutoff is defined for one-sided tests")
    if attack.direction == 0:
        raise ValueError("cutoff undefined for zero bias (hypotheses coincide)")
    cfg = test.cfg
    mu1 = cfg.mu0 + attack.x_a
    expo = (cfg.eps / (cfg.theta * cfg.s)) * (
        test.k * (1.0 + cfg.theta) - cfg.theta * cfg.mu0 - mu1
    )
    return math.exp(expo if attack.direction > 0 else -expo) / cfg.theta


def decide(residual_z: float, test: DetectionTest) -> Decision:
    """Classify one residual; boundary values are NotDetected (strict tails)."""
    return (
        Decision.DETECTED if bool(_detected(residual_z, test)) else Decision.NOT_DETECTED
    )


def _detected(z: float | np.ndarray, test: DetectionTest) -> bool | np.ndarray:
    """Vectorized strict-inequality critical-region membership."""
    if test.direction is TailDirection.RIGHT:
        return z > test.k
    if test.direction is TailDirection.LEFT:
        return z < test.k
    return (z > test.k1) | (z < test.k2)


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
        alpha = i / (grid + 1)
        test = DetectionTest.from_alpha(alpha, cfg, direction)
        power = test.power(attack)
        if direction.one_sided:
            points.append(RocPoint(alpha=alpha, k1=test.k, k2=None, power=power))
        else:
            points.append(RocPoint(alpha=alpha, k1=test.k1, k2=test.k2, power=power))
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

    lo = (s/eps) ln(alpha * beta_bar^theta) and hi = -lo; degenerates to
    (0, 0) at alpha = beta_bar = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(
            f"size must lie in (0, 1]: log(alpha) diverges at alpha={alpha}"
        )
    if not 0.0 < beta_bar <= 1.0:
        raise ValueError(
            f"power must lie in (0, 1]: log diverges at beta_bar={beta_bar}"
        )
    lo = cfg.b0 * math.log(alpha * beta_bar**cfg.theta)
    return BiasInterval(lo=lo, hi=0.0 - lo)


def write_roc_csv(curve: RocCurve, out: str | Path | io.TextIOBase) -> None:
    """Emit ``alpha,k1,k2,power`` rows, floats at 17 significant digits.

    One-sided curves leave the k2 column empty.
    """
    header = ["alpha", "k1", "k2", "power"]
    _csv.write_csv(out, header, map(attrgetter(*header), curve.points))
