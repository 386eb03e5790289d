"""Bounded-sum query, Laplace release, and adversarial record injection.

Models the release pipeline under test: a server answers a sum query over
records in [0, C] (sensitivity s = C), perturbs it with Lap(mu0, s/eps)
noise, and publishes the result. An adversary may shift the published
value by a bias x_a; a scale inflation theta >= 1 models a change in the
noise spread under attack. The defender, knowing the noiseless query
value, works with the residual release - q(x) and must choose between

    H0: residual ~ Lap(mu0, s/eps)          (no attack)
    H1: residual ~ Lap(mu0 + x_a, theta*s/eps)

which is exactly the pair returned by :func:`hypothesis_pair`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .laplace import LaplaceDist, RngStream

__all__ = [
    "MechanismConfig",
    "AttackSpec",
    "Dataset",
    "sum_query",
    "noisy_release",
    "inject_attack",
    "hypothesis_pair",
    "load_dataset",
]


@dataclass(frozen=True)
class MechanismConfig:
    """Laplace mechanism parameters plus the attack's scale inflation.

    Args:
        s: Query sensitivity, > 0.
        eps: Privacy parameter, > 0; null noise scale is b0 = s/eps.
        theta: Scale inflation under attack, >= 1; theta = 1 means the
            attack shifts only the location.
        mu0: Null noise location (0 in the usual calibrated mechanism).

    All four must be finite, and so must b1 >= b0 > 0.
    """

    s: float
    eps: float
    theta: float = 1.0
    mu0: float = 0.0

    def __post_init__(self):
        for name in ("s", "eps", "theta", "mu0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name}={value}")
            object.__setattr__(self, name, value)
        if not self.s > 0.0:
            raise ValueError(f"sensitivity must be positive, got s={self.s}")
        if not self.eps > 0.0:
            raise ValueError(f"privacy parameter must be positive, got eps={self.eps}")
        if not self.theta >= 1.0:
            raise ValueError(f"scale inflation must be >= 1, got theta={self.theta}")
        if not (self.b0 > 0.0 and math.isfinite(self.b1)):
            raise ValueError(
                f"noise scale s/eps must be positive and finite, got s={self.s}, "
                f"eps={self.eps}, theta={self.theta}"
            )

    @property
    def b0(self) -> float:
        """Null noise scale s/eps."""
        return self.s / self.eps

    @property
    def b1(self) -> float:
        """Alternative noise scale theta*s/eps."""
        return self.theta * self.s / self.eps

    def null_dist(self) -> LaplaceDist:
        return LaplaceDist(self.mu0, self.b0)


@dataclass(frozen=True)
class AttackSpec:
    """A single injected record of value x_a, shifting the release by x_a.

    x_a may be negative but must be finite; x_a = 0 is the degenerate
    no-attack case in which the alternative hypothesis collapses onto the
    null (up to theta).
    """

    x_a: float

    def __post_init__(self):
        object.__setattr__(self, "x_a", float(self.x_a))
        if not math.isfinite(self.x_a):
            raise ValueError(f"attack bias must be finite, got x_a={self.x_a}")

    @property
    def direction(self) -> int:
        """Sign of the induced bias: +1, -1, or 0."""
        return (self.x_a > 0) - (self.x_a < 0)


@dataclass(frozen=True)
class Dataset:
    """Records confined to [0, bound]; the sum query then has sensitivity = bound."""

    records: tuple[float, ...] = field(default=())
    bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(float(r) for r in self.records))
        if not self.bound >= 0.0:
            raise ValueError(f"record bound must be nonnegative, got {self.bound}")
        for i, r in enumerate(self.records):
            if not 0.0 <= r <= self.bound:
                raise ValueError(
                    f"record {i} = {r} outside [0, {self.bound}]"
                )

    @property
    def sensitivity(self) -> float:
        """Sum-query sensitivity: neighbors differ by one record in [0, bound]."""
        return self.bound


def sum_query(data: Dataset) -> float:
    """Exact sum of the records (empty dataset sums to 0)."""
    return math.fsum(data.records)


def noisy_release(q_value: float, cfg: MechanismConfig, rng: RngStream) -> float:
    """Release q_value + Z with Z ~ Lap(mu0, s/eps), deterministic per stream."""
    return q_value + float(cfg.null_dist().sample(rng, 1)[0])


def inject_attack(
    release: float | np.ndarray, attack: AttackSpec
) -> float | np.ndarray:
    """The adversary shifts the published value(s) by x_a."""
    return release + attack.x_a


def hypothesis_pair(
    cfg: MechanismConfig, attack: AttackSpec
) -> tuple[LaplaceDist, LaplaceDist]:
    """Residual distributions under H0 and H1.

    Returns:
        (Lap(mu0, s/eps), Lap(mu0 + x_a, theta*s/eps)); their locations
        differ by exactly x_a and their scales by exactly the factor theta.
    """
    return (
        LaplaceDist(cfg.mu0, cfg.b0),
        LaplaceDist(cfg.mu0 + attack.x_a, cfg.b1),
    )


def load_dataset(path: str | Path, bound: float) -> Dataset:
    """Read records from a one-column CSV (header ``value``) or plain text.

    A file whose first nonblank line is ``value`` is treated as CSV;
    anything else is parsed as one float per nonblank line.
    """
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].lower() == "value":
        rows = list(csv.reader(lines))
        values = [float(row[0]) for row in rows[1:]]
    else:
        values = [float(ln) for ln in lines]
    return Dataset(records=tuple(values), bound=bound)
