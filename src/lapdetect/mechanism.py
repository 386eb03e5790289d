"""Bounded-sum query, the mechanism and its attack, and the hypothesis pair.

Models the release pipeline under test: a server answers a sum query over
records in [0, C] (sensitivity s = C), perturbs it with Lap(mu0, s/eps)
noise, and publishes the result. An adversary may shift the published
value by a bias x_a; a scale inflation theta >= 1 models a change in the
noise spread under attack. The defender, knowing the noiseless query
value, works with the residual release - q(x) and must choose between

    H0: residual ~ Lap(mu0, s/eps)          (no attack)
    H1: residual ~ Lap(mu0 + x_a, theta*s/eps)

which is exactly the pair returned by :func:`hypothesis_pair`. The
releases q + z and (q + z) + x_a are formed only where they are simulated,
in :func:`lapdetect.montecarlo.run_attack_experiment`.
"""

from __future__ import annotations

import math
from pathlib import Path

from ._record import _Record
from .laplace import LaplaceDist

__all__ = [
    "MechanismConfig",
    "AttackSpec",
    "Dataset",
    "sum_query",
    "hypothesis_pair",
    "load_dataset",
]


class MechanismConfig(_Record):
    """Laplace mechanism parameters plus the attack's scale inflation.

    Args:
        s: Query sensitivity, > 0.
        eps: Privacy parameter, > 0; null noise scale is b0 = s/eps.
        theta: Scale inflation under attack, >= 1; theta = 1 means the
            attack shifts only the location.
        mu0: Null noise location (0 in the usual calibrated mechanism).

    All four must be finite, and so must b1 >= b0 > 0.
    """

    __slots__ = ("s", "eps", "theta", "mu0")

    def __init__(self, s: float, eps: float, theta: float = 1.0, mu0: float = 0.0):
        self._set(*map(float, (s, eps, theta, mu0)))
        for name, value in zip(self._fields, self._values()):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name}={value}")
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
        """Alternative noise scale theta*s/eps; theta*(s/eps) where theta*s overflows."""
        return ts / self.eps if (ts := self.theta * self.s) < math.inf else self.theta * self.b0

    def null_dist(self) -> LaplaceDist:
        return LaplaceDist(self.mu0, self.b0)


class AttackSpec(_Record):
    """A single injected record of value x_a, shifting the release by x_a.

    x_a may be negative but must be finite; x_a = 0 is the degenerate
    no-attack case in which the alternative hypothesis collapses onto the
    null (up to theta).
    """

    __slots__ = ("x_a",)

    def __init__(self, x_a: float):
        x_a = float(x_a)
        if not math.isfinite(x_a):
            raise ValueError(f"attack bias must be finite, got x_a={x_a}")
        self._set(x_a)

    @property
    def direction(self) -> int:
        """Sign of the induced bias: +1, -1, or 0."""
        return (self.x_a > 0) - (self.x_a < 0)


class Dataset(_Record):
    """Records confined to [0, bound]; the sum query then has sensitivity = bound."""

    __slots__ = ("records", "bound")

    def __init__(self, records: tuple[float, ...] = (), bound: float = 1.0):
        records = tuple(float(r) for r in records)
        if not bound >= 0.0:
            raise ValueError(f"record bound must be nonnegative, got {bound}")
        for i, r in enumerate(records):
            if not 0.0 <= r <= bound:
                raise ValueError(f"record {i} = {r} outside [0, {bound}]")
        self._set(records, bound)

    @property
    def sensitivity(self) -> float:
        """Sum-query sensitivity: neighbors differ by one record in [0, bound]."""
        return self.bound


def sum_query(data: Dataset) -> float:
    """Exact sum of the records (empty dataset sums to 0)."""
    return math.fsum(data.records)


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
    import csv
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].lower() == "value":
        rows = list(csv.reader(lines))
        values = [float(row[0]) for row in rows[1:]]
    else:
        values = [float(ln) for ln in lines]
    return Dataset(records=tuple(values), bound=bound)
