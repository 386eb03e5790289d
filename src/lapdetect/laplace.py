"""Exact Laplace distribution calculus.

Everything downstream (mechanism noise, detection thresholds, error
probabilities, KL divergence) reduces to evaluating one Laplace density,
its tails, or its quantiles, so those primitives live here in closed form.
Tail probabilities are computed directly in the exponential branch rather
than via ``1 - cdf`` so that small masses keep full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LaplaceDist", "RngStream"]

# Open-interval uniform lattice: k / 2^53 for k in [1, 2^53 - 1]. Endpoints
# are excluded so the inverse transform never produces an infinite quantile.
_U_DENOM = 1 << 53
_U_SCALE = 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    A stream is a stateless handle: every generator derived from it starts
    at the beginning of the same sequence, so identical keys always yield
    identical draws. Distinct stream_ids give statistically independent
    sequences; use them as replicate indices.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # Mask to 64-bit words: SeedSequence rejects negative entropy.
        key = (self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF)
        return np.random.default_rng(np.random.SeedSequence(key))

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` i.i.d. uniforms strictly inside (0, 1)."""
        if n < 0:
            raise ValueError(f"sample count must be nonnegative, got {n}")
        return self.generator().integers(1, _U_DENOM, size=n) * _U_SCALE


@dataclass(frozen=True)
class LaplaceDist:
    """Laplace (double exponential) distribution with location mu, scale b.

    Density (1/2b) exp(-|z - mu| / b); variance 2 b^2. mu must be finite
    and b must lie in (0, inf).
    """

    mu: float
    b: float

    def __post_init__(self):
        # Plain floats keep the scalar fast paths free of numpy promotion.
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "b", float(self.b))
        if not math.isfinite(self.mu):
            raise ValueError(f"location must be finite, got mu={self.mu}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"scale must be positive and finite, got b={self.b}")

    def pdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """Density at ``z``; strictly positive and symmetric about mu."""
        if isinstance(z, (float, int)):
            return math.exp(-abs(z - self.mu) / self.b) / (2.0 * self.b)
        z = np.asarray(z, dtype=float)
        return np.exp(-np.abs(z - self.mu) / self.b) / (2.0 * self.b)

    def cdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """P(Z <= z): (1/2) e^((z-mu)/b) below mu, 1 - (1/2) e^(-(z-mu)/b) above."""
        if isinstance(z, (float, int)):
            t = 0.5 * math.exp(-abs(z - self.mu) / self.b)
            return t if z < self.mu else 1.0 - t
        z = np.asarray(z, dtype=float)
        t = 0.5 * np.exp(-np.abs(z - self.mu) / self.b)
        return np.where(z < self.mu, t, 1.0 - t)

    def survival(self, z: float | np.ndarray) -> float | np.ndarray:
        """P(Z > z), computed in the exponential branch for z >= mu.

        For z >= mu this returns (1/2) e^(-(z-mu)/b) directly, keeping full
        relative precision on the small tail masses used in ROC tails.
        """
        if isinstance(z, (float, int)):
            t = 0.5 * math.exp(-abs(z - self.mu) / self.b)
            return t if z > self.mu else 1.0 - t
        z = np.asarray(z, dtype=float)
        t = 0.5 * np.exp(-np.abs(z - self.mu) / self.b)
        return np.where(z > self.mu, t, 1.0 - t)

    def quantile(self, p: float) -> float:
        """Inverse CDF: the z with cdf(z) = p, for p strictly in (0, 1).

        Piecewise logarithmic closed form, exact at the median (p = 0.5
        returns mu bitwise). Both log arguments are computed without
        rounding: 2p exactly scales the mantissa, and 1 - p is exact for
        p >= 0.5, so each branch keeps full precision at both ends.
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
        if p < 0.5:
            return self.mu + self.b * math.log(2.0 * p)
        return self.mu - self.b * math.log(2.0 * (1.0 - p))

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """``n`` i.i.d. draws by inverse transform; deterministic per stream.

        The Monte Carlo harness runs the same kernel on per-thread buffers.
        """
        if n < 0:
            raise ValueError(f"sample count must be nonnegative, got {n}")
        return self._sample_into(rng, np.empty(n))

    def _sample_into(self, rng: RngStream, out: np.ndarray) -> np.ndarray:
        """Fill float64 ``out`` with mu - b sign(q) log1p(-2|q|), q = u - 0.5.

        One in-place pass per operation of that expression, in its order, so
        the draws match it bit for bit. log1p's argument is exact on the
        lattice k/2^53; b sign(q) reuses the lattice's int64 array.
        """
        k = rng.generator().integers(1, _U_DENOM, size=out.size)
        q = np.subtract(np.multiply(k, _U_SCALE, out=out), 0.5, out=out)
        sb = np.sign(q, out=k.view(np.float64))
        np.multiply(sb, self.b, out=sb)
        np.log1p(np.multiply(np.abs(q, out=q), -2.0, out=q), out=q)
        return np.subtract(self.mu, np.multiply(sb, q, out=q), out=q)

    def mean_abs_dev(self, c: float) -> float:
        """E|Z - c| = |c - mu| + b e^(-|c - mu|/b); equals b exactly at c = mu.

        Closed form follows from |Z - mu| being exponential with mean b.
        """
        d = abs(c - self.mu)
        return d + self.b * math.exp(-d / self.b)
