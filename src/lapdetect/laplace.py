"""Exact Laplace distribution calculus.

Everything downstream (mechanism noise, detection thresholds, error
probabilities, KL divergence) reduces to evaluating one Laplace density,
its tails, or its quantiles, so those primitives live here in closed form.
Tail probabilities are computed directly in the exponential branch rather
than via ``1 - cdf`` so that small masses keep full relative precision.
The array and sampling paths import numpy when they are called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import _Record

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LaplaceDist", "RngStream"]

# Open-interval uniform lattice: k / 2^53 for the odd k in [1, 2^53 - 1]. Endpoints
# are excluded so the inverse transform never produces an infinite quantile.
_U_DENOM = 1 << 53
_U_SCALE = 2.0**-53
_U_HALF = float(1 << 52)  # the lattice point of q = 0, where draws equal mu
# -log1p(-2|k/2^53 - 1/2|) at k = 1 and 2^53 - 1, the words below 2^11 and at
# or above 2^64 - 2^11: no draw lies farther than this many scales from mu.
_REACH = 52.0 * math.log(2.0)


class RngStream(_Record):
    """Deterministic random stream keyed by (seed, stream_id), both in [0, 2^64).

    A stream is a stateless handle: every draw starts at the beginning of
    the same sequence, so identical keys yield identical draws. Each key is
    two fixed 32-bit words, so distinct keys give statistically independent
    sequences; use stream_ids as replicate indices.
    """

    __slots__ = ("seed", "stream_id")

    def __init__(self, seed: int, stream_id: int = 0):
        for name, key in (("seed", seed), ("stream_id", stream_id)):
            if not 0 <= key < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {name}={key}")
        self._set(seed, stream_id)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` i.i.d. uniforms strictly inside (0, 1)."""
        return self._lattice(n) * _U_SCALE

    def _lattice(self, n: int) -> np.ndarray:
        """``n`` i.i.d. int64 lattice points (w >> 11) | 1 of ``_words(n)``: the odd k < 2^53."""
        k = self._words(n)
        k >>= 11
        k |= 1
        return k.view("int64")

    def _words(self, n: int) -> np.ndarray:
        """The first ``n`` raw uint64 words of this key's PCG64, which numpy keeps stable."""
        if n < 0:
            raise ValueError(f"sample count must be nonnegative, got {n}")
        import numpy as np
        return np.random.PCG64(self._seed_sequence()).random_raw(n)

    def _seed_sequence(self) -> np.random.SeedSequence:
        """The SeedSequence of the uint32 words seed low, seed high, stream_id low and
        stream_id high: every draw and derived seed starts here."""
        import numpy as np
        return np.random.SeedSequence(np.array([self.seed, self.stream_id], "<u8").view("<u4"))


class LaplaceDist(_Record):
    """Laplace (double exponential) distribution with location mu, scale b.

    Density (1/2b) exp(-|z - mu| / b); variance 2 b^2. mu must be finite
    and b must lie in (0, inf).
    """

    __slots__ = ("mu", "b")

    def __init__(self, mu: float, b: float):
        # Plain floats keep the scalar fast paths free of numpy promotion.
        mu, b = float(mu), float(b)
        if not math.isfinite(mu):
            raise ValueError(f"location must be finite, got mu={mu}")
        if not 0.0 < b < math.inf:
            raise ValueError(f"scale must be positive and finite, got b={b}")
        self._set(mu, b)

    def pdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """Density at ``z``; strictly positive and symmetric about mu."""
        if isinstance(z, (float, int)):
            return math.exp(-abs(z - self.mu) / self.b) / (2.0 * self.b)
        import numpy as np
        z = np.asarray(z, dtype=float)
        return np.exp(-np.abs(z - self.mu) / self.b) / (2.0 * self.b)

    def cdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """P(Z <= z): (1/2) e^((z-mu)/b) below mu, 1 - (1/2) e^(-(z-mu)/b) above."""
        if isinstance(z, (float, int)):
            t = 0.5 * math.exp(-abs(z - self.mu) / self.b)
            return t if z < self.mu else 1.0 - t
        import numpy as np
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
        import numpy as np
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

        The Monte Carlo harness counts detections among these same draws,
        forming only the few near a threshold (``_count``).
        """
        self._reach()
        return self._transform(rng._lattice(n))

    def _reach(self) -> tuple[float, float]:
        """The extreme draws mu -+ 52 ln 2 b, those of lattice points 1 and 2^53 - 1.

        Raises:
            ValueError: If either leaves the float range.
        """
        lo, hi = self.mu - _REACH * self.b, self.mu + _REACH * self.b
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"draws of {self} overflow the float range")
        return lo, hi

    def _transform(self, k: np.ndarray) -> np.ndarray:
        """mu - b sign(q) log1p(-2|q|), q = k/2^53 - 0.5, at int64 lattice points ``k``.

        Evaluated as written, one ufunc per operation, so the draws are that
        expression bit for bit; log1p's argument is exact on the lattice k/2^53.
        """
        import numpy as np
        q = k * _U_SCALE - 0.5
        return self.mu - (np.sign(q) * self.b) * np.log1p(np.abs(q) * -2.0)

    def _count(self, rng: RngStream, m: int, lo: float, hi: float, q=0.0, x_a=0.0) -> int:
        """How many r = ((q + x) + x_a) - q, x = sample(rng, m), lie below lo or above hi.

        q = x_a = 0 counts x; an infinite end counts nothing. For a finite end t, lattice
        points outside ``_cuts(t - x_a, |q| + |x_a|)``, or none if t - x_a overflowed, are
        counted on the raw words w (k > K exactly when w >= ((K + 1) & ~1) << 11, a uint64
        cut, or never at 2^64); the rest go through the release pipeline, whose three
        monotone float operations round by at most 2^-53 of |q| + |t - x_a| + |x_a|.
        """
        import numpy as np
        w = rng._words(m)
        hits = 0
        for t, below in ((lo, True), (hi, False)):
            if not math.isfinite(t):
                continue
            c = t - x_a
            k_lo, k_hi = self._cuts(c, abs(q) + abs(x_a)) if math.isfinite(c) else (0, _U_DENOM)
            w_lo, w_hi = (min(max(k + 1, 0) & ~1, _U_DENOM) << 11 for k in (k_lo - 1, k_hi))
            from_lo, above = (int(np.count_nonzero(w >= np.uint64(x))) if x < 1 << 64 else 0
                              for x in (w_lo, w_hi))
            hits += m - from_lo if below else above
            if from_lo > above:  # so w_lo < w_hi <= 2^64
                band = w[(w >= np.uint64(w_lo)) & (w <= np.uint64(w_hi - 1))]
                r = (q + self._transform(band >> 11 | 1)) + x_a - q
                hits += int(np.count_nonzero(r < t if below else r > t))
        return hits

    def _cuts(self, t: float, pad: float = 0.0) -> tuple[int, int]:
        """Lattice points lo <= hi with k > hi drawing x > t and k < lo x < t.

        The exact draw g(k) strictly increases in k, and rounding moves it by
        far less than e near t: log1p and the product round relative to
        |t - mu|, the subtraction to |t|, a subnormal product by 2^-1075. So
        [lo, hi] brackets g^-1(t -/+ e), padded beyond the rounding of g^-1
        itself, whose relative error is below 2^-42 while exp does not flush.
        ``pad``, |q| + |x_a| in ``_count``, keeps its pipeline's roundings inside e.
        """
        e = 2.0**-38 * (abs(self.mu) + abs(t) + abs(t - self.mu) + pad) + 2.0**-1060
        lo = math.floor(self._lattice_point(t - e) * (1.0 - 2.0**-40)) - (1 << 14)
        return lo, math.ceil(self._lattice_point(t + e) * (1.0 + 2.0**-40)) + (1 << 14)

    def _lattice_point(self, y: float) -> float:
        """g^-1(y) in [0, 2^53]: the real k whose exact draw is y."""
        z = (y - self.mu) / self.b
        return _U_HALF * math.exp(z) if z < 0.0 else _U_DENOM - _U_HALF * math.exp(-z)

    def mean_abs_dev(self, c: float) -> float:
        """E|Z - c| = |c - mu| + b e^(-|c - mu|/b); equals b exactly at c = mu.

        Closed form follows from |Z - mu| being exponential with mean b.
        """
        d = abs(c - self.mu)
        return d + self.b * math.exp(-d / self.b)
