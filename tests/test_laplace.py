"""Distribution calculus tests: closed forms vs quadrature and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdetect import LaplaceDist, RngStream
from oracles import integral


class TestPdf:
    def test_peak_is_half_inverse_scale(self):
        assert LaplaceDist(0.0, 1.0).pdf(0.0) == 0.5
        assert LaplaceDist(3.0, 2.0).pdf(3.0) == 0.25

    def test_unit_decay(self):
        assert LaplaceDist(0.0, 1.0).pdf(1.0) == pytest.approx(
            math.exp(-1.0) / 2.0, rel=1e-15
        )

    def test_symmetry_and_positivity(self):
        d = LaplaceDist(1.7, 0.4)
        z = np.linspace(-20.0, 20.0, 501)
        vals = d.pdf(z)
        assert np.all(vals > 0.0)
        np.testing.assert_allclose(vals, d.pdf(2.0 * d.mu - z), rtol=1e-14)

    def test_scalar_matches_vector(self):
        d = LaplaceDist(-2.0, 3.0)
        z = np.array([-5.0, -2.0, 0.0, 4.0])
        np.testing.assert_array_equal(d.pdf(z), [d.pdf(float(v)) for v in z])

    def test_integrates_to_one(self):
        for d in (LaplaceDist(0.0, 1.0), LaplaceDist(-3.2, 0.05), LaplaceDist(7.0, 11.0)):
            total = integral(d, d.pdf, d.mu - 40.0 * d.b, d.mu + 40.0 * d.b)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestCdfSurvival:
    def test_median(self):
        d = LaplaceDist(0.0, 1.0)
        assert d.cdf(0.0) == 0.5
        assert d.survival(0.0) == 0.5

    def test_log_two_quartiles(self):
        d = LaplaceDist(0.0, 1.0)
        assert d.cdf(math.log(2.0)) == pytest.approx(0.75, rel=1e-15)
        assert d.cdf(-math.log(2.0)) == pytest.approx(0.25, rel=1e-15)

    def test_survival_exponential_branch(self):
        # Above the location the tail is exactly (1/2) e^(-(z-mu)/b).
        d = LaplaceDist(0.0, 1.0)
        for k in (0.5, 1.0, 5.0, 10.0, 50.0):
            assert d.survival(k) == 0.5 * math.exp(-k)

    def test_deep_tail_against_quadrature(self):
        d = LaplaceDist(0.0, 1.0)
        tail = integral(d, d.pdf, 10.0, 45.0)
        assert d.survival(10.0) == pytest.approx(tail, abs=1e-10)
        assert d.survival(10.0) == pytest.approx(0.5 * math.exp(-10.0), rel=1e-15)

    def test_monotone_nondecreasing(self):
        d = LaplaceDist(2.0, 0.7)
        z = np.linspace(-15.0, 20.0, 2000)
        assert np.all(np.diff(d.cdf(z)) >= 0.0)

    def test_complement_identity(self):
        # survival + cdf = 1 within 1e-15 out to 30 scale lengths.
        d = LaplaceDist(-1.0, 2.5)
        z = np.linspace(d.mu - 30.0 * d.b, d.mu + 30.0 * d.b, 4001)
        np.testing.assert_allclose(d.cdf(z) + d.survival(z), 1.0, atol=1e-15, rtol=0)


class TestQuantile:
    def test_median_is_location_bitwise(self):
        assert LaplaceDist(5.0, 2.0).quantile(0.5) == 5.0
        assert LaplaceDist(-0.0, 0.1).quantile(0.5) == 0.0

    def test_quartiles(self):
        d = LaplaceDist(0.0, 1.0)
        assert d.quantile(0.75) == pytest.approx(math.log(2.0), rel=1e-15)
        assert d.quantile(0.25) == pytest.approx(-math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            LaplaceDist(0.0, 1.0).quantile(p)

    def test_roundtrip_cdf_quantile(self):
        # quantile(cdf(z)) = z within 1e-10 wherever the cdf value itself
        # can carry the information: above mu + ~13 b the tail rounds into
        # 1's float spacing and the roundtrip error grows like
        # ulp * b * e^((z-mu)/b), so that envelope takes over there.
        d = LaplaceDist(1.5, 0.8)
        zs = np.linspace(d.mu - 20.0 * d.b, d.mu + 20.0 * d.b, 1000)
        for z in zs:
            z = float(z)
            p = float(d.cdf(z))
            envelope = 4.0 * 1.1e-16 * d.b * math.exp((z - d.mu) / d.b)
            assert d.quantile(p) == pytest.approx(z, abs=max(1e-10, envelope))

    def test_roundtrip_cdf_quantile_deep_tail_via_survival(self):
        # The survival branch keeps the deep right tail exact: inverting
        # P(Z > z) recovers z to full precision out to 20 scale lengths.
        d = LaplaceDist(1.5, 0.8)
        for x in np.linspace(0.0, 20.0, 200):
            z = d.mu + float(x) * d.b
            t = float(d.survival(z))
            zq = 2.0 * d.mu - d.quantile(t)  # mirror of the left-tail inverse
            assert zq == pytest.approx(z, abs=1e-10)

    def test_roundtrip_quantile_cdf(self):
        d = LaplaceDist(-4.0, 3.0)
        for p in np.linspace(1e-6, 1.0 - 1e-6, 997):
            assert float(d.cdf(d.quantile(float(p)))) == pytest.approx(
                float(p), abs=1e-12
            )


class TestSampling:
    def test_empty(self):
        z = LaplaceDist(0.0, 1.0).sample(RngStream(1), 0)
        assert z.shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LaplaceDist(0.0, 1.0).sample(RngStream(1), -1)

    def test_negative_uniform_count_rejected(self):
        with pytest.raises(ValueError, match="sample count must be nonnegative, got -1"):
            RngStream(1).uniforms(-1)

    def test_deterministic_per_stream(self):
        d = LaplaceDist(0.0, 1.0)
        a = d.sample(RngStream(42, 7), 1000)
        b = d.sample(RngStream(42, 7), 1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        d = LaplaceDist(0.0, 1.0)
        a = d.sample(RngStream(42, 0), 1000)
        b = d.sample(RngStream(42, 1), 1000)
        assert not np.array_equal(a, b)

    def test_mean_within_clt_band(self):
        # std of the mean is sqrt(2) b / sqrt(n).
        d = LaplaceDist(0.0, 1.0)
        z = d.sample(RngStream(2024), 10**6)
        assert abs(z.mean()) < 3.0 * math.sqrt(2.0) / 1e3

    def test_variance_is_two_b_squared(self):
        d = LaplaceDist(0.0, 2.0)
        z = d.sample(RngStream(5), 10**6)
        assert z.var() == pytest.approx(2.0 * d.b**2, rel=0.01)

    def test_kolmogorov_smirnov_band(self):
        # Empirical CDF within the 99% KS band 1.63/sqrt(n) at n = 1e6.
        d = LaplaceDist(0.5, 1.3)
        n = 10**6
        z = np.sort(d.sample(RngStream(99), n))
        theory = d.cdf(z)
        grid = np.arange(n, dtype=float)
        ks = max(
            np.max(theory - grid / n),
            np.max((grid + 1.0) / n - theory),
        )
        assert ks < 1.63 / math.sqrt(n)

    def test_all_draws_finite(self):
        z = LaplaceDist(0.0, 1e-3).sample(RngStream(7), 10**5)
        assert np.all(np.isfinite(z))

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(1e-300, 1e8),
        negative=st.booleans(),
        b=st.floats(1e-6, 1e300),
        n=st.sampled_from([1, 65535, 65536]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_kernel_matches_closed_form_bitwise(self, mu, negative, b, n, seed):
        # The in-place kernel must reproduce the plain inverse transform on
        # RngStream.uniforms, operation for operation.
        mu = -mu if negative else mu
        q = RngStream(seed, n).uniforms(n) - 0.5
        want = mu - b * np.sign(q) * np.log1p(-2 * np.abs(q))
        got = LaplaceDist(mu, b).sample(RngStream(seed, n), n)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestLatticeCount:
    """``_count`` counts detections on the integer lattice; it must equal the
    count over the transformed draws exactly, ties and rounding included."""

    @staticmethod
    def _assert_exact(d: LaplaceDist, stream: RngStream, m: int, t: float) -> None:
        x = d.sample(stream, m)
        assert d._count(stream, m, -math.inf, t) == int(np.count_nonzero(x > t)), (d, t)
        assert d._count(stream, m, t, math.inf) == int(np.count_nonzero(x < t)), (d, t)
        # Both ends of a two-sided region in one call.
        assert d._count(stream, m, t, t) == int(np.count_nonzero(x != t))

    @staticmethod
    def _thresholds(d: LaplaceDist, x: np.ndarray) -> list[float]:
        return [x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf), d.mu]

    @settings(max_examples=150, deadline=None)
    @given(
        mu=st.floats(0.0, 1e8),
        negative=st.booleans(),
        b=st.floats(1e-6, 1e6),
        m=st.sampled_from([1, 1000, 65536]),
        seed=st.integers(0, 2**63 - 1),
        pick=st.integers(0, 3),
        j=st.integers(0, 65535),
    )
    def test_equals_count_over_draws(self, mu, negative, b, m, seed, pick, j):
        d = LaplaceDist(-mu if negative else mu, b)
        stream = RngStream(seed, 9)
        t = float(self._thresholds(d, d.sample(stream, m)[j % m])[pick])
        self._assert_exact(d, stream, m, t)

    @pytest.mark.parametrize(
        "mu, b", [(0.0, 5e-324), (-2.5, 5e-324), (1e8, 1e-6), (-1e8, 1e-6)]
    )
    def test_exact_where_the_band_covers_the_lattice(self, mu, b):
        # Rounding at these (mu, b) spans the noise scale, so every lattice
        # point near mu is in the band and is transformed.
        d = LaplaceDist(mu, b)
        lo, hi = d._cuts(d.mu)
        assert lo <= 1 and hi >= 2**53 - 1
        stream = RngStream(31, 4)
        x = d.sample(stream, 4096)
        for t in self._thresholds(d, x[17]) + [float(x.max()), float(x.min())]:
            self._assert_exact(d, stream, 4096, float(t))


class TestMeanAbsDev:
    def test_at_location_equals_scale_exactly(self):
        assert LaplaceDist(0.0, 1.0).mean_abs_dev(0.0) == 1.0
        assert LaplaceDist(0.0, 2.0).mean_abs_dev(0.0) == 2.0
        assert LaplaceDist(-3.0, 0.37).mean_abs_dev(-3.0) == 0.37

    def test_off_center_against_quadrature(self):
        # E|Z - 2| via direct integration of |z - 2| pdf(z).
        d = LaplaceDist(0.0, 1.0)
        c = 2.0
        oracle = integral(d, lambda z: abs(z - c) * d.pdf(z), -45.0, 47.0, c)
        assert d.mean_abs_dev(c) == pytest.approx(2.0 + math.exp(-2.0), rel=1e-15)
        assert d.mean_abs_dev(c) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric_in_offset(self):
        # Dyadic offsets so mu + d and mu - d are exact floats.
        d = LaplaceDist(1.0, 0.9)
        for off in (0.25, 0.5, 2.0, 6.25):
            assert d.mean_abs_dev(1.0 + off) == d.mean_abs_dev(1.0 - off)


class TestConstruction:
    @pytest.mark.parametrize("b", [0.0, -1.0, math.inf, math.nan])
    def test_scale_must_be_positive(self, b):
        with pytest.raises(ValueError, match="scale"):
            LaplaceDist(0.0, b)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_location_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="location"):
            LaplaceDist(mu, 1.0)

    def test_rng_stream_uniforms_open_interval(self):
        u = RngStream(3, 1).uniforms(10**5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    @pytest.mark.parametrize("key", [(-123, 4), (123, -4), (2**64, 0), (0, 2**64)])
    def test_rng_stream_key_out_of_range_rejected(self, key):
        # Masking such keys to 64 bits made -1 and 2^64 - 1 one stream.
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            RngStream(*key)
