"""Release pipeline tests: query, noising, injection, hypothesis setup."""

import math

import numpy as np
import pytest

from lapdetect import (
    AttackSpec,
    Dataset,
    LaplaceDist,
    MechanismConfig,
    RngStream,
    hypothesis_pair,
    inject_attack,
    load_dataset,
    noisy_release,
    sum_query,
)


class TestMechanismConfig:
    def test_scales(self):
        cfg = MechanismConfig(s=1.0, eps=0.5, theta=2.0)
        assert cfg.b0 == 2.0
        assert cfg.b1 == 4.0

    def test_theta_one_permitted(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.0)
        assert cfg.b1 == cfg.b0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.0, "eps": 1.0},
            {"s": -1.0, "eps": 1.0},
            {"s": 1.0, "eps": 0.0},
            {"s": 1.0, "eps": -0.5},
            {"s": 1.0, "eps": 1.0, "theta": 0.99},
            {"s": math.inf, "eps": 1.0},
            {"s": 1.0, "eps": math.nan},
            {"s": 1.0, "eps": math.inf},
            {"s": 1.0, "eps": 1.0, "theta": math.inf},
            {"s": 1.0, "eps": 1.0, "mu0": math.nan},
            {"s": 1.0, "eps": 1.0, "mu0": -math.inf},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MechanismConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 1e300, "eps": 1e-10},  # b0 = s/eps overflows
            {"s": 1e300, "eps": 0.5, "theta": 1e10},  # only b1 overflows
            {"s": 1e-300, "eps": 1e300},  # b0 underflows to 0
        ],
    )
    def test_noise_scale_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError, match="noise scale s/eps must be positive"):
            MechanismConfig(**kwargs)

    @pytest.mark.parametrize("x_a", [math.nan, math.inf, -math.inf])
    def test_attack_bias_must_be_finite(self, x_a):
        with pytest.raises(ValueError, match="finite"):
            AttackSpec(x_a)

    def test_null_dist(self):
        cfg = MechanismConfig(s=2.0, eps=4.0, mu0=-1.0)
        d = cfg.null_dist()
        assert (d.mu, d.b) == (-1.0, 0.5)


class TestDataset:
    def test_sensitivity_is_bound(self):
        data = Dataset(records=(0.5,) * 10, bound=1.0)
        assert data.sensitivity == 1.0
        assert sum_query(data) == 5.0

    def test_records_immutable_tuple(self):
        data = Dataset(records=[1.0, 2.0], bound=2.0)
        assert isinstance(data.records, tuple)

    def test_out_of_range_record_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Dataset(records=(0.5, 1.5), bound=1.0)
        with pytest.raises(ValueError, match="outside"):
            Dataset(records=(-0.1,), bound=1.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            Dataset(records=(), bound=-1.0)


class TestSumQuery:
    def test_simple(self):
        assert sum_query(Dataset(records=(1.0, 2.0, 3.0), bound=3.0)) == 6.0

    def test_empty(self):
        assert sum_query(Dataset(records=(), bound=1.0)) == 0.0

    def test_exact_accumulation(self):
        # fsum keeps the result correctly rounded even for adversarial
        # cancellation-prone inputs.
        data = Dataset(records=(0.1,) * 10, bound=1.0)
        assert sum_query(data) == pytest.approx(1.0, abs=1e-15)


class TestNoisyRelease:
    def test_additivity_with_fixed_stream(self):
        cfg = MechanismConfig(s=1.0, eps=1.0)
        rng = RngStream(seed=17, stream_id=3)
        z = float(cfg.null_dist().sample(rng, 1)[0])
        assert noisy_release(6.0, cfg, rng) == 6.0 + z

    def test_deterministic(self):
        cfg = MechanismConfig(s=1.0, eps=1.0)
        a = noisy_release(0.0, cfg, RngStream(5))
        b = noisy_release(0.0, cfg, RngStream(5))
        assert a == b

    def test_residual_identity_across_streams(self):
        # release - q is bitwise the stream's noise draw: the residual the
        # defender forms is exactly Lap(mu0, s/eps) distributed.
        cfg = MechanismConfig(s=2.0, eps=0.8, mu0=0.5)
        d = cfg.null_dist()
        for i in range(1000):
            rng = RngStream(seed=11, stream_id=i)
            assert noisy_release(0.0, cfg, rng) == float(d.sample(rng, 1)[0])

    def test_large_eps_variance_vanishes(self):
        # Var = 2 (s/eps)^2; for eps = 1e6 repeated releases barely move.
        cfg = MechanismConfig(s=1.0, eps=1e6)
        rel = np.array([noisy_release(10.0, cfg, RngStream(1, i)) for i in range(2000)])
        assert rel.var() == pytest.approx(2.0 * cfg.b0**2, rel=0.2)
        assert np.all(np.abs(rel - 10.0) < 1e-4)

    def test_mean_within_clt_band(self):
        # Residuals of n releases have mean within 3 sqrt(2) b / sqrt(n);
        # checked on the bitwise-equal noise stream (see residual identity).
        cfg = MechanismConfig(s=1.0, eps=1.0)
        n = 10**6
        z = cfg.null_dist().sample(RngStream(13), n)
        assert abs(z.mean()) < 3.0 * math.sqrt(2.0) * cfg.b0 / math.sqrt(n)


class TestInjectAttack:
    def test_positive_bias(self):
        assert inject_attack(10.0, AttackSpec(2.0)) == 12.0

    def test_negative_bias(self):
        assert inject_attack(10.0, AttackSpec(-3.0)) == 7.0

    def test_zero_is_identity(self):
        assert inject_attack(10.0, AttackSpec(0.0)) == 10.0

    def test_direction_sign(self):
        assert AttackSpec(2.0).direction == 1
        assert AttackSpec(-0.5).direction == -1
        assert AttackSpec(0.0).direction == 0


class TestHypothesisPair:
    def test_unit_case(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.0)
        h0, h1 = hypothesis_pair(cfg, AttackSpec(1.0))
        assert (h0.mu, h0.b) == (0.0, 1.0)
        assert (h1.mu, h1.b) == (1.0, 1.0)

    def test_scale_pair(self):
        cfg = MechanismConfig(s=1.0, eps=0.5, theta=2.0)
        h0, h1 = hypothesis_pair(cfg, AttackSpec(0.0))
        assert (h0.b, h1.b) == (2.0, 4.0)

    def test_degenerate_no_attack(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.0)
        h0, h1 = hypothesis_pair(cfg, AttackSpec(0.0))
        assert h0 == h1

    def test_location_shift_is_bias(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, mu0=0.0)
        for x_a in (-3.5, -0.25, 0.75, 4.0):
            h0, h1 = hypothesis_pair(cfg, AttackSpec(x_a))
            assert h1.mu - h0.mu == x_a

    def test_scale_ratio_is_theta(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.5)
        h0, h1 = hypothesis_pair(cfg, AttackSpec(1.0))
        assert h1.b / h0.b == 1.5


class TestLoadDataset:
    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("value\n0.5\n0.25\n1.0\n")
        data = load_dataset(p, bound=1.0)
        assert data.records == (0.5, 0.25, 1.0)
        assert data.bound == 1.0

    def test_plain_text(self, tmp_path):
        p = tmp_path / "records.txt"
        p.write_text("0.5\n\n0.25\n1.0\n")
        data = load_dataset(p, bound=1.0)
        assert data.records == (0.5, 0.25, 1.0)

    def test_bound_violation_from_file(self, tmp_path):
        p = tmp_path / "records.txt"
        p.write_text("0.5\n2.0\n")
        with pytest.raises(ValueError, match="outside"):
            load_dataset(p, bound=1.0)


def test_residual_keeps_laplace_shape():
    """KS check on the release pipeline residuals at n = 1e6.

    noisy_release(q) - q is bitwise the stream's Laplace draw (see the
    residual identity test), so the pipeline's residuals are sampled here
    through the equivalent vectorized path to keep the test fast.
    """
    cfg = MechanismConfig(s=1.0, eps=2.0)
    n = 10**6
    z = np.sort(cfg.null_dist().sample(RngStream(71), n))
    theory = cfg.null_dist().cdf(z)
    grid = np.arange(n, dtype=float)
    ks = max(np.max(theory - grid / n), np.max((grid + 1.0) / n - theory))
    assert ks < 1.63 / math.sqrt(n)
