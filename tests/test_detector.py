"""Detection machinery tests: thresholds, sizes, powers, ROC, intervals.

Every closed form is checked against the quadrature oracles in
tests/oracles.py; sampled cross-checks use fixed seeds.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lapdetect import (
    AttackSpec,
    Decision,
    DetectionTest,
    LaplaceDist,
    MechanismConfig,
    RngStream,
    TailDirection,
    bias_interval,
    decide,
    detector,
    hypothesis_pair,
    kappa,
    kl_laplace,
    likelihood_ratio,
    roc_curve,
    write_roc_csv,
)
from oracles import laplace_shift_auc, left_mass, np_region, outside_mass, right_mass

RIGHT, LEFT, TWO = TailDirection.RIGHT, TailDirection.LEFT, TailDirection.TWO_SIDED

UNIT = MechanismConfig(s=1.0, eps=1.0)


def region(direction, offset):
    """The (lo, hi) fields of the 0.6 test (direction, offset)."""
    shapes = {RIGHT: (-math.inf, offset), LEFT: (offset, math.inf), TWO: (-offset, offset)}
    return dict(zip(("lo", "hi"), shapes[direction]))


def at_k(k, cfg, direction):
    """The one-sided test whose threshold is the uncalibrated absolute k.

    Its size is the H0 tail beyond k, so its size() and power() are the H0
    and H1 masses of that tail.
    """
    h0 = cfg.null_dist()
    alpha = h0.survival(k) if direction is RIGHT else h0.cdf(k)
    return DetectionTest(alpha=alpha, cfg=cfg, **region(direction, k - cfg.mu0))


def threshold(alpha, cfg, direction):
    return DetectionTest.from_alpha(alpha, cfg, direction).k


class TestOneSidedThreshold:
    def test_quartile_values(self):
        assert threshold(0.25, UNIT, RIGHT) == pytest.approx(
            math.log(2.0), rel=1e-15
        )
        assert threshold(0.75, UNIT, RIGHT) == pytest.approx(
            -math.log(2.0), rel=1e-15
        )

    def test_half_is_location_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.1, 10.0)),
                eps=float(rng.uniform(0.05, 5.0)),
                mu0=float(rng.uniform(-50.0, 50.0)),
            )
            assert threshold(0.5, cfg, RIGHT) == cfg.mu0
            assert threshold(0.5, cfg, LEFT) == cfg.mu0

    def test_matches_branch_closed_forms(self):
        # k = mu0 - (s/eps) ln(2 alpha) on the small-alpha side and
        # mu0 + (s/eps) ln(2 (1 - alpha)) on the other, for the right tail.
        cfg = MechanismConfig(s=1.3, eps=0.6, mu0=-2.0)
        for alpha in (0.01, 0.2, 0.49):
            assert threshold(alpha, cfg, RIGHT) == cfg.mu0 - cfg.b0 * math.log(
                2.0 * alpha
            )
        for alpha in (0.51, 0.8, 0.99):
            assert threshold(alpha, cfg, RIGHT) == cfg.mu0 + cfg.b0 * math.log(
                2.0 * (1.0 - alpha)
            )

    def test_left_is_mirror(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, mu0=0.0)
        for alpha in (0.05, 0.3, 0.5, 0.7, 0.95):
            assert threshold(alpha, cfg, LEFT) == pytest.approx(
                -threshold(alpha, cfg, RIGHT), abs=1e-15
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.2])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            threshold(alpha, UNIT, RIGHT)

    def test_two_sided_direction_rejected(self):
        # A two-sided request is a pair, not a one-sided threshold, and the
        # one-sided cutoff rejects it.
        t = DetectionTest.from_alpha(0.1, UNIT, TWO)
        assert t.k2 is not None and t.k1 != threshold(0.1, UNIT, RIGHT)
        with pytest.raises(ValueError, match="one-sided"):
            kappa(t, AttackSpec(1.0))


class TestOneSidedSizeAndPower:
    def test_size_at_location(self):
        assert at_k(UNIT.mu0, UNIT, RIGHT).size() == 0.5

    def test_size_exponential_branches(self):
        # Published tail forms: (1/2) e^{-(eps/s)(k-mu0)} for k >= mu0 and
        # 1 - (1/2) e^{(eps/s)(k-mu0)} below.
        assert at_k(1.0, UNIT, RIGHT).size() == pytest.approx(
            0.5 * math.exp(-1.0), rel=1e-15
        )
        assert at_k(-1.0, UNIT, RIGHT).size() == pytest.approx(
            1.0 - 0.5 * math.exp(-1.0), rel=1e-15
        )

    def test_roundtrip_alpha_grid(self):
        # size(threshold(alpha)) = alpha within 1e-12 over the whole grid.
        cfg = MechanismConfig(s=2.0, eps=0.7, mu0=1.0)
        for i in range(1, 1000):
            alpha = i / 1000.0
            for d in (RIGHT, LEFT):
                t = DetectionTest.from_alpha(alpha, cfg, d)
                assert abs(t.size() - alpha) <= 1e-12

    def test_power_half_at_alternative_location(self):
        attack = AttackSpec(1.0)
        assert at_k(1.0, UNIT, RIGHT).power(attack) == 0.5

    def test_power_frozen_value_with_oracles(self):
        # k = ln 2 against H1 = Lap(1, 1): mass of (ln 2, inf) is 1 - 1/e.
        # Frozen from the quadrature oracle; Monte Carlo agrees.
        k = math.log(2.0)
        attack = AttackSpec(1.0)
        power = at_k(k, UNIT, RIGHT).power(attack)
        assert power == pytest.approx(0.6321205588285577, rel=1e-15)
        _, h1 = hypothesis_pair(UNIT, attack)
        assert power == pytest.approx(right_mass(h1, k), abs=1e-9)
        n = 10**6
        z = h1.sample(RngStream(31), n)
        mc = np.count_nonzero(z > k) / n
        assert power == pytest.approx(mc, abs=3.0 * math.sqrt(power * (1 - power) / n))

    def test_power_saturates_with_bias(self):
        assert at_k(2.0, UNIT, RIGHT).power(AttackSpec(1e9)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert at_k(-2.0, UNIT, LEFT).power(AttackSpec(-1e9)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_always_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.1, 4.0)),
                eps=float(rng.uniform(0.05, 4.0)),
                theta=float(rng.uniform(1.0, 3.0)),
            )
            k = float(rng.uniform(-20.0, 20.0))
            p = at_k(k, cfg, RIGHT).power(AttackSpec(float(rng.uniform(-8, 8))))
            assert 0.0 <= p <= 1.0


class TestLikelihoodRatio:
    def test_midpoint_is_one(self):
        assert likelihood_ratio(0.5, UNIT, AttackSpec(1.0)) == 1.0

    def test_scale_inflated_value(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=2.0)
        lr = likelihood_ratio(2.0, cfg, AttackSpec(1.0))
        assert lr == pytest.approx(0.5 * math.exp(1.5), rel=1e-15)

    def test_matches_density_ratio(self):
        cfg = MechanismConfig(s=1.0, eps=0.8, theta=1.4, mu0=0.3)
        attack = AttackSpec(-1.2)
        h0, h1 = hypothesis_pair(cfg, attack)
        for z in np.linspace(-8.0, 8.0, 97):
            z = float(z)
            assert likelihood_ratio(z, cfg, attack) == pytest.approx(
                h1.pdf(z) / h0.pdf(z), rel=1e-13
            )

    def test_dp_bound_when_bias_within_sensitivity(self):
        # theta = 1 and |bias| <= s confine the ratio to [e^-eps, e^eps].
        rng = np.random.default_rng(11)
        for _ in range(20):
            eps = float(rng.uniform(0.05, 4.0))
            s = float(rng.uniform(0.1, 5.0))
            cfg = MechanismConfig(s=s, eps=eps)
            attack = AttackSpec(float(rng.uniform(-s, s)))
            z = rng.uniform(-30.0 * cfg.b0, 30.0 * cfg.b0, size=10**4)
            lr = likelihood_ratio(z, cfg, attack)
            assert np.all(lr >= math.exp(-eps) - 1e-15)
            assert np.all(lr <= math.exp(eps) + 1e-15)

    def test_vector_matches_scalar(self):
        attack = AttackSpec(2.0)
        z = np.array([-1.0, 0.0, 1.0, 3.0])
        vec = likelihood_ratio(z, UNIT, attack)
        np.testing.assert_array_equal(
            vec, [likelihood_ratio(float(v), UNIT, attack) for v in z]
        )

    def test_vector_overflow_is_inf_like_scalar(self):
        # e^(2000 - 1000) overflows: the scalar path returns inf, and the
        # array path must too, without an overflow warning.
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=2.0)
        scalar = likelihood_ratio(2000.0, cfg, AttackSpec(0.0))
        vec = likelihood_ratio(np.array([2000.0]), cfg, AttackSpec(0.0))
        assert scalar == math.inf
        np.testing.assert_array_equal(vec, [scalar])


class TestKappa:
    def test_midpoint_cutoff_is_one(self):
        k = 0.5  # midpoint of mu0 = 0, mu1 = 1 at theta = 1
        t = at_k(k, UNIT, RIGHT)
        assert kappa(t, AttackSpec(1.0)) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value(self):
        # k = ln 2, mu1 = 1: cutoff e^{2 ln 2 - 1} = 4/e.
        t = DetectionTest.from_alpha(0.25, UNIT, RIGHT)
        assert kappa(t, AttackSpec(1.0)) == pytest.approx(4.0 / math.e, rel=1e-14)

    def test_mirror_case(self):
        # Negative bias mirrors the positive-bias cutoff.
        t = DetectionTest.from_alpha(0.25, UNIT, LEFT)
        assert t.k == pytest.approx(-math.log(2.0), rel=1e-15)
        assert kappa(t, AttackSpec(-1.0)) == pytest.approx(4.0 / math.e, rel=1e-14)

    def test_equals_likelihood_ratio_between_locations(self):
        # Wherever k lands between mu0 and mu1 the cutoff is the ratio at k.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            cfg = MechanismConfig(
                s=float(rng.uniform(0.2, 3.0)),
                eps=float(rng.uniform(0.1, 3.0)),
                theta=float(rng.uniform(1.0, 2.5)),
                mu0=float(rng.uniform(-2.0, 2.0)),
            )
            x_a = float(rng.uniform(0.3, 5.0))
            alpha = float(rng.uniform(0.02, 0.49))
            t = DetectionTest.from_alpha(alpha, cfg, RIGHT)
            k = t.k
            if not cfg.mu0 <= k <= cfg.mu0 + x_a:
                continue
            attack = AttackSpec(x_a)
            assert kappa(t, attack) == pytest.approx(
                likelihood_ratio(k, cfg, attack), abs=1e-12, rel=1e-12
            )
            checked += 1

    def test_rejects_two_sided_and_zero_bias(self):
        t2 = DetectionTest.from_alpha(0.1, UNIT, TWO)
        with pytest.raises(ValueError, match="one-sided"):
            kappa(t2, AttackSpec(1.0))
        t1 = DetectionTest.from_alpha(0.1, UNIT, RIGHT)
        with pytest.raises(ValueError, match="zero bias"):
            kappa(t1, AttackSpec(0.0))


class TestTwoSided:
    def test_alpha_one_collapses_to_location(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, mu0=2.5)
        t = DetectionTest.from_alpha(1.0, cfg, TWO)
        assert (t.k1, t.k2) == (2.5, 2.5)

    def test_frozen_five_percent(self):
        t = DetectionTest.from_alpha(0.05, UNIT, TWO)
        k1, k2 = t.k1, t.k2
        assert k1 == pytest.approx(2.9957322735539909, rel=1e-15)
        assert k2 == -k1
        # Quadrature oracle: each outer region holds alpha/2.
        d0 = UNIT.null_dist()
        assert outside_mass(d0, k1, k2) == pytest.approx(0.05, abs=1e-9)

    def test_half_splits_at_quartiles(self):
        t = DetectionTest.from_alpha(0.5, UNIT, TWO)
        k1, k2 = t.k1, t.k2
        assert k1 == pytest.approx(math.log(2.0), rel=1e-15)
        assert k2 == pytest.approx(-math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            DetectionTest.from_alpha(alpha, UNIT, TWO)

    def test_size_roundtrip_grid(self):
        cfg = MechanismConfig(s=0.5, eps=2.0, mu0=-1.0)
        for i in range(1, 1000):
            alpha = i / 1000.0
            t = DetectionTest.from_alpha(alpha, cfg, TWO)
            assert abs(t.size() - alpha) <= 1e-12

    def test_power_equals_size_when_null_true(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.0)
        power = DetectionTest.from_alpha(0.2, cfg, TWO).power(AttackSpec(0.0))
        assert power == pytest.approx(0.2, rel=1e-13)

    def test_power_frozen_at_upper_threshold(self):
        # mu1 sitting exactly on k1: half mass above plus the sliver below k2.
        t = DetectionTest.from_alpha(0.05, UNIT, TWO)
        k1, k2 = t.k1, t.k2
        power = t.power(AttackSpec(k1))
        assert power == pytest.approx(0.50125, rel=1e-12)
        _, h1 = hypothesis_pair(UNIT, AttackSpec(k1))
        assert power == pytest.approx(outside_mass(h1, k1, k2), abs=1e-9)

    def test_power_saturates(self):
        t = DetectionTest.from_alpha(0.05, UNIT, TWO)
        assert t.power(AttackSpec(1e9)) == pytest.approx(1.0)
        assert t.power(AttackSpec(-1e9)) == pytest.approx(1.0)

    def test_closed_form_inside_regime(self):
        # (1/2) e^{eps(k2-mu1)/(theta s)} + (1/2) e^{-eps(k1-mu1)/(theta s)}
        # for k2 <= mu1 <= k1.
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.5)
        t = DetectionTest.from_alpha(0.1, cfg, TWO)
        k1, k2 = t.k1, t.k2
        mu1 = 1.0
        expected = 0.5 * math.exp((k2 - mu1) / cfg.b1) + 0.5 * math.exp(
            -(k1 - mu1) / cfg.b1
        )
        assert t.power(AttackSpec(mu1)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_power_monotone_in_absolute_bias(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.0)
        t = DetectionTest.from_alpha(0.1, cfg, TWO)
        powers = [t.power(AttackSpec(d)) for d in np.linspace(0.0, 8.0, 50)]
        assert all(b >= a - 1e-15 for a, b in zip(powers, powers[1:]))


class TestDetectionTest:
    def test_from_alpha_roundtrip(self):
        t = DetectionTest.from_alpha(0.1, UNIT, RIGHT)
        assert t.alpha == 0.1
        assert t.k == pytest.approx(math.log(5.0), rel=1e-15)

    def test_inconsistent_alpha_rejected(self):
        with pytest.raises(ValueError, match="size"):
            DetectionTest(alpha=0.2, cfg=UNIT, **region(RIGHT, 1.0))

    @pytest.mark.parametrize("direction", [RIGHT, LEFT, TWO])
    def test_nan_alpha_rejected(self, direction):
        # |size - nan| > tol is False, so the size check must not be phrased that way.
        with pytest.raises(ValueError, match="is not alpha=nan"):
            DetectionTest(alpha=math.nan, cfg=UNIT, **region(direction, 1.0))

    def test_two_sided_requires_symmetry(self):
        # One half-width is symmetric about mu0 by construction; it must
        # not be negative.
        with pytest.raises(ValueError, match="half-width"):
            DetectionTest(alpha=1.0, cfg=UNIT, **region(TWO, -0.5))

    def test_threshold_field_shape_enforced(self):
        for old in (
            {"k": 0.0},
            {"k1": 0.0, "k2": 0.0},
            {"direction": RIGHT, "offset": 0.0},
            {"direction": RIGHT, "lo": -math.inf, "hi": 0.0},
            {"offset": 0.0, "lo": -math.inf, "hi": 0.0},
        ):
            with pytest.raises(TypeError):
                DetectionTest(alpha=0.5, cfg=UNIT, **old)
        for direction in (RIGHT, LEFT, TWO):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    DetectionTest(alpha=0.5, cfg=UNIT, **region(direction, bad))

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (1.0, 0.5),
            (math.inf, 1.0),
            (1.0, -math.inf),
            (math.nan, 1.0),
            (-1.0, math.nan),
            (math.nan, math.inf),
            (-math.inf, math.nan),
            (-math.inf, math.inf),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
            (-1.0, 2.0),
            (-2.0, 1.0),
        ],
    )
    def test_hand_built_region_rejected(self, lo, hi):
        # alpha is the region's own size where that is a number, so the size
        # check alone would accept (-inf, inf) and the asymmetric pairs.
        h0 = UNIT.null_dist()
        size = h0.cdf(lo) + h0.survival(hi)
        alpha = size if 0.0 <= size <= 1.0 else 0.5
        with pytest.raises(ValueError, match="finite|half-width"):
            DetectionTest(alpha=alpha, cfg=UNIT, lo=lo, hi=hi)

    @pytest.mark.parametrize("direction", [RIGHT, LEFT, TWO])
    def test_region_fields_and_derived_names(self, direction):
        assert DetectionTest._fields == ("alpha", "cfg", "lo", "hi")
        cfg = MechanismConfig(s=1.3, eps=0.7, mu0=-1.7)
        t = DetectionTest.from_alpha(0.1, cfg, direction)
        assert {"lo": t.lo, "hi": t.hi} == region(direction, t.offset)
        assert t.direction is direction
        assert DetectionTest(0.1, cfg, t.lo, t.hi) == t
        assert t.k1 == cfg.mu0 + t.offset
        assert t.k2 == (None if direction.one_sided else cfg.mu0 + t.lo)


class TestDecide:
    def test_right_tail(self):
        t = at_k(1.0, UNIT, RIGHT)
        assert decide(2.0, t) is Decision.DETECTED
        assert decide(0.5, t) is Decision.NOT_DETECTED

    def test_boundary_not_detected(self):
        # The release must strictly exceed the threshold.
        t = at_k(1.0, UNIT, RIGHT)
        assert decide(1.0, t) is Decision.NOT_DETECTED

    def test_left_tail(self):
        t = at_k(-1.0, UNIT, LEFT)
        assert decide(-2.0, t) is Decision.DETECTED
        assert decide(0.0, t) is Decision.NOT_DETECTED

    def test_two_sided_interior(self):
        t = DetectionTest.from_alpha(0.05, UNIT, TWO)
        assert decide(0.0, t) is Decision.NOT_DETECTED
        assert decide(t.k1 + 0.1, t) is Decision.DETECTED
        assert decide(t.k2 - 0.1, t) is Decision.DETECTED
        assert decide(t.k1, t) is Decision.NOT_DETECTED

    @pytest.mark.parametrize("direction", [RIGHT, LEFT, TWO])
    def test_nan_residual_rejected(self, direction):
        # NaN compares false against every threshold; it must not pass as
        # NotDetected.
        t = DetectionTest.from_alpha(0.05, UNIT, direction)
        with pytest.raises(ValueError, match="NaN"):
            decide(math.nan, t)


class TestRocCurve:
    def test_diagonal_when_hypotheses_coincide(self):
        curve = roc_curve(UNIT, AttackSpec(0.0), RIGHT, grid=99)
        for p in curve.points:
            assert p.power == pytest.approx(p.alpha, rel=1e-14)
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_low_budget_regime_is_near_diagonal(self):
        # eps = 0.015 drowns a bias equal to the sensitivity: the test is
        # barely better than random guessing.
        cfg = MechanismConfig(s=1.0, eps=0.015)
        curve = roc_curve(cfg, AttackSpec(1.0), RIGHT)
        assert max(abs(p.power - p.alpha) for p in curve.points) < 0.01

    def test_high_budget_auc_with_analytic_and_mc_oracle(self):
        cfg = MechanismConfig(s=1.0, eps=2.0)
        curve = roc_curve(cfg, AttackSpec(1.0), RIGHT)
        assert curve.auc > 0.8
        analytic = laplace_shift_auc(2.0)  # delta mu / b0 = eps dmu / s
        assert curve.auc == pytest.approx(analytic, abs=2e-4)
        h0, h1 = hypothesis_pair(cfg, AttackSpec(1.0))
        n = 10**6
        z0 = h0.sample(RngStream(401, 0), n)
        z1 = h1.sample(RngStream(401, 1), n)
        mc = np.count_nonzero(z1 > z0) / n
        assert curve.auc == pytest.approx(mc, abs=3.0 * 0.5 / math.sqrt(n) + 2e-4)

    def test_powers_monotone(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1.5)
        for direction in (RIGHT, TWO):
            curve = roc_curve(cfg, AttackSpec(1.0), direction, grid=199)
            powers = [p.power for p in curve.points]
            assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_two_sided_stores_both_thresholds(self):
        curve = roc_curve(UNIT, AttackSpec(1.0), TWO, grid=9)
        for p in curve.points:
            assert p.k2 is not None and p.k2 <= p.k1

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid"):
            roc_curve(UNIT, AttackSpec(1.0), RIGHT, grid=1)

    def test_grid_spacing(self):
        curve = roc_curve(UNIT, AttackSpec(1.0), RIGHT, grid=999)
        assert len(curve.points) == 999
        assert curve.points[0].alpha == pytest.approx(0.001)
        assert curve.points[-1].alpha == pytest.approx(0.999)

    # The extremes of every range, each direction, on the 999-point grid
    # that crosses the alpha = 0.5 branch: run on every run, not by chance.
    @example(mu0=1e8, s=1e-3, eps=5.0, theta=3.0, x_a=10.0, direction=RIGHT, grid=999)
    @example(mu0=-1e8, s=1e3, eps=0.01, theta=3.0, x_a=-1e-3, direction=RIGHT, grid=999)
    @example(mu0=1e8, s=1e-3, eps=5.0, theta=3.0, x_a=-10.0, direction=LEFT, grid=999)
    @example(mu0=-1e8, s=1e3, eps=0.01, theta=3.0, x_a=1e-3, direction=LEFT, grid=999)
    @example(mu0=1e8, s=1e-3, eps=5.0, theta=3.0, x_a=1e-3, direction=TWO, grid=999)
    @example(mu0=-1e8, s=1e3, eps=0.01, theta=3.0, x_a=-10.0, direction=TWO, grid=999)
    @settings(max_examples=40, deadline=None)
    @given(
        mu0=st.floats(0.0, 1e8) | st.floats(-1e8, 0.0),
        s=st.floats(1e-3, 1e3),
        eps=st.floats(0.01, 5.0),
        theta=st.floats(1.0, 3.0),
        x_a=st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3),
        direction=st.sampled_from(list(TailDirection)),
        grid=st.sampled_from([2, 99, 999]),
    )
    def test_points_equal_detection_test_bit_for_bit(
        self, mu0, s, eps, theta, x_a, direction, grid
    ):
        cfg = MechanismConfig(s=s, eps=eps, theta=theta, mu0=mu0)
        attack = AttackSpec(x_a)
        curve = roc_curve(cfg, attack, direction, grid)
        assert len(curve.points) == grid
        for i, p in enumerate(curve.points, start=1):
            t = DetectionTest.from_alpha(i / (grid + 1), cfg, direction)
            assert (p.alpha, p.k1, p.k2, p.power) == (t.alpha, t.k1, t.k2, t.power(attack))

    @pytest.mark.parametrize(
        "points, auc, message",
        [
            ([(0.2, 0.5), (0.2, 0.6)], 0.5, "sizes must be strictly increasing"),
            ([(0.1, 0.5), (0.2, 0.5 - 2e-12)], 0.5, "powers must be nondecreasing"),
            ([(0.1, 0.5), (0.2, 0.6)], 1.5, r"AUC must lie in \[0, 1\], got 1.5"),
            # Sizes fall from 0.5 to 0.2 across the NaN.
            ([(0.5, math.nan), (math.nan, 0.1), (0.2, 0.2)], 0.5, "NaN"),
            ([(math.nan, 0.5)], 0.5, "NaN"),
            ([(0.5, math.nan)], 0.5, "NaN"),
            ([(math.nan, 0.2), (0.2, 0.3)], 0.5, "NaN"),
            ([(0.1, math.nan), (0.2, 0.3)], 0.5, "NaN"),
            ([(0.1, 0.2), (0.2, 0.3), (math.nan, 0.4)], 0.5, "NaN"),
            ([(0.1, 0.2), (0.2, 0.3), (0.3, math.nan)], 0.5, "NaN"),
        ],
        ids=["sizes", "powers", "auc", "nan-falling", "nan-one-alpha", "nan-one-power",
             "nan-first-alpha", "nan-first-power", "nan-last-alpha", "nan-last-power"],
    )
    def test_inconsistent_curve_rejected(self, points, auc, message):
        pts = tuple(detector.RocPoint(a, 0.0, None, p) for a, p in points)
        with pytest.raises(ValueError, match=message):
            detector.RocCurve(RIGHT, pts, auc)

    @pytest.mark.parametrize("direction", [RIGHT, LEFT, TWO])
    def test_every_point_is_size_checked(self, monkeypatch, direction):
        # No size can lie within a negative tolerance of alpha, so each
        # place that runs the self-check must now reject.
        monkeypatch.setattr(detector, "_SIZE_ATOL", -1.0)
        with pytest.raises(ValueError, match="is not alpha"):
            roc_curve(UNIT, AttackSpec(1.0), direction, grid=9)
        with pytest.raises(ValueError, match="is not alpha"):
            DetectionTest.from_alpha(0.1, UNIT, direction)

    @pytest.mark.parametrize("direction, bad", [(RIGHT, "inf"), (LEFT, "-inf"), (TWO, "inf")])
    def test_overflowing_offset_rejected(self, direction, bad):
        # b0 = 1.7e308 times a log of magnitude above 1.06 leaves the float range.
        cfg = MechanismConfig(s=1.7e308, eps=1.0)
        with pytest.raises(ValueError, match=f"threshold offset must be finite, got {bad}$"):
            roc_curve(cfg, AttackSpec(1.0), direction)

    @pytest.mark.parametrize("direction", [RIGHT, LEFT, TWO])
    def test_sweep_makes_no_per_point_distribution_calls(self, monkeypatch, direction):
        # A timing-free guard: the sweep works on columns, so a per-point
        # slow path through the scalar LaplaceDist tails shows up as calls.
        calls = []
        for name in ("cdf", "survival"):
            method = getattr(LaplaceDist, name)

            def counted(self, z, _method=method):
                calls.append(z)
                return _method(self, z)

            monkeypatch.setattr(LaplaceDist, name, counted)
        curve = roc_curve(UNIT, AttackSpec(1.0), direction, grid=999)
        assert len(curve.points) == 999
        assert len(calls) == 0


class TestRocPoint:
    def test_named_tuple_contract(self):
        p = detector.RocPoint(0.25, 1.5, None, 0.75)
        assert p == detector.RocPoint(alpha=0.25, k1=1.5, k2=None, power=0.75)
        assert detector.RocPoint._fields == ("alpha", "k1", "k2", "power")
        with pytest.raises(AttributeError):
            p.power = 0.5
        twin = detector.RocPoint(0.25, 1.5, None, 0.75)
        assert p == twin and hash(p) == hash(twin)
        assert p != detector.RocPoint(0.25, 1.5, 0.0, 0.75)
        # The dataclass repr of earlier versions, unchanged.
        assert repr(p) == "RocPoint(alpha=0.25, k1=1.5, k2=None, power=0.75)"

    def test_behaves_as_a_tuple_of_its_fields(self):
        p = detector.RocPoint(0.25, 1.5, -1.5, 0.75)
        alpha, k1, k2, power = p
        assert (alpha, k1, k2, power) == p == (0.25, 1.5, -1.5, 0.75)
        assert p[3] == p.power == 0.75
        assert p._replace(power=0.5) == (0.25, 1.5, -1.5, 0.5)


class TestBiasInterval:
    def test_degenerate_at_ones(self):
        iv = bias_interval(1.0, 1.0, UNIT)
        assert iv.lo == 0.0 and iv.hi == 0.0

    def test_frozen_values(self):
        iv = bias_interval(0.05, 0.8, UNIT)
        assert iv.lo == pytest.approx(math.log(0.04), rel=1e-15)
        assert iv.hi == -iv.lo

    def test_theta_sharpens(self):
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=2.0)
        iv = bias_interval(0.05, 0.8, cfg)
        assert iv.lo == pytest.approx(math.log(0.05 * 0.64), rel=1e-14)

    def test_no_underflow_at_large_theta(self):
        # beta_bar^theta underflows to 0 at theta = 1e4; its log does not.
        cfg = MechanismConfig(s=1.0, eps=1.0, theta=1e4)
        iv = bias_interval(0.5, 0.5, cfg)
        assert iv.lo == pytest.approx(-10001.0 * math.log(2.0), rel=1e-14)
        assert iv.hi == -iv.lo

    def test_width_formula(self):
        cfg = MechanismConfig(s=2.0, eps=0.5)
        alpha, beta_bar = 0.1, 0.7
        iv = bias_interval(alpha, beta_bar, cfg)
        width = 2.0 * cfg.b0 * math.log(1.0 / (alpha * beta_bar**cfg.theta))
        assert iv.hi - iv.lo == pytest.approx(width, rel=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            iv = bias_interval(
                float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 1.0)), UNIT
            )
            assert iv.lo == -iv.hi

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-6, 1.0),
        beta_bar=st.floats(1e-3, 1.0),
        s=st.floats(1e-3, 1e3),
        eps=st.floats(0.01, 10.0),
        theta=st.floats(1.0, 5.0),
        mu0=st.floats(-1e3, 1e3),
    )
    def test_ends_give_half_beta_bar_inside_the_two_sided_thresholds(
        self, alpha, beta_bar, s, eps, theta, mu0
    ):
        # What the interval means: at x_a = hi the attacked residual falls
        # below the two-sided test's upper threshold h with probability
        # beta_bar/2 (mirrored at lo), so the power there is not beta_bar.
        cfg = MechanismConfig(s=s, eps=eps, theta=theta, mu0=mu0)
        iv = bias_interval(alpha, beta_bar, cfg)
        t = DetectionTest.from_alpha(alpha, cfg, TWO)
        h = t.offset
        assert LaplaceDist(iv.hi, cfg.b1).cdf(h) == pytest.approx(beta_bar / 2, rel=1e-12)
        assert LaplaceDist(iv.lo, cfg.b1).survival(-h) == pytest.approx(beta_bar / 2, rel=1e-12)
        power = 1.0 - beta_bar / 2 + 0.5 * math.exp(-(iv.hi + h) / cfg.b1)
        assert t.power(AttackSpec(iv.hi)) == pytest.approx(power, rel=1e-12)
        assert t.power(AttackSpec(iv.lo)) == pytest.approx(power, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta_bar", [(0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (0.5, 1.2)])
    def test_domain(self, alpha, beta_bar):
        with pytest.raises(ValueError, match="log|lie"):
            bias_interval(alpha, beta_bar, UNIT)


class TestSizePowerAgainstQuadrature:
    def test_random_configurations(self):
        # Closed-form sizes/powers match density integrals over the
        # critical region (the full 1e3-configuration sweep runs in the
        # acceptance suite; this is the per-module slice).
        rng = np.random.default_rng(17)
        for _ in range(60):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.2, 3.0)),
                eps=float(rng.uniform(0.1, 3.0)),
                theta=float(rng.uniform(1.0, 2.0)),
                mu0=float(rng.uniform(-3.0, 3.0)),
            )
            attack = AttackSpec(float(rng.uniform(-5.0, 5.0)) * cfg.s)
            alpha = float(rng.uniform(0.01, 0.99))
            h0, h1 = hypothesis_pair(cfg, attack)
            t = DetectionTest.from_alpha(alpha, cfg, RIGHT)
            assert t.size() == pytest.approx(right_mass(h0, t.k), abs=1e-8)
            assert t.power(attack) == pytest.approx(right_mass(h1, t.k), abs=1e-8)
            tl = DetectionTest.from_alpha(alpha, cfg, LEFT)
            assert tl.size() == pytest.approx(left_mass(h0, tl.k), abs=1e-8)
            t2 = DetectionTest.from_alpha(alpha, cfg, TWO)
            assert t2.power(attack) == pytest.approx(
                outside_mass(h1, t2.k1, t2.k2), abs=1e-8
            )


class TestMostPowerfulRegion:
    """The paper's best critical region against the three test shapes, at s = eps = 1."""

    DMUS, ALPHAS = (0.25, 1.0, 4.0), (0.01, 0.05, 0.1, 0.3)

    @staticmethod
    def _case(theta, dmu):
        cfg, attack = MechanismConfig(s=1.0, eps=1.0, theta=theta), AttackSpec(dmu)
        return cfg, attack, hypothesis_pair(cfg, attack)

    # alpha = 0.005 at dmu 4 lies below 1/2 e^-4, on the flat top of the ratio.
    @pytest.mark.parametrize("dmu", DMUS)
    @pytest.mark.parametrize("alpha", (*ALPHAS, 0.005))
    def test_right_tail_is_most_powerful_without_inflation(self, dmu, alpha):
        cfg, attack, (p0, p1) = self._case(1.0, dmu)
        power = DetectionTest.from_alpha(alpha, cfg, RIGHT).power(attack)
        assert power == pytest.approx(np_region(alpha, p0, p1)[2], abs=1e-12)

    @pytest.mark.parametrize("theta", (1.5, 2.0, 3.0, 5.0))
    @pytest.mark.parametrize("dmu", DMUS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_no_calibrated_test_beats_the_region(self, theta, dmu, alpha):
        cfg, attack, (p0, p1) = self._case(theta, dmu)
        best = np_region(alpha, p0, p1)[2]
        for direction in TailDirection:
            assert DetectionTest.from_alpha(alpha, cfg, direction).power(attack) <= best + 1e-12

    @pytest.mark.parametrize(
        "theta, dmu, alpha, best, right, two",
        [(2.0, 1.0, 0.3, 0.6674, 0.6085, 0.6176), (5.0, 1.0, 0.05, 0.5630, 0.3853, 0.5603)],
    )
    def test_unequal_tails_win_past_theta_one(self, theta, dmu, alpha, best, right, two):
        # Powers found by a brute-force scan over the split of alpha between the tails.
        cfg, attack, (p0, p1) = self._case(theta, dmu)
        a, k, power = np_region(alpha, p0, p1)
        assert power == pytest.approx(best, abs=5e-5)
        assert k - cfg.mu0 != cfg.mu0 - a  # unequal tails
        for direction, expected in ((RIGHT, right), (TWO, two)):
            got = DetectionTest.from_alpha(alpha, cfg, direction).power(attack)
            assert got == pytest.approx(expected, abs=5e-5)


class TestPrivacyCeiling:
    """DP's ceiling on detection: at theta = 1, H0 and H1 are eps'-indistinguishable.

    Hypothesis-testing DP then bounds the power of every size-alpha test by
    min(e^eps' alpha, 1 - e^-eps' (1 - alpha)) (Wasserman & Zhou 2010;
    Kairouz, Oh & Viswanath 2015), and the divergence by eps' tanh(eps'/2),
    the tight KL bound of an eps'-indistinguishable pair.
    """

    # Largest relative excess of a power over the ceiling over 210,000 random
    # cases in these ranges: 3.3e-15, where the one-sided test meets it.
    RTOL = 4e-15
    # kl_laplace sums terms of size 1 + eps', so its rounding is absolute in
    # that unit. Largest excess over eps' tanh(eps'/2) in that unit over the
    # same cases, 150,000 of them with |x_a| log-uniform in 3s [1e-12, 1e-2],
    # where the bound is tightest: 3.1e-16.
    KL_ATOL = 4e-16

    # s, eps, x_a = ratio * s and mu0 over these ranges; alpha in [1e-6, 0.999].
    SHIFT = dict(
        s=st.floats(0.1, 5.0),
        eps=st.floats(0.01, 8.0),
        ratio=st.floats(-3.0, 3.0),
        mu0=st.floats(-5.0, 5.0),
    )

    @staticmethod
    def _case(s, eps, ratio, mu0):
        """(cfg, attack, eps') at theta = 1, with eps' = |x_a|/b0."""
        cfg, attack = MechanismConfig(s=s, eps=eps, mu0=mu0), AttackSpec(ratio * s)
        return cfg, attack, abs(attack.x_a) / cfg.b0

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1e-6, 0.999), **SHIFT)
    def test_no_test_beats_the_ceiling(self, alpha, s, eps, ratio, mu0):
        cfg, attack, e = self._case(s, eps, ratio, mu0)
        # 1 - e^-eps' (1 - alpha), with no cancellation against 1.
        ceiling = min(math.exp(e) * alpha, -math.expm1(-e) + math.exp(-e) * alpha)
        for direction in TailDirection:
            power = DetectionTest.from_alpha(alpha, cfg, direction).power(attack)
            assert power <= ceiling * (1.0 + self.RTOL)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1e-6, 0.999), **SHIFT)
    def test_one_sided_test_toward_the_bias_meets_the_ceiling(self, alpha, s, eps, ratio, mu0):
        cfg, attack, e = self._case(s, eps, ratio, mu0)
        assume(alpha < 0.5 * math.exp(-e))  # the threshold lies beyond the bias
        toward = LEFT if attack.x_a < 0.0 else RIGHT
        power = DetectionTest.from_alpha(alpha, cfg, toward).power(attack)
        assert power == pytest.approx(math.exp(e) * alpha, rel=self.RTOL)

    @settings(max_examples=200, deadline=None)
    @given(**SHIFT)
    def test_divergence_within_the_tight_bound(self, s, eps, ratio, mu0):
        cfg, attack, e = self._case(s, eps, ratio, mu0)
        d = kl_laplace(*hypothesis_pair(cfg, attack))
        assert d <= e * math.tanh(e / 2.0) + self.KL_ATOL * (1.0 + e)


class TestRocCsv:
    def test_golden_small_grid(self):
        buf = io.StringIO()
        write_roc_csv(roc_curve(UNIT, AttackSpec(1.0), RIGHT, grid=3), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,k1,k2,power"
        assert len(lines) == 4
        alpha, k1, k2, power = lines[1].split(",")
        assert float(alpha) == 0.25
        assert k2 == ""  # one-sided leaves the second threshold empty
        t = DetectionTest.from_alpha(0.25, UNIT, RIGHT)
        assert float(k1) == t.k  # 17g roundtrips
        assert float(power) == t.power(AttackSpec(1.0))

    def test_two_sided_fills_k2(self):
        buf = io.StringIO()
        write_roc_csv(roc_curve(UNIT, AttackSpec(1.0), TWO, grid=3), buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[2]) == -float(row[1])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(roc_curve(UNIT, AttackSpec(1.0), RIGHT, grid=5), path)
        assert path.read_text().startswith("alpha,k1,k2,power\n")
