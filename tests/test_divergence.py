"""KL divergence tests: closed forms vs quadrature, plus the e^eps check."""

import math

import numpy as np
import pytest

from lapdetect import (
    KlReport,
    LaplaceDist,
    kl_dp_check,
    kl_laplace,
    kl_laplace_variant,
    kl_quadrature,
    kl_sweep,
    write_kl_sweep_csv,
    divergence,
)
from lapdetect.quadrature import QuadratureError, _gauss_kronrod

import io


class TestKlLaplace:
    def test_self_divergence_is_zero_exactly(self):
        for d in (LaplaceDist(0.0, 1.0), LaplaceDist(-3.5, 0.2), LaplaceDist(4.0, 7.0)):
            assert kl_laplace(d, d) == 0.0

    def test_pure_shift(self):
        # Lap(0,1) vs Lap(1,1): -1 + e^-1 + 1 = 1/e, quadrature agrees.
        p0, p1 = LaplaceDist(0.0, 1.0), LaplaceDist(1.0, 1.0)
        d = kl_laplace(p0, p1)
        assert d == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert d == pytest.approx(kl_quadrature(p0, p1), abs=1e-10)

    def test_pure_scale(self):
        # Lap(0,1) vs Lap(0,2): ln 2 - 1/2.
        p0, p1 = LaplaceDist(0.0, 1.0), LaplaceDist(0.0, 2.0)
        d = kl_laplace(p0, p1)
        assert d == pytest.approx(math.log(2.0) - 0.5, rel=1e-14)
        assert d == pytest.approx(kl_quadrature(p0, p1), abs=1e-10)

    def test_asymmetry_witness(self):
        # Swapping the roles changes the value whenever scales differ.
        p0, p1 = LaplaceDist(0.0, 1.0), LaplaceDist(0.0, 2.0)
        forward = kl_laplace(p0, p1)
        backward = kl_laplace(p1, p0)
        assert backward == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
        assert forward != backward

    def test_sign_symmetry_exact(self):
        # Depends on the locations only through |shift| (dyadic offsets so
        # the inputs are exact).
        for b0, b1 in ((1.0, 1.0), (0.5, 2.0), (3.0, 1.5)):
            for off in (0.25, 1.0, 4.0):
                up = kl_laplace(LaplaceDist(0.0, b0), LaplaceDist(off, b1))
                down = kl_laplace(LaplaceDist(0.0, b0), LaplaceDist(-off, b1))
                assert up == down

    def test_nonnegative_on_random_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            p0 = LaplaceDist(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6)))
            p1 = LaplaceDist(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 6)))
            assert kl_laplace(p0, p1) >= 0.0

    def test_budget_form(self):
        # With b0 = s/eps, b1 = theta s/eps the divergence reads
        # ln(theta) - 1 + (1/theta) e^{-dmu eps/s} + dmu eps/(theta s).
        s, eps, theta, dmu = 1.7, 0.6, 1.8, 2.3
        p0 = LaplaceDist(0.0, s / eps)
        p1 = LaplaceDist(dmu, theta * s / eps)
        expected = (
            math.log(theta)
            - 1.0
            + math.exp(-dmu * eps / s) / theta
            + dmu * eps / (theta * s)
        )
        assert kl_laplace(p0, p1) == pytest.approx(expected, rel=1e-13)

    def test_oracle_agreement_random_pairs(self):
        # The acceptance suite sweeps 1e4 pairs; keep a fast slice here.
        rng = np.random.default_rng(31)
        for _ in range(150):
            p0 = LaplaceDist(float(rng.uniform(-5, 5)), float(rng.uniform(0.2, 5)))
            p1 = LaplaceDist(float(rng.uniform(-5, 5)), float(rng.uniform(0.2, 5)))
            assert kl_laplace(p0, p1) == pytest.approx(
                kl_quadrature(p0, p1), abs=1e-8
            )


class TestKlVariant:
    def test_agrees_on_unit_shift(self):
        # Lap(1,1) vs Lap(0,1): the two closed forms coincide here.
        p0, p1 = LaplaceDist(1.0, 1.0), LaplaceDist(0.0, 1.0)
        v = kl_laplace_variant(p0, p1)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert v == pytest.approx(kl_laplace(p0, p1), rel=1e-14)

    def test_vanishing_shift_limit_disagrees_with_integral(self):
        # As the shift vanishes the variant tends to 1 while the true
        # divergence (and quadrature) tend to 0; the constant final term
        # is the documented discrepancy.
        p0, p1 = LaplaceDist(1e-9, 1.0), LaplaceDist(0.0, 1.0)
        assert kl_laplace_variant(p0, p1) == pytest.approx(1.0, abs=1e-8)
        assert kl_laplace(p0, p1) == pytest.approx(0.0, abs=1e-8)
        assert kl_quadrature(p0, p1) == pytest.approx(0.0, abs=1e-8)

    def test_general_scale_disagreement_is_quantified(self):
        # Lap(2,1) vs Lap(0,2): variant ln2 - 1 + e^-2/2 + 1/2 vs canonical
        # ln2 - 1 + e^-2/2 + 1; quadrature arbitrates for the canonical.
        p0, p1 = LaplaceDist(2.0, 1.0), LaplaceDist(0.0, 2.0)
        variant = kl_laplace_variant(p0, p1)
        canonical = kl_laplace(p0, p1)
        assert variant == pytest.approx(
            math.log(2.0) - 1.0 + 0.5 * math.exp(-2.0) + 0.5, rel=1e-14
        )
        assert canonical == pytest.approx(
            math.log(2.0) - 1.0 + 0.5 * math.exp(-2.0) + 1.0, rel=1e-14
        )
        assert canonical == pytest.approx(kl_quadrature(p0, p1), abs=1e-9)
        assert abs(variant - kl_quadrature(p0, p1)) > 0.1

    def test_regime_enforced(self):
        with pytest.raises(ValueError, match="mu1 < mu0"):
            kl_laplace_variant(LaplaceDist(0.0, 1.0), LaplaceDist(1.0, 1.0))
        with pytest.raises(ValueError, match="mu1 < mu0"):
            kl_laplace_variant(LaplaceDist(0.0, 1.0), LaplaceDist(0.0, 2.0))


class TestKlQuadrature:
    def test_self_is_zero(self):
        d = LaplaceDist(0.3, 1.7)
        assert kl_quadrature(d, d) == pytest.approx(0.0, abs=1e-10)

    def test_swapped_roles(self):
        # Lap(0,2) vs Lap(0,1): ln(1/2) - 1 + 2 = 1 - ln 2.
        val = kl_quadrature(LaplaceDist(0.0, 2.0), LaplaceDist(0.0, 1.0))
        assert val == pytest.approx(1.0 - math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        d = LaplaceDist(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_quadrature(d, d, tol=tol)

    @pytest.mark.parametrize(
        "p0, p1, tol",
        [
            (LaplaceDist(0.0, 1.0), LaplaceDist(-15.564, 0.6417), 4e-9),
            (LaplaceDist(0.0, 1.0), LaplaceDist(1000.0, 1.0), 1e-10),
            (LaplaceDist(0.0, 1.0), LaplaceDist(2000.0, 1.0), 1e-10),
            (LaplaceDist(0.0, 1.0), LaplaceDist(-7.978, 2.631), 4e-9),
            (LaplaceDist(0.0, 1.0), LaplaceDist(-26.77, 19.08), 4e-9),
            (LaplaceDist(2.765, 2.273), LaplaceDist(-66.18, 2.751), 4e-9),
        ],
        ids=["sep-16", "sep-1000", "sep-2000", "sep-8", "sep-27", "sep-30"],
    )
    def test_far_apart_locations_meet_tol(self, p0, p1, tol):
        # The stretch between the locations is cut like the tails, so a
        # long panel there cannot pass on a vanishing error estimate. The
        # last three pairs lie in the narrow b1/b0 bands where one such
        # panel would miss tol 4e-9 by up to 160x.
        assert abs(kl_quadrature(p0, p1, tol) - kl_laplace(p0, p1)) <= tol

    @pytest.mark.parametrize(
        "p0, p1, what",
        [
            (LaplaceDist(0.0, 0.1), LaplaceDist(1e308, 0.1), "|mu1 - mu0|/b1 = inf"),
            (LaplaceDist(0.0, 1e-200), LaplaceDist(1e200, 1e-200), "|mu1 - mu0|/b1 = inf"),
            (LaplaceDist(1e308, 1.0), LaplaceDist(-1e308, 2.0), "|mu1 - mu0|/b1 = inf"),
            (LaplaceDist(0.0, 1e300), LaplaceDist(0.0, 1e-300), "b0/b1 = inf"),
            (LaplaceDist(0.0, 1e-310), LaplaceDist(1.0, 1e-310), "|mu1 - mu0|/b1 = inf"),
            (LaplaceDist(0.0, 1.0), LaplaceDist(1.0, 2.0**-1024), "b0/b1 = inf"),
            (LaplaceDist(0.0, 1e-310), LaplaceDist(1.0, 1e-2), "|mu1 - mu0|/b0 = inf"),
        ],
    )
    def test_overflowing_bound_is_rejected_before_integrating(self, monkeypatch, p0, p1, what):
        # The integrand is inf (or NaN where b0/b1 is inf and mu1 = mu0 + u),
        # so every panel's error estimate would be NaN and the quadrature
        # would spend its whole budget before failing.
        def unreachable(*args, **kwargs):
            raise AssertionError("integrated an unbounded integrand")

        monkeypatch.setattr(divergence, "_gauss_kronrod", unreachable)
        with pytest.raises(ValueError, match="bound .* overflows") as info:
            kl_quadrature(p0, p1)
        assert what in str(info.value)

    @pytest.mark.parametrize(
        "p0, p1",
        [
            (LaplaceDist(0.0, 4e306), LaplaceDist(1.0, 4e306)),
            (LaplaceDist(0.0, 5e306), LaplaceDist(1.0, 1e307)),
            (LaplaceDist(1e308, 3e306), LaplaceDist(1e308, 6e306)),
            (LaplaceDist(-1e308, 3e306), LaplaceDist(-1e308, 6e306)),
        ],
    )
    def test_widest_range_within_the_float_range_integrates(self, p0, p1):
        # In units of b0 the range is at most 81 + |mu1 - mu0|/b0 wide, even
        # where mu -+ 40 b0 itself would leave the float range.
        assert kl_quadrature(p0, p1) == pytest.approx(kl_laplace(p0, p1), abs=1e-9)

    def test_subnormal_scales_at_one_location_integrate(self):
        p0, p1 = LaplaceDist(0.0, 1e-310), LaplaceDist(0.0, 2e-310)
        assert kl_quadrature(p0, p1) == pytest.approx(kl_laplace(p0, p1), abs=1e-10)

    @pytest.mark.parametrize("c", [5.0, 1e8, 1e12, -1e15])
    def test_shift_of_both_locations_keeps_the_bits(self, c):
        # The integrand depends on the locations only through (mu1 - mu0)/b0,
        # which is 1 here at every c.
        shifted = kl_quadrature(LaplaceDist(c, 1.0), LaplaceDist(c + 1.0, 1.5))
        assert shifted == kl_quadrature(LaplaceDist(0.0, 1.0), LaplaceDist(1.0, 1.5))

    def test_exhausted_budget_message_agrees_with_its_bound(self, monkeypatch):
        # Integrated to tol 1e-10 itself, not to kl_quadrature's floor, no
        # panel near the value 3e5 can meet its share, while the accepted
        # panels' estimates sum to less than tol.
        def unfloored(f, a, b, tol, *, breakpoints):
            return _gauss_kronrod(f, a, b, 1e-10, breakpoints=breakpoints)

        monkeypatch.setattr(divergence, "_gauss_kronrod", unfloored)
        p1 = LaplaceDist(664.0 * 1.25**7, 0.01)
        with pytest.raises(QuadratureError) as info:
            kl_quadrature(LaplaceDist(0.0, 1.0), p1, 1e-10)
        err = info.value
        assert err.achieved < 1e-10
        assert "exceeds" not in str(err)
        assert "could not meet its share of tol 1.000e-10" in str(err)

    def test_tol_floor_follows_the_magnitude_of_the_integral(self):
        # An absolute tol of 1e-10 lies below the rounding of D near 3e5 for
        # b1 = 0.01 b0 far apart, and near 1e8 at eps 1e8; each pair meets
        # the floor 2**-44 m instead of exhausting the budget.
        pairs = [
            (LaplaceDist(0.0, 1.0), LaplaceDist(sign * 664.0 * 1.25**i, 0.01))
            for i in range(12) for sign in (1.0, -1.0)
        ]
        pairs.append((LaplaceDist(0.0, 1e-8), LaplaceDist(1.0, 1e-8)))
        for p0, p1 in pairs:
            m = abs(math.log(p1.b / p0.b)) + (abs(p1.mu - p0.mu) + p0.b) / p1.b + 1.0
            err = abs(kl_quadrature(p0, p1, 1e-10) - kl_laplace(p0, p1))
            assert err <= max(1e-10, 2.0**-44 * m), (p1, err)

    def test_separation_by_scale_ratio_grid_meets_tol(self):
        p0 = LaplaceDist(0.0, 1.0)
        for sep in np.linspace(2.0, 36.0, 44):
            for ratio in np.geomspace(0.04, 25.0, 50):
                p1 = LaplaceDist(-float(sep), float(ratio))
                err = abs(kl_quadrature(p0, p1, 4e-9) - kl_laplace(p0, p1))
                assert err <= 4e-9, (sep, ratio, err)

    @staticmethod
    def _count_evaluations(monkeypatch) -> list:
        """Route kl_quadrature through a counting rule; returns the list that
        collects (evaluations, pieces) for each call."""
        seen = []

        def counting(f, a, b, tol, *, breakpoints):
            calls = [0]

            def g(z):
                calls[0] += 1
                return f(z)

            value = _gauss_kronrod(g, a, b, tol, breakpoints=breakpoints)
            pieces = len({a, b, *(p for p in breakpoints if a < p < b)}) - 1
            seen.append((calls[0], pieces))
            return value

        monkeypatch.setattr(divergence, "_gauss_kronrod", counting)
        return seen

    @pytest.mark.parametrize("tol", [4e-9, 1e-10])
    def test_one_panel_per_ladder_piece(self, monkeypatch, tol):
        # Each ladder piece is kink-free and at most 5 b0 long, so no panel
        # is split: 21 evaluations on each of the 30 pieces.
        seen = self._count_evaluations(monkeypatch)
        rng = np.random.default_rng(808)
        for _ in range(200):
            mu, b = rng.uniform(-5.0, 5.0, 2), rng.uniform(0.2, 5.0, 2)
            kl_quadrature(LaplaceDist(mu[0], b[0]), LaplaceDist(mu[1], b[1]), tol)
        assert seen == [(630, 30)] * 200

    @pytest.mark.parametrize("mu0", [1e4, 1e8, 1e12, 1e15])
    @pytest.mark.parametrize("b0", [1e-6, 1e-3, 1.0])
    def test_far_from_the_origin_meets_the_closed_form(self, monkeypatch, mu0, b0):
        # Far from the origin the spacing of floats near mu0 can exceed b0,
        # yet the standardized integrand sees only d = dmu/b0 and b0/b1, and
        # one panel still meets tol on each piece (29 where d = 1 is a ladder
        # point, 28 where mu0 + b0 rounds to mu0).
        seen = self._count_evaluations(monkeypatch)
        p0, p1 = LaplaceDist(mu0, b0), LaplaceDist(mu0 + b0, 1.5 * b0)
        assert abs(kl_quadrature(p0, p1) - kl_laplace(p0, p1)) <= 1e-10
        [(calls, pieces)] = seen
        assert calls == 21 * pieces


class TestScaleRatioBeyondDoubleRange:
    """b1/b0 = 1e-600 or 1e600 is no double, but its log is; inputs whose
    ratio is a normal double keep the log of the ratio itself."""

    WIDE, NARROW = LaplaceDist(0.0, 1e300), LaplaceDist(0.0, 1e-300)
    LOG_RATIO = math.log(1e300) - math.log(1e-300)  # ~1381.55

    def test_kl_laplace(self):
        # D(narrow || wide) = ln(b1/b0) - 1 + (b0/b1), about 1380.55; the
        # other way round (b0/b1) e^0 = 1e600 makes D = inf, as it is.
        assert kl_laplace(self.NARROW, self.WIDE) == pytest.approx(self.LOG_RATIO - 1.0, rel=1e-15)
        assert kl_laplace(self.WIDE, self.NARROW) == math.inf

    def test_kl_quadrature(self):
        # The narrow-to-wide integral is finite and meets the closed form;
        # wide-to-narrow is rejected as unbounded (b0/b1 = inf), see above.
        for mu1 in (0.0, 1.0):
            p1 = LaplaceDist(mu1, 1e300)
            assert kl_quadrature(self.NARROW, p1) == pytest.approx(
                kl_laplace(self.NARROW, p1), rel=1e-12
            )
        with pytest.raises(ValueError, match=r"b0/b1 = inf"):
            kl_quadrature(self.WIDE, self.NARROW)

    def test_kl_laplace_variant(self):
        # mu1 = mu0 - 1: e^(-1/b0) is 1 on the wide side and 0 on the narrow.
        narrow_to_wide = kl_laplace_variant(self.NARROW, LaplaceDist(-1.0, 1e300))
        assert narrow_to_wide == pytest.approx(self.LOG_RATIO - 1.0, rel=1e-15)
        assert kl_laplace_variant(self.WIDE, LaplaceDist(-1.0, 1e-300)) == math.inf

    @pytest.mark.parametrize(
        "b0, b1", [(1.0, 2.0), (0.2, 5.0), (1e-300, 1e-10), (1e300, 1e10), (1.0, 2.0**-1022)]
    )
    def test_normal_ratio_keeps_the_log_of_the_ratio(self, b0, b1):
        assert divergence._log_ratio(b1, b0) == math.log(b1 / b0)

    def test_subnormal_ratio_keeps_its_precision(self):
        # 1e-200 / 1e120 = 1e-320 is subnormal and holds about 11 bits.
        assert divergence._log_ratio(1e-200, 1e120) == pytest.approx(
            -320.0 * math.log(10.0), rel=1e-15
        )


class TestKlDpCheck:
    def test_identical_not_violated(self):
        d = LaplaceDist(0.0, 1.0)
        report = kl_dp_check(d, d, epsilon=0.1)
        assert isinstance(report, KlReport)
        assert report.d_closed == 0.0
        assert not report.violated

    def test_violation_at_four_sensitivities(self):
        # theta = 1, bias 4s, eps = 1: divergence 3 + e^-4 exceeds e.
        p0 = LaplaceDist(0.0, 1.0)
        p1 = LaplaceDist(4.0, 1.0)
        report = kl_dp_check(p0, p1, epsilon=1.0)
        assert report.d_closed == pytest.approx(3.0 + math.exp(-4.0), rel=1e-14)
        assert report.bound == pytest.approx(math.e, rel=1e-15)
        assert report.violated
        assert abs(report.d_closed - report.d_quadrature) <= 1e-8

    def test_no_violation_at_smaller_budget(self):
        # eps = 0.5 rescales the noise: divergence 1 + e^-2 < e^0.5.
        p0 = LaplaceDist(0.0, 2.0)
        p1 = LaplaceDist(4.0, 2.0)
        report = kl_dp_check(p0, p1, epsilon=0.5)
        assert report.d_closed == pytest.approx(1.0 + math.exp(-2.0), rel=1e-14)
        assert report.bound == pytest.approx(math.exp(0.5), rel=1e-15)
        assert not report.violated

    def test_epsilon_domain(self):
        d = LaplaceDist(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_dp_check(d, d, epsilon=0.0)

    @pytest.mark.parametrize("eps", [709.79, 710.0, 1e10, math.inf])
    def test_bound_beyond_double_range_is_inf(self, eps):
        # e^eps overflows past ln(max double) ~ 709.78; no finite
        # divergence violates an infinite bound.
        report = kl_dp_check(LaplaceDist(0.0, 1.0), LaplaceDist(1.0, 1.0), epsilon=eps)
        assert report.bound == math.inf
        assert not report.violated


class TestKlSweep:
    def test_rows_and_flags(self):
        rows = kl_sweep(eps_grid=[0.5, 1.0], thetas=[1.0], dmu_over_s=[4.0])
        assert len(rows) == 2
        by_eps = {r["epsilon"]: r for r in rows}
        assert not by_eps[0.5]["violated"]
        assert by_eps[1.0]["violated"]
        for r in rows:
            assert r["bound"] == pytest.approx(math.exp(r["epsilon"]), rel=1e-15)

    def test_bound_beyond_double_range_is_inf(self):
        rows = kl_sweep(eps_grid=[709.0, 710.0], thetas=[1.0, 1.5], dmu_over_s=[4.0])
        assert [r["bound"] for r in rows] == [math.exp(709.0), math.inf] * 2
        assert not any(r["violated"] for r in rows)

    def test_matches_pointwise_closed_form(self):
        rows = kl_sweep(eps_grid=[0.25, 2.0], thetas=[1.5], dmu_over_s=[0.5], s=2.0)
        for r in rows:
            b0 = 2.0 / r["epsilon"]
            p0 = LaplaceDist(0.0, b0)
            p1 = LaplaceDist(r["dmu_over_s"] * 2.0, r["theta"] * b0)
            assert r["kl"] == kl_laplace(p0, p1)

    def test_invalid_grid_values(self):
        with pytest.raises(ValueError):
            kl_sweep(eps_grid=[0.0], thetas=[1.0], dmu_over_s=[1.0])
        with pytest.raises(ValueError):
            kl_sweep(eps_grid=[1.0], thetas=[0.5], dmu_over_s=[1.0])

    @pytest.mark.parametrize("axis", ["eps_grid", "thetas", "dmu_over_s"])
    def test_empty_grid_rejected(self, axis):
        grid = {"eps_grid": [1.0], "thetas": [1.0], "dmu_over_s": [1.0], axis: []}
        with pytest.raises(ValueError, match="nonempty"):
            kl_sweep(**grid)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "axis, message",
        [
            ("eps_grid", "eps must be finite, got eps="),
            ("thetas", "theta must be finite, got theta="),
            ("dmu_over_s", "bias ratio must be finite, got dmu_over_s="),
        ],
    )
    def test_non_finite_grid_value_rejected_by_its_own_check(self, axis, message, value):
        grid = {"eps_grid": [1.0], "thetas": [1.0], "dmu_over_s": [1.0], axis: [value]}
        with pytest.raises(ValueError, match=message):
            kl_sweep(**grid)

    @pytest.mark.parametrize("mu0", [math.nan, math.inf, -math.inf])
    def test_non_finite_null_location_names_mu0(self, mu0):
        with pytest.raises(ValueError, match="mu0 must be finite, got mu0="):
            kl_sweep(eps_grid=[1.0], thetas=[1.0], dmu_over_s=[1.0], mu0=mu0)

    @pytest.mark.parametrize(
        "grid",
        [
            dict(eps_grid=[1e-320]),
            dict(eps_grid=[1e10], s=1e-320),
            dict(eps_grid=[1e-295], thetas=[1e10], s=1e10),
        ],
        ids=["b0-overflows", "b0-underflows", "b1-overflows"],
    )
    def test_scale_beyond_double_range_names_s_eps_theta(self, grid):
        grid = {"thetas": [1.0], "dmu_over_s": [1.0], **grid}
        with pytest.raises(ValueError, match="noise scale s/eps must be positive and finite, got s="):
            kl_sweep(**grid)

    def test_overflowing_attack_location_names_the_shift(self):
        # 1e10 * 1e300 rounds to inf although every input is finite.
        with pytest.raises(ValueError, match=r"shift dmu_over_s\*s overflows, got dmu_over_s="):
            kl_sweep(eps_grid=[1.0], thetas=[1.0], dmu_over_s=[1e10], s=1e300, mu0=1e308)

    def test_attack_location_past_the_float_range_answers(self):
        # mu0 + dmu = 2.7e308 overflows, but the pair Lap(0, b) against
        # Lap(b, b) is built from the shift: D = e^-1.
        rows = kl_sweep(eps_grid=[1.0], thetas=[1.0], dmu_over_s=[1.0], s=1e308, mu0=1.7e308)
        assert rows[0]["kl"] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_csv_emission(self):
        buf = io.StringIO()
        rows = kl_sweep(eps_grid=[1.0], thetas=[1.0], dmu_over_s=[4.0])
        write_kl_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epsilon,theta,dmu_over_s,kl,bound,violated"
        cells = lines[1].split(",")
        assert float(cells[0]) == 1.0
        assert float(cells[3]) == rows[0]["kl"]  # 17g round-trips exactly
        assert cells[5] == "true"
