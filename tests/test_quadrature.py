"""Tests for the adaptive Simpson and G10-K21 engines against analytic integrals."""

import math

import pytest

from lapdetect import quadrature
from lapdetect.quadrature import QuadratureError, _gauss_kronrod, adaptive_simpson


def test_cubic_is_exact():
    # Simpson's rule integrates cubics exactly on any panel.
    val = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 3.0, tol=1e-12)
    assert val == pytest.approx(81.0 / 4.0 - 9.0, abs=1e-12)


def test_smooth_exponential():
    val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


def test_kink_with_breakpoint():
    # |x| over [-1, 2] = 1/2 + 2 = 5/2; the kink must be declared.
    val = adaptive_simpson(abs, -1.0, 2.0, tol=1e-12, breakpoints=[0.0])
    assert val == pytest.approx(2.5, abs=1e-11)


def test_breakpoints_outside_range_ignored():
    val = adaptive_simpson(math.cos, 0.0, 1.0, tol=1e-11, breakpoints=[-5.0, 7.0])
    assert val == pytest.approx(math.sin(1.0), abs=1e-10)


def test_empty_interval_is_zero():
    assert adaptive_simpson(math.exp, 2.0, 2.0) == 0.0


def test_reversed_limits_rejected():
    with pytest.raises(ValueError, match="ordered"):
        adaptive_simpson(math.exp, 1.0, 0.0)


@pytest.mark.parametrize("tol", [0.0, math.nan])
def test_nonpositive_tol_rejected(tol):
    with pytest.raises(ValueError, match="positive"):
        adaptive_simpson(math.exp, 0.0, 1.0, tol=tol)


def test_oscillatory_integrand_converges():
    # 50 full periods; integral of sin over them is 0.
    val = adaptive_simpson(math.sin, 0.0, 100.0 * math.pi, tol=1e-9)
    assert val == pytest.approx(0.0, abs=1e-8)


def test_budget_exhaustion_reports_achieved_bound(monkeypatch):
    monkeypatch.setattr(quadrature, "_SIMPSON_MAX_PANELS", 64)
    f = lambda x: math.sin(1000.0 * x) ** 2  # noqa: E731
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(f, 0.0, 10.0, tol=1e-14)
    err = info.value
    assert err.achieved > 1e-14
    assert math.isfinite(err.value)


def test_laplace_density_normalizes():
    # The package's canonical oracle use: total probability mass is 1.
    b = 0.7
    f = lambda z: math.exp(-abs(z - 1.3) / b) / (2.0 * b)  # noqa: E731
    val = adaptive_simpson(
        f, 1.3 - 45.0 * b, 1.3 + 45.0 * b, tol=1e-10,
        breakpoints=[1.3 + k * b for k in (-30, -20, -12, -6, -3, -1, 0, 1, 3, 6, 12, 20, 30)],
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_gauss_kronrod_exact_to_degree_31():
    # K21 integrates polynomials up to degree 31 exactly on every panel.
    val = _gauss_kronrod(lambda x: 32.0 * x**31 - 3.0 * x**2, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(0.0, abs=1e-14)


_LADDER = [1.3 + k * 0.7 for k in (-30, -20, -12, -6, -3, -1, 0, 1, 3, 6, 12, 20, 30)]


@pytest.mark.parametrize(
    "f, a, b, breaks",
    [
        (math.exp, 0.0, 1.0, []),
        (abs, -1.0, 2.0, [0.0]),
        (math.cos, 0.0, 1.0, [-5.0, 7.0]),
        (lambda z: math.exp(-abs(z - 1.3) / 0.7) / 1.4, 1.3 - 31.5, 1.3 + 31.5, _LADDER),
    ],
    ids=["exp", "kink", "outside-breaks", "laplace-density"],
)
def test_gauss_kronrod_agrees_with_simpson(f, a, b, breaks):
    gk = _gauss_kronrod(f, a, b, tol=1e-12, breakpoints=breaks)
    assert gk == pytest.approx(adaptive_simpson(f, a, b, tol=1e-12, breakpoints=breaks), abs=1e-11)


def test_gauss_kronrod_budget_exhaustion_reports_achieved_bound(monkeypatch):
    monkeypatch.setattr(quadrature, "_K21_MAX_PANELS", 64)
    f = lambda x: math.sin(1000.0 * x) ** 2  # noqa: E731
    with pytest.raises(QuadratureError) as info:
        _gauss_kronrod(f, 0.0, 10.0, tol=1e-14)
    err = info.value
    assert err.achieved > 1e-14
    assert math.isfinite(err.value)
