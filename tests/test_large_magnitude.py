"""Tests at large noise locations: nothing is lost to cancellation against mu0.

A test's critical region is stored as its offset from mu0, and its size,
power and likelihood-ratio cutoff are computed in the frame centred on mu0.
So a test calibrated at mu0 must agree with the same test at mu0 = 0, and
the size self-check must hold at every magnitude. The reference values are
those at mu0 = 0.
"""

import math

import pytest

from lapdetect import AttackSpec, DetectionTest, MechanismConfig, TailDirection, kappa
from lapdetect.cli import main

MU0 = [1e3, -1e3, 1e6, -1e6, 1e8, -1e8]
B0 = [1e-3, 1.0, 1e3]
ALPHAS = [1e-9, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]
# Biases in units of b0, on both sides of mu0 and inside and beyond the region.
BIASES = [-4.0, -0.7, 0.3, 1.0, 6.0]


@pytest.mark.parametrize("direction", list(TailDirection))
@pytest.mark.parametrize("mu0", MU0)
def test_calibration_size_power_kappa_match_mu0_zero(mu0, direction):
    for b0 in B0:
        cfg = MechanismConfig(s=b0, eps=1.0, theta=1.5, mu0=mu0)
        ref_cfg = MechanismConfig(s=b0, eps=1.0, theta=1.5)
        for alpha in ALPHAS:
            test = DetectionTest.from_alpha(alpha, cfg, direction)
            ref = DetectionTest.from_alpha(alpha, ref_cfg, direction)
            assert abs(test.size() - alpha) <= 1e-12
            for ratio in BIASES:
                attack = AttackSpec(ratio * b0)
                assert test.power(attack) == pytest.approx(
                    ref.power(attack), rel=0.0, abs=1e-12
                )
                if direction.one_sided:
                    assert kappa(test, attack) == pytest.approx(
                        kappa(ref, attack), rel=1e-12, abs=1e-12
                    )


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _alpha_power(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(row[0], row[3]) for row in rows]


def test_power_far_from_origin(capsys):
    # Right-tail power 1 - (1/2) e^(ln 0.6 - 1) = 1 - 1/(1.2 e), as at mu0 = 0.
    code, out, err = _run(
        capsys, "power", "--alpha", "0.3", "--dmu", "1e-3", "--s", "1e-3", "--mu0", "1e8"
    )
    assert (code, out, err) == (0, "0.6934338\n", "")
    assert float(out) == pytest.approx(1.0 - 1.0 / (1.2 * math.e), rel=1e-6)


def test_two_sided_roc_far_from_origin(capsys, tmp_path):
    far, near = tmp_path / "far.csv", tmp_path / "near.csv"
    code, _, err = _run(
        capsys, "roc", "--dmu", "1", "--mu0", "1e6", "--tail", "two-sided",
        "--out", str(far),
    )
    assert (code, err) == (0, "")
    _run(capsys, "roc", "--dmu", "1", "--tail", "two-sided", "--out", str(near))
    # The alpha and power columns do not depend on where the noise is centred.
    assert _alpha_power(far) == _alpha_power(near)


def test_threshold_with_bias_far_from_origin(capsys):
    code, out, err = _run(
        capsys, "threshold", "--alpha", "0.3", "--s", "1e-3", "--mu0", "1e8",
        "--dmu", "1e-3",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["1e+08", "kappa = 1.021887", "lr_at_k = 1.021887"]


def test_interval_where_power_to_theta_underflows(capsys):
    code, out, err = _run(
        capsys, "interval", "--alpha", "0.5", "--beta-bar", "0.5", "--theta", "1e4"
    )
    assert (code, out, err) == (0, "(-6932.165, 6932.165)\n", "")


def test_lr_at_k_matches_kappa_far_from_origin(capsys):
    # Doubles near 1e8 are 1.5e-8 apart, so the absolute threshold k holds
    # its offset of 5e-7 from mu0 only to about 1 %; lr_at_k must use the
    # offset, as kappa does, to agree with it.
    code, out, err = _run(
        capsys, "threshold", "--alpha", "0.3", "--s", "1e-6", "--mu0", "1e8",
        "--dmu", "1e-6",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["1e+08", "kappa = 1.021887", "lr_at_k = 1.021887"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "1e-300", "--dmu", "1"],
        ["--alpha", "1e-200", "--dmu", "-1", "--tail", "left"],
    ],
)
def test_kappa_beyond_double_range_is_inf(capsys, argv):
    # The offset is about 690 (right) or -460 (left) b0, so kappa's exponent,
    # about 1379 or 919, leaves the double range: the cutoff is inf.
    code, out, err = _run(capsys, "threshold", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "kappa = inf"


def test_overflowing_noise_scale_exits_three(capsys):
    code, out, err = _run(
        capsys, "power", "--alpha", "0.1", "--dmu", "1", "--s", "1e300", "--eps", "1e-10"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: noise scale s/eps must be positive and finite, "
        "got s=1e+300, eps=1e-10, theta=1.0\n"
    )
