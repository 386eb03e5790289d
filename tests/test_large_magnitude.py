"""Tests at large noise locations: nothing is lost to cancellation against mu0.

A test's critical region is stored as its offset from mu0, and its size,
power and likelihood-ratio cutoff are computed in the frame centred on mu0.
So a test calibrated at mu0 must agree with the same test at mu0 = 0, and
the size self-check must hold at every magnitude. The reference values are
those at mu0 = 0.
"""

import json
import math
import warnings

import numpy as np
import pytest

from lapdetect import (
    AttackSpec,
    Dataset,
    DetectionTest,
    LaplaceDist,
    MechanismConfig,
    RngStream,
    SimConfig,
    TailDirection,
    estimate_error_rates,
    hypothesis_pair,
    kappa,
    montecarlo,
    noisy_release,
    run_attack_experiment,
)
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


def _assert_counts_match_draws(sim: SimConfig, workers: int) -> tuple[int, int]:
    """estimate_error_rates counts equal a recount of the draws of
    RngStream(seed, role << 48 | chunk), chunk by chunk of 2^16."""
    with np.errstate(over="ignore"):
        report = estimate_error_rates(sim, workers=workers)
        test = DetectionTest.from_alpha(sim.alpha, sim.cfg, sim.direction)
        n, counts = sim.n_trials, []
        for role, dist in enumerate(hypothesis_pair(sim.cfg, sim.attack)):
            chunks = [(c, min(2**16, n - c * 2**16)) for c in range((n + 2**16 - 1) // 2**16)]
            z = np.concatenate(
                [dist.sample(RngStream(sim.seed, role << 48 | c), m) for c, m in chunks]
            )
            if sim.direction is TailDirection.LEFT:
                counts.append(int(np.count_nonzero(z < test.k)))
            else:
                below = 0 if test.k2 is None else np.count_nonzero(z < test.k2)
                counts.append(int(np.count_nonzero(z > test.k1) + below))
    assert (report.alpha_hat, report.power_hat) == (counts[0] / n, counts[1] / n)
    return counts[0], counts[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("direction", list(TailDirection))
def test_estimate_counts_exact_far_from_origin(workers, direction):
    # At mu0 = 1e8 a draw's rounding spans many noise scales s = 1e-6, so the
    # lattice counter must transform every draw.
    cfg = MechanismConfig(s=1e-6, eps=1.0, theta=1.5, mu0=1e8)
    attack = AttackSpec(-1e-6 if direction is TailDirection.LEFT else 1e-6)
    sim = SimConfig(cfg, attack, 0.2, direction, 2 * 2**16 + 5, seed=515)
    n0, n1 = _assert_counts_match_draws(sim, workers)
    assert 0 < n0 < n1 < sim.n_trials


@pytest.mark.parametrize(
    "mu0, direction",
    [
        (1.7e308, TailDirection.RIGHT),
        (-1.7e308, TailDirection.LEFT),
        (-1.7e308, TailDirection.TWO_SIDED),
    ],
)
def test_estimate_counts_exact_when_a_threshold_overflows(mu0, direction):
    # At alpha = 1e-100 the offset is 230 b0, so mu0 + offset rounds to -+inf,
    # while every draw, within 52 ln 2 b0 = 36.04 b0 of its location, is finite.
    # H1 sits at the finite end of the two-sided region, 230 b0 toward 0 from mu0.
    cfg = MechanismConfig(s=1e305, eps=1.0, mu0=mu0)
    attack = AttackSpec(-math.copysign(230.26 * cfg.b0, mu0))
    sim = SimConfig(cfg, attack, 1e-100, direction, 3000, seed=8)
    test = DetectionTest.from_alpha(sim.alpha, cfg, direction)
    assert math.isinf(test.k1 if test.k2 is None else test.k2)
    n0, n1 = _assert_counts_match_draws(sim, workers=1)
    assert n0 == 0
    assert (0 < n1 < sim.n_trials) == (direction is TailDirection.TWO_SIDED)


@pytest.mark.parametrize(
    "mu0, alpha, direction",
    [
        (1.7e308, 0.9, TailDirection.LEFT),
        (-1.7e308, 0.9, TailDirection.RIGHT),
        (-1.7e308, 0.3, TailDirection.TWO_SIDED),
    ],
)
def test_estimate_rejects_draws_that_overflow(mu0, alpha, direction):
    # 36.04 b0 = 3.6e308 from mu0 the farthest draws round to -+inf, and a
    # threshold that rounds there too would miscount them.
    cfg = MechanismConfig(s=1e307, eps=1.0, mu0=mu0)
    sim = SimConfig(cfg, AttackSpec(0.0), alpha, direction, 3000, seed=8)
    with pytest.raises(ValueError, match="overflow the float range"):
        estimate_error_rates(sim)


def test_reach_check_agrees_with_the_extreme_draws():
    # The check raises exactly when a draw at lattice point 1 or 2^53 - 1 overflows.
    mu0 = -1.7e308
    edge = (np.finfo(float).max + mu0) / (52 * math.log(2))
    outcomes = set()
    for b in edge * (1.0 + np.arange(-40, 41) * 2.0**-52):
        dist = LaplaceDist(mu0, float(b))
        with np.errstate(over="ignore"):
            draws = dist._transform(np.array([1, 2**53 - 1]), np.empty(2))
        try:
            montecarlo._check_reach((dist, dist))
            raised = False
        except ValueError:
            raised = True
        assert raised == (not np.isfinite(draws).all()), b
        outcomes.add(raised)
    assert outcomes == {False, True}


def test_sample_rejects_draws_that_overflow():
    # The sampler applies the same reach rule before drawing, so it raises
    # instead of warning and returning -inf.
    cfg = MechanismConfig(s=1e307, eps=1.0, mu0=-1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow the float range"):
            cfg.null_dist().sample(RngStream(1), 5)
        with pytest.raises(ValueError, match="overflow the float range"):
            noisy_release(0.0, cfg, RngStream(1))


def test_attack_rejects_releases_that_overflow():
    # The residual draws are finite, but q + draw + x_a is not.
    data = Dataset(records=(1e307,) * 17, bound=1e307)
    cfg = MechanismConfig(s=1e307, eps=1e10)
    sim = SimConfig(cfg, AttackSpec(1e307), 0.1, TailDirection.RIGHT, 1000, seed=1)
    assert estimate_error_rates(sim).passed
    with pytest.raises(ValueError, match="overflow the float range"):
        run_attack_experiment(data, sim)


def test_simulate_with_overflowing_draws_exits_three(capsys):
    argv = ["simulate", "--alpha", "0.9", "--dmu", "0", "--mu0=-1.7e308", "--samples", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv, "--s", "1e307")
        assert (code, out) == (3, "")
        assert err == (
            "error: draws of LaplaceDist(mu=-1.7e+308, b=1e+307) overflow the float range\n"
        )
        # Just inside the range: draws reach -1.7e308 - 36.04 * 2.5e305 = -1.79e308.
        code, out, err = _run(capsys, *argv, "--s", "2.5e305")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["alpha_closed"] == pytest.approx(0.9) and report["pass"] is True


@pytest.mark.parametrize("tail", ["right", "left", "two-sided"])
def test_simulate_below_lattice_resolution_exits_three(capsys, tail):
    # alpha = 1e-17 puts each tail's region beyond the farthest draw, 36.04 b0
    # from mu0, so no sample size could estimate it; 1e-15 is within reach.
    argv = ["simulate", "--dmu", "1", "--samples", "1000", "--tail", tail]
    code, out, err = _run(capsys, *argv, "--alpha", "1e-17")
    assert (code, out) == (3, "")
    assert err.startswith("error: alpha=1e-17 is below the sampler's resolution")
    code, out, err = _run(capsys, *argv, "--alpha", "1e-15")
    assert (code, err) == (0, "")
    assert json.loads(out)["alpha_closed"] == pytest.approx(1e-15)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--dmu", "1", "--eps", "710"],
        ["--dmu", "0", "--eps", "710"],
        ["--dmu", "0", "--eps", "1e10"],
    ],
)
def test_kl_bound_beyond_double_range_is_inf(capsys, argv):
    code, out, err = _run(capsys, "kl", *argv)
    assert (code, err) == (0, "")
    assert "bound = inf" in out.splitlines()
    assert "violated = false" in out.splitlines()


def test_kl_json_with_infinite_bound_loads_back(capsys):
    code, out, err = _run(capsys, "kl", "--dmu", "1", "--eps", "710", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["bound"] == math.inf
    assert report["violated"] is False


def test_kl_bound_just_below_overflow_is_unchanged(capsys):
    code, out, err = _run(capsys, "kl", "--dmu", "1", "--eps", "709")
    assert (code, err) == (0, "")
    assert out == (
        "d_closed = 708\nd_quadrature = 708\nepsilon = 709\n"
        "bound = 8.218407e+307\nviolated = false\nform = canonical\n"
    )


def test_kl_sweep_bound_beyond_double_range_is_inf(capsys, tmp_path):
    path = tmp_path / "k.csv"
    code, _, err = _run(capsys, "kl-sweep", "--eps-list", "710", "--out", str(path))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert all(row[4:] == ["inf", "false"] for row in rows)


def test_kl_at_a_scale_too_small_to_integrate_exits_three(capsys):
    # b0 = 1e-310: the closed form and the bound are inf, but the quadrature
    # oracle cannot run where 1/b0 overflows.
    code, out, err = _run(capsys, "kl", "--dmu", "1", "--s", "1e-300", "--eps", "1e10")
    assert (code, out) == (3, "")
    assert err == "error: cannot integrate at scale 1e-310: its reciprocal overflows\n"
