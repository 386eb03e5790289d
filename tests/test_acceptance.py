"""Acceptance suite: exit criteria with stated tolerances and budgets.

Each test prints one line, ``criterion NN <name>: PASS/FAIL (elapsed)``;
run with ``pytest tests/test_acceptance.py -v -s`` to watch them live.
Randomized checks use fixed seeds so the suite is reproducible.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lapdetect import (
    AttackSpec,
    DetectionTest,
    LaplaceDist,
    MechanismConfig,
    TailDirection,
    bias_interval,
    hypothesis_pair,
    kl_laplace,
    kl_quadrature,
    likelihood_ratio,
    roc_curve,
    run_grid,
)
from lapdetect.cli import main
from oracles import left_mass, outside_mass, right_mass

RIGHT, LEFT, TWO = TailDirection.RIGHT, TailDirection.LEFT, TailDirection.TWO_SIDED


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(
        f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL (over budget)'} "
        f"({elapsed:.2f}s, budget {budget_s:g}s)"
    )
    assert ok, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_01_threshold_continuity():
    with criterion(1, "threshold-continuity", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.01, 10.0)),
                eps=float(rng.uniform(0.01, 5.0)),
                mu0=float(rng.uniform(-100.0, 100.0)),
            )
            assert DetectionTest.from_alpha(0.5, cfg, RIGHT).k == cfg.mu0
            assert DetectionTest.from_alpha(0.5, cfg, LEFT).k == cfg.mu0


def test_02_roundtrip_exactness():
    with criterion(2, "roundtrip-exactness", 1.0):
        configs = (
            MechanismConfig(s=1.0, eps=1.0),
            MechanismConfig(s=2.5, eps=0.3, mu0=4.0),
            MechanismConfig(s=0.2, eps=3.0, mu0=-1.5, theta=1.5),
        )
        for cfg in configs:
            for i in range(1, 1000):
                alpha = i / 1000.0
                for d in (RIGHT, LEFT):
                    t = DetectionTest.from_alpha(alpha, cfg, d)
                    assert abs(t.size() - alpha) <= 1e-12
                t = DetectionTest.from_alpha(alpha, cfg, TWO)
                assert abs(t.size() - alpha) <= 1e-12


def test_03_oracle_agreement():
    with criterion(3, "closed-form-vs-quadrature", 5.0):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(1000):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.2, 3.0)),
                eps=float(rng.uniform(0.1, 3.0)),
                theta=float(rng.uniform(1.0, 2.5)),
                mu0=float(rng.uniform(-3.0, 3.0)),
            )
            attack = AttackSpec(float(rng.uniform(-5.0, 5.0)) * cfg.s)
            alpha = float(rng.uniform(0.005, 0.995))
            h0, h1 = hypothesis_pair(cfg, attack)
            d = (RIGHT, LEFT, TWO)[int(rng.integers(3))]
            t = DetectionTest.from_alpha(alpha, cfg, d)
            if d is TWO:
                size_err = abs(t.size() - outside_mass(h0, t.k1, t.k2))
                power_err = abs(t.power(attack) - outside_mass(h1, t.k1, t.k2))
            else:
                mass = right_mass if d is RIGHT else left_mass
                size_err = abs(t.size() - mass(h0, t.k))
                power_err = abs(t.power(attack) - mass(h1, t.k))
            worst = max(worst, size_err, power_err)
        assert worst <= 1e-8, f"max |closed - quadrature| = {worst:.3e}"


def test_04_monte_carlo_validation():
    with criterion(4, "monte-carlo-grid", 60.0):
        rows = run_grid(n_trials=10**6, seed=20260809)
        passed = sum(1 for r in rows if r["pass"])
        fraction = passed / len(rows)
        assert fraction >= 0.98, (
            f"only {passed}/{len(rows)} cells inside their 3-sigma bands"
        )


def test_05_roc_regimes():
    with criterion(5, "roc-privacy-regimes", 5.0):
        attack = AttackSpec(1.0)  # bias equal to the sensitivity
        # Tiny budget: noise drowns the bias and the curve hugs the diagonal.
        weak = roc_curve(MechanismConfig(s=1.0, eps=0.015), attack, RIGHT)
        assert max(abs(p.power - p.alpha) for p in weak.points) < 0.01
        # Large budget: accurate detection.
        aucs = [
            roc_curve(MechanismConfig(s=1.0, eps=e), attack, RIGHT).auc
            for e in (0.015, 0.5, 1.0, 2.0)
        ]
        assert aucs[-1] > 0.8
        assert all(b > a for a, b in zip(aucs, aucs[1:])), f"AUCs not increasing: {aucs}"


def test_06_two_sided_never_beats_one_sided():
    # Positive bias, theta = 1: the right-tailed test is the most powerful
    # size-alpha test of the location shift, so the direction-agnostic
    # two-sided test can only lose power at matched size.
    with criterion(6, "two-sided-vs-one-sided", 2.0):
        for eps in (0.015, 0.5, 1.0, 2.0):
            for dmu in (0.5, 1.0, 4.0):
                cfg = MechanismConfig(s=1.0, eps=eps, theta=1.0)
                attack = AttackSpec(dmu)
                for i in range(1, 10):
                    alpha = i / 10.0
                    p_one = DetectionTest.from_alpha(alpha, cfg, RIGHT).power(attack)
                    p_two = DetectionTest.from_alpha(alpha, cfg, TWO).power(attack)
                    assert p_two <= p_one + 1e-12, (
                        f"two-sided beats one-sided at eps={eps}, dmu={dmu}, "
                        f"alpha={alpha}: {p_two} > {p_one}"
                    )


def test_07_kl_dp_violation_reproduction():
    with criterion(7, "kl-dp-violation", 1.0):
        # theta = 1, bias 4s: violated at eps = 1, admissible at eps = 0.5.
        p0 = LaplaceDist(0.0, 1.0)
        p1 = LaplaceDist(4.0, 1.0)
        d1 = kl_laplace(p0, p1)
        assert d1 == pytest.approx(3.0183156388887342, rel=1e-12)
        assert d1 > math.e
        assert abs(d1 - kl_quadrature(p0, p1)) <= 1e-8
        q0 = LaplaceDist(0.0, 2.0)
        q1 = LaplaceDist(4.0, 2.0)
        d05 = kl_laplace(q0, q1)
        assert d05 == pytest.approx(1.1353352832366127, rel=1e-12)
        assert d05 < math.exp(0.5) == pytest.approx(1.6487212707001282, rel=1e-15)
        assert abs(d05 - kl_quadrature(q0, q1)) <= 1e-8


def test_08_kl_identities():
    with criterion(8, "kl-identities", 10.0):
        rng = np.random.default_rng(808)
        # Self-divergence is exactly zero.
        for _ in range(100):
            d = LaplaceDist(float(rng.uniform(-10, 10)), float(rng.uniform(0.05, 10)))
            assert kl_laplace(d, d) == 0.0
        # Shift-sign symmetry is exact (dyadic offsets keep inputs exact).
        for off in (0.25, 0.5, 1.0, 2.0, 8.0):
            for b0, b1 in ((1.0, 1.0), (0.5, 2.0), (4.0, 1.0)):
                assert kl_laplace(
                    LaplaceDist(0.0, b0), LaplaceDist(off, b1)
                ) == kl_laplace(LaplaceDist(0.0, b0), LaplaceDist(-off, b1))
        # Asymmetry witness at unequal scales.
        assert kl_laplace(LaplaceDist(0.0, 1.0), LaplaceDist(0.0, 2.0)) != kl_laplace(
            LaplaceDist(0.0, 2.0), LaplaceDist(0.0, 1.0)
        )
        # Closed form vs quadrature across 1e4 random pairs. On these pairs
        # the oracle splits no panel at tol 4e-9 or 1e-10, and its worst
        # error is rounding (3.2e-14 measured at both), so tol 4e-9 costs
        # nothing in precision and keeps the sweep well inside the budget.
        n = 10**4
        mus = rng.uniform(-5.0, 5.0, size=(n, 2))
        bs = rng.uniform(0.2, 5.0, size=(n, 2))
        worst = 0.0
        for i in range(n):
            p0 = LaplaceDist(mus[i, 0], bs[i, 0])
            p1 = LaplaceDist(mus[i, 1], bs[i, 1])
            worst = max(worst, abs(kl_laplace(p0, p1) - kl_quadrature(p0, p1, 4e-9)))
        assert worst <= 1e-8, f"max |closed - quadrature| = {worst:.3e}"


def test_09_dp_bound_on_likelihood_ratio():
    with criterion(9, "dp-bound-likelihood-ratio", 2.0):
        rng = np.random.default_rng(909)
        for _ in range(100):
            eps = float(rng.uniform(0.05, 4.0))
            s = float(rng.uniform(0.1, 5.0))
            cfg = MechanismConfig(s=s, eps=eps, theta=1.0)
            attack = AttackSpec(float(rng.uniform(-s, s)))
            z = rng.uniform(-40.0 * cfg.b0, 40.0 * cfg.b0, size=10**5)
            lr = likelihood_ratio(z, cfg, attack)
            lo, hi = math.exp(-eps), math.exp(eps)
            # Multiplicative 1-ulp slack for the exp roundings.
            assert np.all(lr >= lo * (1.0 - 1e-13))
            assert np.all(lr <= hi * (1.0 + 1e-13))


def test_10_bias_interval_identities():
    with criterion(10, "bias-interval", 1.0):
        unit = MechanismConfig(s=1.0, eps=1.0)
        degenerate = bias_interval(1.0, 1.0, unit)
        assert degenerate.lo == 0.0 and degenerate.hi == 0.0
        rng = np.random.default_rng(1010)
        for _ in range(500):
            cfg = MechanismConfig(
                s=float(rng.uniform(0.1, 5.0)),
                eps=float(rng.uniform(0.1, 5.0)),
                theta=float(rng.uniform(1.0, 3.0)),
            )
            alpha = float(rng.uniform(0.01, 1.0))
            beta_bar = float(rng.uniform(0.01, 1.0))
            iv = bias_interval(alpha, beta_bar, cfg)
            assert iv.lo == -iv.hi  # symmetry, bitwise
            width_formula = 2.0 * cfg.b0 * math.log(1.0 / (alpha * beta_bar**cfg.theta))
            # Exact up to the float rounding of the reciprocal-log identity.
            assert iv.hi - iv.lo == pytest.approx(width_formula, rel=4e-15, abs=1e-300)


def test_11_simulate_determinism(capsys):
    with criterion(11, "simulate-determinism", 30.0):
        argv = [
            "simulate", "--alpha", "0.1", "--dmu", "1", "--samples", "200000",
            "--seed", "20260809",
        ]
        outputs = []
        for extra in ((), (), ("--workers", "1"), ("--workers", "8")):
            assert main(argv + list(extra)) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1, "simulate JSON is not bit-identical"
        json.loads(outputs[0])  # and it is valid JSON
