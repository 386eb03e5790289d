"""Simulation tests: empirical rates vs closed forms, determinism, traces."""

import json
import math

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
    default_grid,
    estimate_error_rates,
    hypothesis_pair,
    run_attack_experiment,
    run_grid,
    write_grid_csv,
)

RIGHT, TWO = TailDirection.RIGHT, TailDirection.TWO_SIDED


def _sim(**kwargs) -> SimConfig:
    base = dict(
        cfg=MechanismConfig(s=1.0, eps=1.0),
        attack=AttackSpec(1.0),
        alpha=0.1,
        direction=RIGHT,
        n_trials=200_000,
        seed=12345,
    )
    base.update(kwargs)
    return SimConfig(**base)


class TestEstimateErrorRates:
    def test_rates_inside_bands(self):
        # alpha = 0.1, unit mechanism, bias 1: closed-form power is e/10
        # (k = ln 5 against Lap(1,1)); both empirical rates must sit in
        # their 3-sigma bands for this seed.
        report = estimate_error_rates(_sim())
        assert report.alpha_closed == pytest.approx(0.1, abs=1e-15)
        assert report.power_closed == pytest.approx(math.e / 10.0, rel=1e-14)
        assert abs(report.alpha_hat - 0.1) <= report.half_width_alpha
        assert abs(report.power_hat - math.e / 10.0) <= report.half_width_power
        assert report.passed

    def test_degenerate_attack_power_equals_size(self):
        report = estimate_error_rates(_sim(attack=AttackSpec(0.0)))
        assert report.power_closed == report.alpha_closed
        assert abs(report.power_hat - report.alpha_hat) <= (
            report.half_width_alpha + report.half_width_power
        )

    def test_two_sided_null_power(self):
        report = estimate_error_rates(
            _sim(direction=TWO, alpha=0.05, attack=AttackSpec(0.0))
        )
        assert report.power_closed == pytest.approx(0.05, rel=1e-13)
        assert abs(report.power_hat - 0.05) <= report.half_width_power

    def test_half_width_formula(self):
        report = estimate_error_rates(_sim(n_trials=50_000))
        n = 50_000
        assert report.half_width_alpha == 3.0 * math.sqrt(
            report.alpha_hat * (1.0 - report.alpha_hat) / n
        )

    def test_deterministic_across_runs(self):
        a = estimate_error_rates(_sim())
        b = estimate_error_rates(_sim())
        assert a == b

    def test_deterministic_across_worker_counts(self):
        # Chunked streams make the report independent of thread fan-out.
        a = estimate_error_rates(_sim(), workers=1)
        b = estimate_error_rates(_sim(), workers=4)
        c = estimate_error_rates(_sim(), workers=8)
        assert a == b == c

    def test_seed_changes_estimates(self):
        a = estimate_error_rates(_sim())
        b = estimate_error_rates(_sim(seed=999))
        assert (a.alpha_hat, a.power_hat) != (b.alpha_hat, b.power_hat)

    def test_odd_trial_counts(self):
        # Not a multiple of the chunk size; single trial also works.
        r = estimate_error_rates(_sim(n_trials=70_001))
        assert 0.0 <= r.alpha_hat <= 1.0
        r1 = estimate_error_rates(_sim(n_trials=1))
        assert r1.alpha_hat in (0.0, 1.0)

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            _sim(n_trials=0)


class TestRunAttackExperiment:
    DATA = Dataset(records=(0.5, 0.25, 1.0, 0.75), bound=1.0)

    def test_bound_must_match_sensitivity(self):
        sim = _sim(cfg=MechanismConfig(s=2.0, eps=1.0))
        with pytest.raises(ValueError, match="sensitivity"):
            run_attack_experiment(self.DATA, sim)

    def test_rates_match_closed_forms(self):
        report = run_attack_experiment(self.DATA, _sim())
        assert report.passed

    def test_null_detection_rate_is_alpha(self):
        report = run_attack_experiment(self.DATA, _sim(attack=AttackSpec(0.0)))
        assert abs(report.alpha_hat - 0.1) <= report.half_width_alpha

    def test_strong_attack_detected(self):
        # bias 4s at eps 2: closed-form power ~ 0.998, so the empirical
        # rate clears 0.95 with huge margin.
        sim = _sim(
            cfg=MechanismConfig(s=1.0, eps=2.0),
            attack=AttackSpec(4.0),
            alpha=0.05,
            n_trials=50_000,
        )
        report = run_attack_experiment(self.DATA, sim)
        assert report.power_closed > 0.998
        assert report.power_hat > 0.95

    def test_deterministic_across_workers(self):
        a = run_attack_experiment(self.DATA, _sim(), workers=1)
        b = run_attack_experiment(self.DATA, _sim(), workers=8)
        assert a == b

    def test_trace_consistent_with_report(self):
        sim = _sim(n_trials=5_000)
        report, trace = run_attack_experiment(self.DATA, sim, trace=True)
        n = sim.n_trials
        for arr in (trace.h0_releases, trace.h1_residuals, trace.h1_detected):
            assert arr.shape == (n,)
        assert int(trace.h0_detected.sum()) == round(report.alpha_hat * n)
        assert int(trace.h1_detected.sum()) == round(report.power_hat * n)
        q = 0.5 + 0.25 + 1.0 + 0.75
        np.testing.assert_array_equal(trace.h0_residuals, trace.h0_releases - q)
        np.testing.assert_array_equal(trace.h1_residuals, trace.h1_releases - q)
        # H1 residuals carry the injected bias on top of the noise.
        assert trace.h1_residuals.mean() == pytest.approx(
            sim.attack.x_a, abs=5.0 * sim.cfg.b1 / math.sqrt(n)
        )


class TestStreamKeying:
    """Every draw comes from RngStream(seed, role << 48 | chunk) in chunks of
    2^16 trials, H0 as role 0 and H1 as role 1, at any worker count."""

    N = 2 * 2**16 + 5
    CHUNKS = ((0, 2**16), (1, 2**16), (2, 5))
    CFG = MechanismConfig(s=1.2, eps=0.8, theta=1.5, mu0=0.3)
    ATTACK = AttackSpec(0.9)

    def _sim(self, direction):
        return _sim(
            cfg=self.CFG, attack=self.ATTACK, alpha=0.2, direction=direction,
            n_trials=self.N, seed=4242,
        )

    def _draws(self, dist: LaplaceDist, role: int, seed: int) -> np.ndarray:
        return np.concatenate(
            [dist.sample(RngStream(seed, role << 48 | c), m) for c, m in self.CHUNKS]
        )

    @staticmethod
    def _region(z: np.ndarray, test: DetectionTest) -> np.ndarray:
        if test.direction is RIGHT:
            return z > test.k
        if test.direction is TailDirection.LEFT:
            return z < test.k
        return (z > test.k1) | (z < test.k2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_estimate_counts(self, workers, direction):
        sim = self._sim(direction)
        report = estimate_error_rates(sim, workers=workers)
        test = DetectionTest.from_alpha(sim.alpha, sim.cfg, direction)
        h0, h1 = hypothesis_pair(sim.cfg, sim.attack)
        n0 = int(np.count_nonzero(self._region(self._draws(h0, 0, sim.seed), test)))
        n1 = int(np.count_nonzero(self._region(self._draws(h1, 1, sim.seed), test)))
        assert (report.alpha_hat, report.power_hat) == (n0 / self.N, n1 / self.N)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_attack_trace(self, workers, direction):
        data = Dataset(records=(0.5, 1.125, 0.25), bound=1.2)  # exact sum
        sim = self._sim(direction)
        _, trace = run_attack_experiment(data, sim, workers=workers, trace=True)
        test = DetectionTest.from_alpha(sim.alpha, sim.cfg, direction)
        q = sum(data.records)
        cfg = sim.cfg
        h0_releases = q + self._draws(LaplaceDist(cfg.mu0, cfg.b0), 0, sim.seed)
        h1_releases = (
            q + self._draws(LaplaceDist(cfg.mu0, cfg.b1), 1, sim.seed)
        ) + sim.attack.x_a
        expected = {
            "h0_releases": h0_releases,
            "h0_residuals": h0_releases - q,
            "h0_detected": self._region(h0_releases - q, test),
            "h1_releases": h1_releases,
            "h1_residuals": h1_releases - q,
            "h1_detected": self._region(h1_releases - q, test),
        }
        for name, want in expected.items():
            got = getattr(trace, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestBufferedChunks:
    """Untraced runs sample into per-thread buffers and count each end of the
    region separately; traced runs keep fresh arrays. Both score the same."""

    N = 100_003  # not a multiple of the 2^16 chunk
    DATA = Dataset(records=(0.5, 0.25, 1.0), bound=1.0)

    def _sim(self, direction):
        return _sim(
            cfg=MechanismConfig(s=1.0, eps=0.7, theta=1.5, mu0=0.3),
            attack=AttackSpec(-0.8 if direction is TailDirection.LEFT else 0.8),
            direction=direction,
            n_trials=self.N,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_untraced_report_equals_traced(self, workers, direction):
        sim = self._sim(direction)
        report, _ = run_attack_experiment(self.DATA, sim, workers=workers, trace=True)
        assert run_attack_experiment(self.DATA, sim, workers=workers) == report

    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_estimate_same_at_one_and_two_workers(self, direction):
        sim = self._sim(direction)
        assert estimate_error_rates(sim, workers=1) == estimate_error_rates(sim, workers=2)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 4 * 2 * 3 * 9
        eps_values = {cell[0] for cell in grid}
        assert eps_values == {0.015, 0.5, 1.0, 2.0}

    def test_run_grid_small(self):
        grid = [(1.0, 1.0, 1.0, 0.1), (2.0, 1.5, 4.0, 0.5)]
        rows = run_grid(grid=grid, n_trials=20_000, seed=7)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {
                "eps", "theta", "dmu", "alpha",
                "alpha_hat", "power", "power_hat", "pass",
            }
            assert row["pass"]

    def test_run_grid_deterministic(self):
        grid = [(1.0, 1.0, 1.0, 0.1)]
        a = run_grid(grid=grid, n_trials=10_000, seed=3)
        b = run_grid(grid=grid, n_trials=10_000, seed=3, workers=4)
        assert a == b

    def test_csv_appends_without_duplicate_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        rows = run_grid(grid=[(1.0, 1.0, 1.0, 0.1)], n_trials=5_000, seed=1)
        write_grid_csv(rows, path)
        write_grid_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass"
        assert len(lines) == 3
        assert lines[1] == lines[2]


class TestSimReportJson:
    def test_fields_and_key_names(self):
        report = estimate_error_rates(_sim(n_trials=10_000))
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "alpha_hat",
            "power_hat",
            "alpha_closed",
            "power_closed",
            "half_width_alpha",
            "half_width_power",
            "pass",
        ]
        assert payload["pass"] == report.passed

    def test_json_bytes_stable(self):
        a = estimate_error_rates(_sim(n_trials=10_000)).to_json()
        b = estimate_error_rates(_sim(n_trials=10_000)).to_json()
        assert a == b
