"""Simulation tests: empirical rates vs closed forms, determinism, and the
per-trial release pipeline rebuilt here from the chunk streams."""

import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import lapdetect
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
    sum_query,
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


def _detections(z: np.ndarray, test: DetectionTest) -> np.ndarray:
    """Strict-tail decisions on residuals ``z`` against the test's thresholds."""
    if test.direction is RIGHT:
        return z > test.k
    if test.direction is TailDirection.LEFT:
        return z < test.k
    return (z > test.k1) | (z < test.k2)


def _pipeline(data: Dataset, sim: SimConfig) -> list[tuple[np.ndarray, ...]]:
    """(releases, residuals, detections) for H0 and then H1, as run_attack_experiment
    forms them: role r draws chunk c of 2^16 trials from RngStream(seed, r << 48 | c)
    of Lap(mu0, b_r), releases (q + x) + shift and decides the residual release - q."""
    cfg, q, n = sim.cfg, sum_query(data), sim.n_trials
    test = DetectionTest.from_alpha(sim.alpha, cfg, sim.direction)
    roles = []
    for r, (b, shift) in enumerate(((cfg.b0, 0.0), (cfg.b1, sim.attack.x_a))):
        draws = [
            LaplaceDist(cfg.mu0, b).sample(RngStream(sim.seed, r << 48 | c), min(2**16, n - s))
            for c, s in enumerate(range(0, n, 2**16))
        ]
        releases = (q + np.concatenate(draws)) + shift
        residuals = releases - q
        roles.append((releases, residuals, _detections(residuals, test)))
    return roles


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
        # Chunked streams make the report independent of ``workers``.
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

    @pytest.mark.parametrize("workers", [0, -7])
    def test_worker_count_validated(self, workers):
        # One check in the shared scheduler serves every entry point.
        data = Dataset(records=(0.5,), bound=1.0)
        calls = (
            lambda: estimate_error_rates(_sim(n_trials=10), workers=workers),
            lambda: run_attack_experiment(data, _sim(n_trials=10), workers=workers),
            lambda: run_grid(grid=default_grid()[:1], n_trials=10, workers=workers),
        )
        for call in calls:
            with pytest.raises(ValueError, match="worker"):
                call()


def test_workers_count_every_chunk_in_order_on_the_calling_thread(monkeypatch):
    # ``workers`` starts no threads: at workers=4 every count is made here,
    # role 0's chunks first, each role's in chunk order.
    calls = []
    count = LaplaceDist._count

    def recording_count(self, rng, *args):
        calls.append((threading.get_ident(), rng.stream_id))
        return count(self, rng, *args)

    monkeypatch.setattr(LaplaceDist, "_count", recording_count)
    sim = _sim(n_trials=3 * (1 << 16) + 5)
    data = Dataset(records=(0.5,), bound=1.0)
    expected = [(threading.get_ident(), r << 48 | c) for r in (0, 1) for c in range(4)]
    for run in (
        lambda: estimate_error_rates(sim, workers=4),
        lambda: run_attack_experiment(data, sim, workers=4),
    ):
        calls.clear()
        run()
        assert calls == expected


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
        # The per-trial pipeline rebuilt from the chunk streams agrees with the report.
        sim = _sim(n_trials=5_000)
        report = run_attack_experiment(self.DATA, sim)
        (h0_releases, h0_residuals, h0_detected), (h1_releases, h1_residuals, h1_detected) = (
            _pipeline(self.DATA, sim)
        )
        n = sim.n_trials
        for arr in (h0_releases, h1_residuals, h1_detected):
            assert arr.shape == (n,)
        assert int(h0_detected.sum()) == round(report.alpha_hat * n)
        assert int(h1_detected.sum()) == round(report.power_hat * n)
        q = 0.5 + 0.25 + 1.0 + 0.75
        np.testing.assert_array_equal(h0_residuals, h0_releases - q)
        np.testing.assert_array_equal(h1_residuals, h1_releases - q)
        # H1 residuals carry the injected bias on top of the noise.
        assert h1_residuals.mean() == pytest.approx(
            sim.attack.x_a, abs=5.0 * sim.cfg.b1 / math.sqrt(n)
        )

    def test_trace_is_gone(self):
        # 0.6.0 dropped the traced pipeline: the report is the only result.
        with pytest.raises(TypeError, match="trace"):
            run_attack_experiment(self.DATA, _sim(n_trials=10), trace=True)
        assert "AttackTrace" not in lapdetect.__all__
        assert not hasattr(lapdetect, "AttackTrace")
        assert run_attack_experiment.__annotations__["return"] == "SimReport"

    def test_readme_rebuild_recipe_sums_to_the_report(self):
        # The README's 0.6.0 migration snippet rebuilds the arrays behind a report.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("Version 0.6.0") :]
        namespace = {}
        exec(re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1), namespace)
        data = Dataset(records=(0.5, 1.125, 0.25), bound=1.2)
        for direction in TailDirection:
            sim = _sim(
                cfg=MechanismConfig(s=1.2, eps=0.8, theta=1.5, mu0=0.3), attack=AttackSpec(0.9),
                alpha=0.2, direction=direction, n_trials=2**16 + 5, seed=4242,
            )
            report = run_attack_experiment(data, sim)
            (_, _, h0_detected), (_, _, h1_detected) = namespace["rebuild"](data, sim)
            n = sim.n_trials
            assert (h0_detected.sum(), h1_detected.sum()) == (
                round(report.alpha_hat * n), round(report.power_hat * n)
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_estimate_counts(self, workers, direction):
        sim = self._sim(direction)
        report = estimate_error_rates(sim, workers=workers)
        test = DetectionTest.from_alpha(sim.alpha, sim.cfg, direction)
        h0, h1 = hypothesis_pair(sim.cfg, sim.attack)
        n0 = int(np.count_nonzero(_detections(self._draws(h0, 0, sim.seed), test)))
        n1 = int(np.count_nonzero(_detections(self._draws(h1, 1, sim.seed), test)))
        assert (report.alpha_hat, report.power_hat) == (n0 / self.N, n1 / self.N)


class TestLatticeCount:
    """Attack runs count each chunk on the draws' integer lattice
    (``LaplaceDist._count``) and pass only the draws next to a threshold
    through the release pipeline ((q + z) + x_a) - q. The report's counts
    equal the detections among every release rebuilt here from the chunk
    streams (``_pipeline``), at any worker count, also where q, mu0 or x_a
    dwarf b0 and where the cut t - x_a overflows."""

    N = 100_003  # not a multiple of the 2^16 chunk
    CASES = {
        "small": (MechanismConfig(s=1.0, eps=0.7, theta=1.5, mu0=0.3), (0.5, 0.25, 1.0), 0.8),
        # ulp(q) = 2^-23 is close to b0 = 1e-7, so rounding q + z quantizes releases.
        "q=1e9": (MechanismConfig(s=1e6, eps=1e13), (1e6,) * 1000, 1e-7),
        "mu0=1e8": (MechanismConfig(s=1e-6, eps=1.0, theta=1.5, mu0=1e8), (5e-7, 2.5e-7), 1e-6),
        "mu0=-1e12": (MechanismConfig(s=1.0, eps=0.5, theta=1.5, mu0=-1e12), (0.5, 1.0), -2.0),
        "x_a=1e300": (MechanismConfig(s=1.0, eps=1.0), (0.5, 0.25), 1e300),
        # t - x_a overflows, so every lattice point goes through the pipeline.
        "t-x_a=inf": (MechanismConfig(s=1.0, eps=1.0, mu0=1e308), (0.5,), -1e308),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("direction", list(TailDirection))
    @pytest.mark.parametrize("case", list(CASES))
    def test_report_counts_equal_traced_detections(self, case, direction, workers):
        cfg, records, x_a = self.CASES[case]
        sim = _sim(cfg=cfg, attack=AttackSpec(x_a), direction=direction, n_trials=self.N)
        data = Dataset(records, bound=cfg.s)
        report = run_attack_experiment(data, sim, workers=workers)
        n0, n1 = (int(np.count_nonzero(d)) for _, _, d in _pipeline(data, sim))
        assert (report.alpha_hat, report.power_hat) == (n0 / self.N, n1 / self.N)

    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_estimate_same_at_one_and_two_workers(self, direction):
        cfg, _, x_a = self.CASES["small"]
        sim = _sim(cfg=cfg, attack=AttackSpec(x_a), direction=direction, n_trials=self.N)
        assert estimate_error_rates(sim, workers=1) == estimate_error_rates(sim, workers=2)


class TestGrid:
    @pytest.mark.parametrize("direction", list(TailDirection))
    def test_lattice_band_stays_narrow_on_default_grid(self, direction):
        # estimate_error_rates transforms only the lattice points between a
        # threshold's cut-points; a band this narrow is hit about once in
        # 2^14 chunks of 2^16 draws, so run_grid stays on the fast path.
        worst = 0.0
        for eps, theta, ratio, alpha in default_grid():
            cfg = MechanismConfig(s=1.0, eps=eps, theta=theta)
            test = DetectionTest.from_alpha(alpha, cfg, direction)
            ends = [test.k1] if test.k2 is None else [test.k1, test.k2]
            for dist in hypothesis_pair(cfg, AttackSpec(ratio)):
                for t in ends:
                    lo, hi = dist._cuts(t)
                    worst = max(worst, (hi - lo) / 2**53)
        assert 0.0 < worst <= 2.0**-30

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
