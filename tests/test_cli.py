"""CLI tests: golden outputs, exit codes, artifacts, dispatch coverage."""

import inspect
import json
import warnings

import pytest

from lapdetect import detector, divergence, laplace, mechanism, montecarlo, quadrature
from lapdetect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGoldenOutputs:
    def test_threshold_continuity_point(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--alpha", "0.5", "--mu0", "0", "--s", "1",
            "--eps", "1", "--tail", "right",
        )
        assert code == 0
        assert out == "0\n"

    def test_threshold_two_sided(self, capsys):
        code, out, _ = run(capsys, "threshold", "--alpha", "0.05", "--tail", "two-sided")
        assert code == 0
        assert out == "(2.995732, -2.995732)\n"

    def test_threshold_with_bias_prints_cutoff(self, capsys):
        code, out, _ = run(capsys, "threshold", "--alpha", "0.25", "--dmu", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.6931472"
        assert lines[1] == "kappa = 1.471518"
        assert lines[2] == "lr_at_k = 1.471518"

    def test_power(self, capsys):
        code, out, _ = run(capsys, "power", "--alpha", "0.1", "--dmu", "1")
        assert code == 0
        assert out == "0.2718282\n"  # e / 10

    def test_interval(self, capsys):
        code, out, _ = run(
            capsys, "interval", "--alpha", "0.05", "--beta-bar", "0.8",
            "--theta", "1", "--s", "1", "--eps", "1",
        )
        assert code == 0
        assert out == "(-3.218876, 3.218876)\n"

    def test_kl_text(self, capsys):
        code, out, _ = run(
            capsys, "kl", "--mu0", "0", "--dmu", "4", "--s", "1", "--eps", "1",
            "--theta", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d_closed = 3.018316"
        assert lines[1] == "d_quadrature = 3.018316"
        assert lines[2] == "epsilon = 1"
        assert lines[3] == "bound = 2.718282"
        assert lines[4] == "violated = true"
        assert lines[5] == "form = canonical"

    def test_kl_json(self, capsys):
        code, out, _ = run(capsys, "kl", "--dmu", "4", "--eps", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["violated"] is False
        assert payload["bound"] == pytest.approx(1.6487212707001282)

    def test_kl_variant_annotates(self, capsys):
        code, out, _ = run(capsys, "kl", "--dmu", "-1", "--kl-variant")
        assert code == 0
        assert "form = variant" in out
        assert "d_canonical" in out

    def test_kl_variant_ignored_for_positive_bias(self, capsys):
        code, out, _ = run(capsys, "kl", "--dmu", "1", "--kl-variant")
        assert code == 0
        assert "form = canonical" in out


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    def test_usage_error_missing_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["power", "--alpha", "0.1"])  # --dmu missing
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--alpha", "2"],
            ["threshold", "--alpha", "0.1", "--eps", "0"],
            ["threshold", "--alpha", "0.1", "--theta", "0.5"],
            ["interval", "--alpha", "0", "--beta-bar", "0.5"],
            ["simulate", "--alpha", "0.1"],  # no --dmu and no --sweep
            ["simulate", "--dmu", "1", "--samples", "100", "--workers", "0"],
            ["simulate", "--dmu", "1", "--samples", "100", "--workers", "-7"],
        ],
    )
    def test_domain_errors_exit_three(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # single-line diagnostic

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "--alpha", "0.1", "--dmu", "nan"],
            ["power", "--alpha", "0.1", "--dmu", "1", "--mu0", "nan"],
            ["power", "--alpha", "0.1", "--dmu", "1", "--s", "inf"],
            ["threshold", "--alpha", "0.1", "--mu0", "inf"],
            ["simulate", "--alpha", "0.1", "--dmu", "nan", "--samples", "100"],
            ["kl", "--dmu", "inf"],
            ["kl-sweep", "--eps-stop", "inf"],
            ["kl-sweep", "--eps-start", "nan"],
            ["kl-sweep", "--eps-start=-inf", "--eps-stop", "inf"],
        ],
    )
    def test_non_finite_inputs_exit_three(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert caught == []
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1


class TestArtifacts:
    def test_roc_csv(self, capsys, tmp_path):
        path = tmp_path / "roc.csv"
        code, out, _ = run(
            capsys, "roc", "--dmu", "1", "--eps", "2", "--theta", "1",
            "--grid", "99", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,k1,k2,power"
        assert len(lines) == 100
        cells = lines[1].split(",")
        assert cells[2] == ""  # one-sided: k2 column empty
        assert float(cells[0]) == 0.01

    def test_roc_default_theta_matches_flagless_run(self, capsys, tmp_path):
        # Default scale inflation for the ROC sweep is 1.5.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "roc", "--dmu", "1", "--grid", "9", "--out", str(a))
        run(capsys, "roc", "--dmu", "1", "--grid", "9", "--theta", "1.5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_out_dir_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LAPDETECT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "roc", "--dmu", "1", "--grid", "9")
        assert code == 0
        assert (tmp_path / "roc.csv").exists()

    def test_kl_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "kl.csv"
        code, _, _ = run(
            capsys, "kl-sweep", "--eps-list", "0.5,1", "--theta-list", "1",
            "--dmu-over-s", "4", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,theta,dmu_over_s,kl,bound,violated"
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")

    def test_kl_sweep_linspace_default(self, capsys, tmp_path):
        path = tmp_path / "kl.csv"
        code, _, _ = run(
            capsys, "kl-sweep", "--eps-count", "5", "--theta-list", "1",
            "--dmu-over-s", "1", "--out", str(path),
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--eps-count", "0"], "nonempty"),
            (["--eps-list="], "nonempty"),
            (["--theta-list="], "nonempty"),
            (["--dmu-over-s="], "nonempty"),
            (["--eps-list", "nan"], "privacy parameter must be finite and > 0"),
            (["--eps-list", "inf"], "privacy parameter must be finite and > 0"),
            (["--theta-list", "nan"], "scale inflation must be finite and >= 1"),
            (["--theta-list", "inf"], "scale inflation must be finite and >= 1"),
            (["--s", "inf"], "sensitivity must be finite and > 0"),
            (["--s", "nan"], "sensitivity must be finite and > 0"),
            (["--mu0", "nan"], "null location must be finite, got mu0=nan"),
            (["--dmu-over-s", "nan"], "bias ratio must be finite, got dmu_over_s=nan"),
            (
                ["--mu0", "1e308", "--dmu-over-s", "1e10", "--s", "1e300"],
                "attack location mu0 + dmu_over_s*s overflows, got inf",
            ),
        ],
    )
    def test_kl_sweep_empty_or_non_finite_grid_exits_three(self, capsys, tmp_path, args, message):
        path = tmp_path / "kl.csv"
        code, out, err = run(capsys, "kl-sweep", *args, "--out", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not path.exists()


class TestSimulate:
    ARGS = (
        "simulate", "--alpha", "0.1", "--dmu", "1", "--samples", "20000",
        "--seed", "11",
    )

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["power_closed"] == pytest.approx(0.2718281828459045)

    def test_byte_stability_across_runs_and_workers(self, capsys):
        outputs = set()
        for extra in ((), (), ("--workers", "8")):
            code, out, _ = run(capsys, *self.ARGS, *extra)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_with_dataset_file(self, capsys, tmp_path):
        data = tmp_path / "records.csv"
        data.write_text("value\n0.5\n0.25\n1.0\n")
        code, out, _ = run(
            capsys, "simulate", "--alpha", "0.1", "--dmu", "1",
            "--samples", "20000", "--data", str(data), "--bound", "1",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_dataset_bound_mismatch(self, capsys, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("0.5\n")
        code = main(
            ["simulate", "--alpha", "0.1", "--dmu", "1", "--samples", "100",
             "--data", str(data), "--bound", "1", "--s", "2"]
        )
        assert code == 3

    def test_data_requires_bound(self, capsys, tmp_path):
        data = tmp_path / "records.txt"
        data.write_text("0.5\n")
        code = main(
            ["simulate", "--alpha", "0.1", "--dmu", "1", "--samples", "100",
             "--data", str(data)]
        )
        assert code == 3

    def test_sweep_appends_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "simulate", "--sweep", "--samples", "400", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass"
        assert len(lines) == 1 + len(montecarlo.default_grid())


# Ownership table: every public library operation is assigned to exactly one
# subcommand, by topic; noisy_release, inject_attack, decide and LaplaceDist's
# sample and pdf are not called by theirs. The test suite checks only that
# this is a partition of the full operation registry.
SUBCOMMAND_OPS = {
    "threshold": frozenset(
        {
            "detector.kappa",
            "detector.likelihood_ratio",
            "laplace.LaplaceDist.quantile",
        }
    ),
    "power": frozenset(
        {
            "mechanism.hypothesis_pair",
            "laplace.LaplaceDist.cdf",
            "laplace.LaplaceDist.survival",
        }
    ),
    "roc": frozenset({"detector.roc_curve", "detector.write_roc_csv"}),
    "interval": frozenset({"detector.bias_interval"}),
    "kl": frozenset(
        {
            "divergence.kl_laplace",
            "divergence.kl_laplace_variant",
            "divergence.kl_quadrature",
            "divergence.kl_dp_check",
            "laplace.LaplaceDist.mean_abs_dev",
            "laplace.LaplaceDist.pdf",
            # Not kl's engine: the independent oracle behind its closed form.
            "quadrature.adaptive_simpson",
        }
    ),
    "kl-sweep": frozenset({"divergence.kl_sweep", "divergence.write_kl_sweep_csv"}),
    "simulate": frozenset(
        {
            "montecarlo.estimate_error_rates",
            "montecarlo.run_attack_experiment",
            "montecarlo.default_grid",
            "montecarlo.run_grid",
            "montecarlo.write_grid_csv",
            "mechanism.sum_query",
            "mechanism.noisy_release",
            "mechanism.inject_attack",
            "mechanism.load_dataset",
            "detector.decide",
            "laplace.LaplaceDist.sample",
        }
    ),
}

OPERATION_REGISTRY = frozenset().union(*SUBCOMMAND_OPS.values())


def _public_operations() -> set[str]:
    """Module-level functions plus the distribution's calculus methods."""
    ops = set()
    for mod in (mechanism, detector, divergence, montecarlo, quadrature):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                ops.add(f"{short}.{name}")
    ops.update(
        f"laplace.LaplaceDist.{m}"
        for m in ("pdf", "cdf", "survival", "quantile", "sample", "mean_abs_dev")
    )
    return ops


class TestDispatchCoverage:
    def test_table_is_a_partition(self):
        # Every operation is owned by exactly one subcommand.
        seen = set()
        for name, ops in SUBCOMMAND_OPS.items():
            overlap = seen & ops
            assert not overlap, f"{name} re-claims {overlap}"
            seen |= ops
        assert seen == OPERATION_REGISTRY

    def test_registry_matches_public_surface(self):
        assert OPERATION_REGISTRY == _public_operations()

    def test_subcommands_match_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        helptext = capsys.readouterr().out
        for name in SUBCOMMAND_OPS:
            assert name in helptext
