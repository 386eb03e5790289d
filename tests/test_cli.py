"""CLI tests: golden outputs, exit codes, artifacts, dispatch coverage."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lapdetect import cli, detector, divergence, laplace, mechanism, montecarlo, quadrature
from lapdetect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModuleEntry:
    """``python -m lapdetect.cli`` exits with ``main``'s code, in a fresh interpreter."""

    @staticmethod
    def _spawn(*argv: str) -> subprocess.CompletedProcess:
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "lapdetect.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_success_prints_and_exits_zero(self):
        proc = self._spawn("threshold", "--alpha", "0.5")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_missing_subcommand_exits_two(self):
        proc = self._spawn()
        assert proc.returncode == 2
        assert "required: subcommand" in proc.stderr

    def test_domain_error_exits_three(self):
        proc = self._spawn("threshold", "--alpha", "2")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--alpha", "0.1", "--dmu", "1"],
            ["simulate", "--dmu", "1", "--samples", "100"],
        ],
        ids=["threshold", "simulate"],
    )
    def test_closed_stdout_exits_one_with_empty_stderr(self, argv, unbuffered):
        # A pipe whose read end is closed: each write to it fails with EPIPE.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lapdetect.cli", *argv],
                env={**env, "PYTHONPATH": str(src)},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


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

    @pytest.mark.parametrize("dmu", [[], ["--dmu", "0"]])
    def test_threshold_without_bias_prints_only_k(self, capsys, dmu):
        assert run(capsys, "threshold", "--alpha", "0.1", *dmu) == (0, "1.609438\n", "")

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

    def test_kl_at_large_divergence(self, capsys):
        # D is about 1e8, whose double rounding exceeds the quadrature's tol.
        code, out, err = run(capsys, "kl", "--dmu", "1", "--eps", "1e8", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["d_quadrature"] == pytest.approx(payload["d_closed"], rel=1e-15)

    def test_kl_variant_annotates(self, capsys):
        code, out, _ = run(capsys, "kl", "--dmu", "-1", "--kl-variant")
        assert code == 0
        assert "form = variant" in out
        assert "d_canonical" in out

    def test_kl_variant_ignored_for_positive_bias(self, capsys):
        code, out, _ = run(capsys, "kl", "--dmu", "1", "--kl-variant")
        assert code == 0
        assert "form = canonical" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--dmu", "3"],
                "90fbb9a63b80ddfccbaff22a3ef4512dd8ca47469763eae0d6650c9e4af96ca5",
            ),
            (
                ["--dmu", "3", "--format", "json"],
                "ca06b52b7466372139afc01465774ed7dfa3cd317f607b3e60781e436b01f012",
            ),
            (
                ["--dmu", "-3", "--kl-variant"],
                "c6b2abc9e281808c552de568380aaf5041346a830aa6ec4c56925f09fc5717ce",
            ),
            (
                ["--dmu", "-3", "--kl-variant", "--format", "json"],
                "4eacb4f32321a1df0a2cd390968c347ac75d07bacb71f7dacdfb8b638557f9b5",
            ),
        ],
        ids=["text", "json", "variant-text", "variant-json"],
    )
    def test_kl_bytes_off_zero(self, capsys, argv, digest):
        # SHA-256 of the whole stdout: key order, number format and JSON layout.
        code, out, err = run(capsys, "kl", "--mu0", "5", "--theta", "2", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--alpha", "0.1", "--dmu", "inf", "--tail", "two-sided"],
            ["power", "--alpha", "0.1", "--dmu", "1", "--eps", "0"],
            ["roc", "--dmu", "1", "--grid", "0"],
            ["interval", "--alpha", "0.05", "--beta-bar", "1.5"],
            ["kl", "--dmu", "1", "--s", "0"],
            ["kl-sweep", "--theta-list", "0.5"],
            ["simulate", "--dmu", "1", "--alpha", "0", "--samples", "100"],
            ["threshold", "--alpha", "0.1", "--dmu", "nan"],
            ["kl-sweep", "--eps-list", "1", "--eps-start", "nan"],
        ],
    )
    def test_domain_error_writes_one_error_line_and_nothing_else(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.setenv("LAPDETECT_OUT_DIR", str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["kl", "--dmu", "1e308", "--eps", "10"],
            ["kl", "--dmu", "1e200", "--eps", "1e200"],
            ["kl", "--dmu=-1e308", "--eps", "10", "--theta", "2"],
        ],
    )
    def test_kl_with_overflowing_shift_exits_three(self, capsys, argv):
        # |mu1 - mu0|/b1 overflows, so the quadrature is refused up front.
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot integrate") and "|mu1 - mu0|/b1 = inf" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dmu", "1", "--s", "5e306"],
            ["--mu0", "1e15", "--dmu", "1", "--theta", "1.5"],
            ["--mu0", "1e8", "--s", "1e-3", "--dmu", "1e-3", "--theta", "1.5"],
            ["--mu0", "1e12", "--s", "1e-6", "--dmu", "1e-6", "--theta", "1.5"],
            ["--mu0", "1e8", "--s", "1e-9", "--dmu", "1e-9", "--theta", "1.5"],
            ["--mu0", "1e17", "--dmu", "1", "--theta", "1.5"],
            ["--mu0=-1e15", "--s", "1e-3", "--dmu", "1e-3", "--theta", "2"],
            ["--mu0", "1e17", "--dmu", "-1", "--kl-variant"],
        ],
        ids=[
            "s-5e306", "mu0-1e15", "mu0-1e8-s-1e-3", "mu0-1e12-s-1e-6", "mu0-1e8-s-1e-9",
            "mu0-1e17", "mu0-neg1e15-s-1e-3", "mu0-1e17-variant",
        ],
    )
    def test_kl_at_extreme_location_or_scale_answers(self, capsys, argv):
        # The quadrature runs in u = (z - mu0)/b0, so neither mu -+ 40 b0
        # overflowing (b0 = 5e306) nor nodes that round to mu0 far from the
        # origin reach it: it meets the closed form to the printed digits.
        # The pair is built from the shift, so mu0 moves no byte, even where
        # mu0 + dmu rounds the shift away (1e17 + 1 == 1e17).
        code, out, err = run(capsys, "kl", *argv)
        assert (code, err) == (0, "")
        fields = dict(line.split(" = ") for line in out.splitlines())
        assert fields["d_quadrature"] == fields.get("d_canonical", fields["d_closed"])
        if argv[0].startswith("--mu0"):
            at_origin = argv[1:] if "=" in argv[0] else argv[2:]
            assert run(capsys, "kl", *at_origin) == (0, out, "")


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

    def test_kl_sweep_far_from_the_origin_writes_the_same_bytes(self, capsys, tmp_path):
        # Each cell's pair is built from the shift, so mu0 = 1e17, where
        # mu0 + dmu_over_s*s would round to mu0, moves no byte.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "kl-sweep", "--out", str(a))[0] == 0
        assert run(capsys, "kl-sweep", "--mu0", "1e17", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

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
            (["--eps-list", "nan"], "eps must be finite, got eps="),
            (["--eps-list", "inf"], "eps must be finite, got eps="),
            (["--theta-list", "nan"], "theta must be finite, got theta="),
            (["--theta-list", "inf"], "theta must be finite, got theta="),
            (["--s", "inf"], "s must be finite, got s="),
            (["--s", "nan"], "s must be finite, got s="),
            (["--mu0", "nan"], "mu0 must be finite, got mu0=nan"),
            (["--dmu-over-s", "nan"], "bias ratio must be finite, got dmu_over_s=nan"),
            (
                ["--eps-start", "1e-320", "--eps-stop", "1e-320"],
                "noise scale s/eps must be positive and finite, got s=1.0, eps=1e-320",
            ),
            (
                ["--eps-list", "1e10", "--s", "1e-320"],
                "noise scale s/eps must be positive and finite, got s=1e-320, eps=10000000000.0",
            ),
            (
                ["--mu0", "1e308", "--dmu-over-s", "1e10", "--s", "1e300"],
                "shift dmu_over_s*s overflows, got dmu_over_s=10000000000.0, s=1e+300",
            ),
            (["--eps-count", "-1"], "Number of samples, -1, must be non-negative."),
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


def test_default_eps_grid_is_numpy_linspace():
    # kl-sweep builds its default grid without numpy; every point must carry
    # numpy.linspace's bits, also where the step underflows or overflows.
    rng = random.Random(2105)
    cases = [
        (0.1, 2.0, 39), (0.0, 0.0, 5), (-0.0, 0.0, 1), (-0.0, 1.0, 1), (2.0, 0.1, 0),
        (5e-324, 1e-323, 7), (1e-300, 1e-300 + 5e-324, 1000), (-1e308, 1e308, 1),
        (-1e308, 1e308, 3), (1.0, 2.0, 2),
    ]
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-320, 308)
        start, stop = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
        cases.append((start, rng.choice([stop, start, start + 5e-324]), rng.randint(0, 100)))
    with np.errstate(all="ignore"):  # the overflowing cases hold nan, as numpy's do
        for start, stop, count in cases:
            got = [x.hex() for x in cli._linspace(start, stop, count)]
            want = [x.hex() for x in np.linspace(start, stop, count).tolist()]
            assert got == want, (start, stop, count)


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_exits_three(self, capsys, tmp_path, seed):
        # Masked to 64 bits, -1 drew seed 2^64 - 1's stream and 2^64 seed 0's.
        path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "simulate", "--dmu", "1", "--samples", "100",
            "--seed", str(seed), "--out", str(path),
        )
        assert (code, out) == (3, "")
        assert err == f"error: seed must lie in [0, 2^64), got seed={seed}\n"
        assert not path.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sweep_seed_outside_key_range_exits_three(self, capsys, tmp_path, seed):
        # Each cell's seed is drawn from the stream (seed, cell index), so the
        # sweep checks the key range before it runs a cell.
        path = tmp_path / "grid.csv"
        code, out, err = run(
            capsys, "simulate", "--sweep", "--samples", "10",
            "--seed", str(seed), "--out", str(path),
        )
        assert (code, out) == (3, "")
        assert err == f"error: seed must lie in [0, 2^64), got seed={seed}\n"
        assert not path.exists()

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dmu", "1", "--samples", "100", "--seed", str(2**64 - 1),
        )
        assert code == 0
        assert json.loads(out)["alpha_closed"] == pytest.approx(0.05)

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
# subcommand, by topic; decide and LaplaceDist's sample and pdf are not called
# by theirs. The test suite checks only that this is a partition of the full
# operation registry.
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
