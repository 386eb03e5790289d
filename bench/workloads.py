"""The four benchmark workloads, one per layer that later changes target.

Each workload builds its inputs from the seed in ``__init__`` (the set-up,
which ends with a warm-up call), then runs whole rounds of the same
operations.  ``round(tracer)`` returns one wall time per operation, in the
same order every round, and checks every output against ``reference`` or
against a property the method must have.  A failed check is appended to
``errors``; ``attempted`` and ``failed`` count operations.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref

CHUNK = 1 << 16  # lapdetect's Monte Carlo chunk length


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    name = ""
    min_rounds = 1
    work_per_round = 0  # units counted by work_per_s
    unit = ""
    kept_failing_ops: tuple[int, ...] = ()  # indices into a round's operations

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def finish(self) -> None:
        """Checks that need the whole run; outside every timed part."""

    def close(self) -> None:
        """Stop and wait for any process the workload started."""


class McGrid(Workload):
    """run_grid over the 216-cell default grid, every fourth cell two-sided.

    Each cell is one run_grid call with nproc chunks per role.  The calls
    run at workers=1: at workers=nproc the per-role thread pools made the
    wall time of the same grid swing by 2x within one process, too much
    for any bound, so the nproc case is a per-layer metric instead.  Each
    round draws fresh streams; the pass share is taken over the whole run.
    """

    name = "mc-grid"
    min_rounds = 3
    unit = "Laplace draws"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        from lapdetect import TailDirection, default_grid, run_grid

        self.run_grid = run_grid
        self.workers = 1
        self.n = nproc() * CHUNK
        self.cells = [
            (cell, TailDirection.TWO_SIDED if i % 4 == 3 else TailDirection.RIGHT)
            for i, cell in enumerate(default_grid())
        ]
        self.work_per_round = 2 * self.n * len(self.cells)
        self.rounds = 0
        self.passed = 0
        self.first_rows = {}
        self.run_grid([self.cells[0][0]], n_trials=self.n, seed=0, workers=self.workers)

    def cell_seed(self, rnd: int, i: int) -> int:
        return ((self.seed % (1 << 32)) << 24) | (rnd << 8) | i

    def round(self, tr):
        times = []
        for i, (cell, tail) in enumerate(self.cells):
            seed = self.cell_seed(self.rounds, i)
            with tr.span("bench.cell"):
                t0 = time.perf_counter()
                with tr.span("montecarlo.run_grid"):
                    (row,) = self.run_grid(
                        [cell], n_trials=self.n, seed=seed, workers=self.workers, direction=tail
                    )
                times.append(time.perf_counter() - t0)
                with tr.span("bench.check"):
                    self.check_row(row, cell, tail.value)
            if self.rounds == 0 and i in (0, 3, 101):
                self.first_rows[i] = row
        self.attempted += len(self.cells)
        self.rounds += 1
        return times

    def check_row(self, row, cell, tail):
        eps, theta, ratio, alpha = cell
        b0 = 1.0 / eps
        want = float(ref.power(alpha, tail, 0.0, b0, ratio, theta * b0))
        tag = f"cell {cell} {tail}"
        self.check(ref.close(row["power"], want), f"{tag}: power {row['power']} != {want}")
        self.check(
            abs(row["alpha_hat"] - alpha) <= ref.binomial_band(alpha, self.n, 6.0),
            f"{tag}: alpha_hat {row['alpha_hat']} outside 6-sigma band of {alpha}",
        )
        self.check(
            abs(row["power_hat"] - want) <= ref.binomial_band(want, self.n, 6.0),
            f"{tag}: power_hat {row['power_hat']} outside 6-sigma band of {want}",
        )
        self.passed += bool(row["pass"])

    def finish(self):
        share = self.passed / (self.rounds * len(self.cells))
        self.check(share >= 0.98, f"pass share {share:.4f} < 0.98")
        for i, row in self.first_rows.items():
            cell, tail = self.cells[i]
            (again,) = self.run_grid(
                [cell], n_trials=self.n, seed=self.cell_seed(0, i), workers=1, direction=tail
            )
            self.check(again == row, f"cell {i}: workers=1 gives {again}, not {row}")


class KlOracle(Workload):
    """Closed-form KL against the Simpson quadrature oracle.

    The shape of each pair, its |dmu| / b0 and b1 / b0, comes from a fixed
    draw (SHAPE_SEED) made as in acceptance criterion 08 (mu ~ U(-5, 5),
    b ~ U(0.2, 5)).  Of every 10 pairs, 7 compare at tol 4e-9, 2 go through
    kl_dp_check at the library default 1e-10, and 1 is well separated,
    |dmu| / b0 log-uniform in [20, 300].  The seed moves, scales and mirrors
    each pair and draws its eps.

    Why the shapes are fixed: on rare shapes with |dmu| / b0 above about 8,
    kl_quadrature accepts an unresolved panel between the two locations
    and misses its tolerance by up to 160x.  The divergence and the
    quadrature's panel choices do not change when a pair is moved, scaled
    or mirrored, so with fixed shapes an operation passes or fails alike
    for every seed; with shapes drawn from the seed, seed 893086661 drew
    such a pair.
    """

    name = "kl-oracle"
    unit = "KL comparisons"
    pairs = 960
    SHAPE_SEED = 8

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        from lapdetect import LaplaceDist, kl_dp_check, kl_laplace, kl_quadrature

        self.kl_laplace, self.kl_quadrature, self.kl_dp_check = kl_laplace, kl_quadrature, kl_dp_check
        shapes = np.random.default_rng(self.SHAPE_SEED)
        n = self.pairs
        mu = shapes.uniform(-5.0, 5.0, size=(n, 2))
        b = shapes.uniform(0.2, 5.0, size=(n, 2))
        kind = np.array(["narrow"] * 7 + ["dp"] * 2 + ["wide"])[np.arange(n) % 10]
        wide = kind == "wide"
        # One separation per equal slice of log [20, 300]: the quadrature's
        # cost grows with the separation, and stratifying spreads the wide
        # pairs' cost evenly over that range.
        n_wide = int(wide.sum())
        sep = np.exp(np.log(20.0) + (np.arange(n_wide) + shapes.random(n_wide)) / n_wide * np.log(15.0))
        mu[wide, 1] = mu[wide, 0] + shapes.permutation(sep) * b[wide, 0]
        r = self.rng
        scale = r.uniform(0.5, 2.0, size=(n, 1))
        mirror = np.where(r.random((n, 1)) < 0.5, -1.0, 1.0)
        mu = mirror * scale * mu + r.uniform(-5.0, 5.0, size=(n, 1))
        b = scale * b
        self.eps = r.uniform(0.1, 3.0, size=n)
        self.want = ref.kl(mu[:, 0], b[:, 0], mu[:, 1], b[:, 1])
        self.inputs = [
            (k, LaplaceDist(mu[i, 0], b[i, 0]), LaplaceDist(mu[i, 1], b[i, 1]), float(self.eps[i]))
            for i, k in enumerate(kind)
        ]
        self.work_per_round = n
        self.kl_quadrature(self.inputs[0][1], self.inputs[0][2], 4e-9)

    def round(self, tr):
        times = []
        for i, (kind, p0, p1, eps) in enumerate(self.inputs):
            t0 = time.perf_counter()
            if kind == "dp":
                with tr.span("divergence.kl_dp_check"):
                    rep = self.kl_dp_check(p0, p1, eps)
                times.append(time.perf_counter() - t0)
                d, q = rep.d_closed, rep.d_quadrature
                bound = math.exp(eps)
                self.check(ref.close(rep.bound, bound), f"pair {i}: bound {rep.bound} != {bound}")
                self.check(rep.violated == (d > bound), f"pair {i}: violated flag wrong")
            else:
                with tr.span("divergence.kl_laplace"):
                    d = self.kl_laplace(p0, p1)
                with tr.span("divergence.kl_quadrature"):
                    q = self.kl_quadrature(p0, p1, 4e-9)
                times.append(time.perf_counter() - t0)
            self.check(abs(d - q) <= 1e-8, f"pair {i} ({kind}): |closed - quadrature| = {abs(d - q):.3e}")
            self.check(ref.close(d, self.want[i], 1e-12, 1e-14), f"pair {i}: closed {d} != {self.want[i]}")
        self.attempted += len(self.inputs)
        return times


def _reads_back(text: str, value: float | None) -> bool:
    return text == "" if value is None else float(text) == value


class Figures(Workload):
    """The paper's closed-form figures.

    One operation per (eps, theta, dmu/s, tail) cell: a 999-point ROC curve
    written by write_roc_csv plus bias_interval over 25 random (alpha,
    beta_bar) pairs.  One more operation per round: a kl_sweep over 43 eps
    values written by write_kl_sweep_csv.  s and mu0 of each cell are drawn
    from the seed.
    """

    name = "figures"
    unit = "ROC points"
    eps_values = (0.015, 0.5, 1.0, 2.0)
    thetas = (1.0, 1.5)
    ratios = (-1.0, 0.5, 1.0, 4.0)
    tails = ("right", "left", "two-sided")
    grid = 999

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        import lapdetect as ld

        self.ld = ld
        r = self.rng
        self.cells = []
        for eps in self.eps_values:
            for theta in self.thetas:
                for ratio in self.ratios:
                    for tail in self.tails:
                        s = float(r.uniform(0.5, 2.0))
                        mu0 = float(r.uniform(-3.0, 3.0))
                        cfg = ld.MechanismConfig(s=s, eps=eps, theta=theta, mu0=mu0)
                        pairs = [(float(a), float(bb)) for a, bb in r.uniform(0.01, 1.0, size=(25, 2))]
                        path = out_dir / f"roc_{len(self.cells)}.csv"
                        self.cells.append((cfg, ld.AttackSpec(ratio * s), ld.TailDirection(tail), pairs, path))
        self.sweep_eps = [*self.eps_values, *np.linspace(0.1, 2.0, 39).tolist()]
        self.sweep_s = float(r.uniform(0.5, 2.0))
        self.sweep_mu0 = float(r.uniform(-3.0, 3.0))
        self.sweep_path = out_dir / "kl_sweep.csv"
        self.alphas = np.arange(1, self.grid + 1) / (self.grid + 1)
        self.work_per_round = self.grid * len(self.cells)
        cfg, attack, tail, _, _ = self.cells[0]
        ld.roc_curve(cfg, attack, tail)

    def round(self, tr):
        ld = self.ld
        times = []
        for cfg, attack, tail, pairs, path in self.cells:
            t0 = time.perf_counter()
            with tr.span("detector.roc_curve"):
                curve = ld.roc_curve(cfg, attack, tail, self.grid)
            with tr.span("detector.write_roc_csv"):
                ld.write_roc_csv(curve, path)
            with tr.span("detector.bias_interval", len(pairs)):
                ivs = [ld.bias_interval(a, bb, cfg) for a, bb in pairs]
            times.append(time.perf_counter() - t0)
            with tr.span("bench.check"):
                self.check_curve(cfg, attack, tail.value, curve, path)
                self.check_intervals(cfg, pairs, ivs)
        t0 = time.perf_counter()
        with tr.span("divergence.kl_sweep"):
            rows = ld.kl_sweep(self.sweep_eps, self.thetas, self.ratios, s=self.sweep_s, mu0=self.sweep_mu0)
        with tr.span("divergence.write_kl_sweep_csv"):
            ld.write_kl_sweep_csv(rows, self.sweep_path)
        times.append(time.perf_counter() - t0)
        with tr.span("bench.check"):
            self.check_sweep(rows)
        self.attempted += len(self.cells) + 1
        return times

    def check_curve(self, cfg, attack, tail, curve, path):
        tag = f"roc {cfg} dmu={attack.x_a} {tail}"
        pts = curve.points
        alphas = np.array([p.alpha for p in pts])
        k1 = np.array([p.k1 for p in pts])
        powers = np.array([p.power for p in pts])
        want_k1, want_k2 = ref.thresholds(self.alphas, tail, cfg.mu0, cfg.b0)
        want_pow = ref.rejection_mass(want_k1, want_k2, tail, cfg.mu0 + attack.x_a, cfg.b1)
        k2 = None if want_k2 is None else np.array([p.k2 for p in pts])
        size = ref.rejection_mass(k1, k2, tail, cfg.mu0, cfg.b0)
        self.check(np.array_equal(alphas, self.alphas), f"{tag}: alpha grid differs")
        self.check(np.allclose(size, self.alphas, rtol=0, atol=1e-12), f"{tag}: sizes differ from alpha")
        self.check(np.allclose(k1, want_k1, rtol=1e-13, atol=1e-12), f"{tag}: thresholds differ")
        if k2 is not None:
            self.check(np.allclose(k2, want_k2, rtol=1e-13, atol=1e-12), f"{tag}: lower thresholds differ")
        self.check(np.allclose(powers, want_pow, rtol=0, atol=1e-12), f"{tag}: powers differ")
        self.check(bool(np.all(np.diff(powers) >= -1e-12)), f"{tag}: power decreases as alpha grows")
        trap = ref.trapezoid_auc(self.alphas, want_pow)
        self.check(ref.close(curve.auc, trap, 1e-12), f"{tag}: AUC {curve.auc} != trapezoid {trap}")
        if cfg.theta == 1.0 and tail != "two-sided":
            x = attack.x_a / cfg.b0
            exact = ref.shift_auc(x) if (x > 0) == (tail == "right") else 1.0 - ref.shift_auc(x)
            self.check(
                abs(curve.auc - exact) <= abs(trap - exact) + 1e-12,
                f"{tag}: AUC {curve.auc} further from {exact} than the trapezoid error",
            )
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        self.check(rows[0] == ["alpha", "k1", "k2", "power"] and len(rows) == len(pts) + 1, f"{tag}: CSV shape")
        for p, row in zip(pts, rows[1:]):
            if not all(map(_reads_back, row, (p.alpha, p.k1, p.k2, p.power))):
                self.check(False, f"{tag}: CSV row {row} does not read back as {p}")
                break

    def check_intervals(self, cfg, pairs, ivs):
        for (a, bb), iv in zip(pairs, ivs):
            want = ref.bias_lo(a, bb, cfg.b0, cfg.theta)
            self.check(iv.lo == -iv.hi, f"interval {iv} not symmetric")
            self.check(ref.close(iv.lo, want, 1e-12, 1e-12 * cfg.b0), f"interval lo {iv.lo} != {want}")

    def check_sweep(self, rows):
        want = [
            (eps, th, ratio)
            for th in self.thetas
            for ratio in self.ratios
            for eps in self.sweep_eps
        ]
        self.check(len(rows) == len(want), "kl_sweep row count")
        with open(self.sweep_path, newline="") as f:
            back = list(csv.reader(f))[1:]
        self.check(len(back) == len(rows), "kl_sweep CSV row count")
        for (eps, th, ratio), row, line in zip(want, rows, back):
            b0 = self.sweep_s / eps
            d = float(ref.kl(self.sweep_mu0, b0, self.sweep_mu0 + ratio * self.sweep_s, th * b0))
            ok = (
                (row["epsilon"], row["theta"], row["dmu_over_s"]) == (eps, th, ratio)
                and ref.close(row["kl"], d)
                and row["bound"] == math.exp(eps)
                and row["violated"] == (row["kl"] > row["bound"])
                and [float(v) for v in line[:5]] == [row[k] for k in ("epsilon", "theta", "dmu_over_s", "kl", "bound")]
                and line[5] == ("true" if row["violated"] else "false")
            )
            if not ok:
                self.check(False, f"kl_sweep row {row} / CSV {line} wrong")
                break


# A child's ru_maxrss includes the resident size of the process that forked
# it: exec carries the old memory's high-water mark over.  So children are
# started by this small helper, whose own RSS (about 14 MB) is below theirs;
# it times each child from spawn to exit and reports its rusage.
_SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    t0 = time.perf_counter()
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, use = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, out, wall, use.ru_maxrss / 1024.0]), flush=True)
"""


class Spawner:
    """Runs commands one at a time in children of a small helper process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SPAWNER], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit code, stdout and stderr, wall s, peak RSS MB) of ``argv``."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited {self.proc.wait()} while running {argv}")
        return tuple(json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def child_env(root: Path, out_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["LAPDETECT_OUT_DIR"] = str(out_dir)
    return env


# The kept failing call: DetectionTest's 1e-12 size self-check trips on the
# cancellation in k - mu0 at mu0 = 1e8, so this exits 3 until that is fixed.
# The right-tail power is 1 - (1/2) e^(-ln(0.6) - 1) = 1 - 1/(1.2 e).
KEPT_FAILING = ["power", "--alpha", "0.3", "--dmu", "1e-3", "--s", "1e-3", "--mu0", "1e8"]
KEPT_FAILING_POWER = 1.0 - 1.0 / (1.2 * math.e)


class Cli(Workload):
    """A fixed cycle of ``python -m lapdetect.cli`` calls, one at a time."""

    name = "cli"
    unit = "successful CLI calls"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.spawner = Spawner(child_env(Path(__file__).resolve().parents[1], out_dir))
        self.max_rss = 0.0
        r = self.rng

        def pick(lo, hi, digits=3):
            return round(float(r.uniform(lo, hi)), digits)

        s, eps, theta = pick(0.5, 2.0), pick(0.3, 2.0), pick(1.0, 2.0)
        mech = ["--s", str(s), "--eps", str(eps)]
        b0 = s / eps
        a = [pick(0.02, 0.45) for _ in range(5)]
        dmu = [pick(0.3, 3.0) for _ in range(5)]
        beta = pick(0.05, 0.95)
        self.roc_path = out_dir / "cli_roc.csv"
        self.sweep_path = out_dir / "cli_kl_sweep.csv"
        sweep_eps = [pick(0.1, 2.0) for _ in range(6)]
        self.cycle = [
            (["threshold", "--alpha", str(a[0]), "--dmu", str(dmu[0]), *mech], self.expect_threshold, (a[0], dmu[0], b0)),
            (["threshold", "--alpha", str(a[1]), "--tail", "two-sided", "--dmu", str(dmu[1]), *mech], self.expect_two_sided, (a[1], b0)),
            (["power", "--alpha", str(a[2]), "--dmu", str(dmu[2]), *mech], self.expect_power, (a[2], dmu[2], b0)),
            (KEPT_FAILING, self.expect_kept, ()),
            (["interval", "--alpha", str(a[3]), "--beta-bar", str(beta), "--theta", str(theta), *mech], self.expect_interval, (a[3], beta, b0, theta)),
            (["kl", "--dmu", str(dmu[3]), "--theta", str(theta), *mech], self.expect_kl, (dmu[3], b0, theta, eps)),
            (["roc", "--dmu", str(dmu[4]), "--theta", str(theta), "--out", str(self.roc_path), *mech], self.expect_roc, (dmu[4], b0, theta)),
            (["kl-sweep", "--eps-list", ",".join(map(str, sweep_eps)), "--s", str(s), "--out", str(self.sweep_path)], self.expect_sweep, (sweep_eps, s)),
            (["simulate", "--alpha", str(a[4]), "--dmu", str(dmu[4]), "--samples", "20000", "--seed", str(seed % 100000), *mech], self.expect_simulate, (a[4], dmu[4], b0)),
        ]
        self.kept_failing_ops = tuple(i for i, (args, _, _) in enumerate(self.cycle) if args is KEPT_FAILING)
        self.work_per_round = len(self.cycle) - len(self.kept_failing_ops)
        self.call(["threshold", "--alpha", "0.1"])

    def call(self, args):
        code, out, wall, rss = self.spawner.run([sys.executable, "-m", "lapdetect.cli", *args])
        self.max_rss = max(self.max_rss, rss)
        return code, out, wall

    def peak_rss_mb(self):
        return self.max_rss

    def close(self):
        self.spawner.close()

    def round(self, tr):
        times = []
        for args, expect, params in self.cycle:
            with tr.span(f"cli.call.{args[0]}"):
                code, out, wall = self.call(args)
            times.append(wall)
            self.attempted += 1
            if args is KEPT_FAILING:
                if code != 0:
                    self.failed += 1
                    continue
            elif code != 0:
                self.failed += 1
                self.check(False, f"{args}: exit {code}: {out.strip()}")
                continue
            with tr.span("bench.check"):
                try:
                    expect(out, *params)
                except (ValueError, IndexError, KeyError) as exc:
                    self.check(False, f"{args}: unreadable output {out!r}: {exc}")
        return times

    def near(self, got, want, what):
        # Scalars print with 7 significant digits.
        self.check(ref.close(float(got), want, 1e-6, 1e-9), f"cli {what}: {got} != {want}")

    def expect_threshold(self, out, alpha, dmu, b0):
        k_line, kappa_line, lr_line = out.splitlines()
        k = float(ref.thresholds(alpha, "right", 0.0, b0)[0])
        self.near(k_line, k, "threshold k")
        self.near(kappa_line.split("=")[1], ref.kappa(k, 0.0, b0, dmu, b0, 1), "kappa")
        self.near(lr_line.split("=")[1], ref.likelihood_ratio(k, 0.0, b0, dmu, b0), "lr_at_k")

    def expect_two_sided(self, out, alpha, b0):
        k1, k2 = out.strip().strip("()").split(",")
        self.near(k1, -b0 * math.log(alpha), "k1")
        self.near(k2, b0 * math.log(alpha), "k2")

    def expect_power(self, out, alpha, dmu, b0):
        self.near(out, float(ref.power(alpha, "right", 0.0, b0, dmu, b0)), "power")

    def expect_kept(self, out):
        self.near(out, KEPT_FAILING_POWER, "power at mu0=1e8")

    def expect_interval(self, out, alpha, beta, b0, theta):
        lo, hi = out.strip().strip("()").split(",")
        want = ref.bias_lo(alpha, beta, b0, theta)
        self.near(lo, want, "interval lo")
        self.near(hi, -want, "interval hi")

    def expect_kl(self, out, dmu, b0, theta, eps):
        f = dict(line.split(" = ") for line in out.splitlines())
        d = float(ref.kl(0.0, b0, dmu, theta * b0))
        self.near(f["d_closed"], d, "d_closed")
        self.near(f["d_quadrature"], d, "d_quadrature")
        self.near(f["bound"], math.exp(eps), "bound")
        self.check(f["violated"] == ("true" if d > math.exp(eps) else "false"), "kl violated flag")
        self.check(f["form"] == "canonical", "kl form")

    def expect_roc(self, out, dmu, b0, theta):
        with open(self.roc_path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        alphas = np.arange(1, 1000) / 1000.0
        want = ref.power(alphas, "right", 0.0, b0, dmu, theta * b0)
        got = np.array([float(r[3]) for r in rows])
        self.check(len(rows) == 999 and np.allclose(got, want, rtol=0, atol=1e-12), "roc CSV powers")
        auc = out.split("AUC = ")[1].split(")")[0]
        self.near(auc, ref.trapezoid_auc(alphas, want), "roc AUC")

    def expect_sweep(self, out, eps_list, s):
        with open(self.sweep_path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        want = [(e, th, r) for th in (1.0, 1.5) for r in (0.5, 1.0, 4.0) for e in eps_list]
        self.check(len(rows) == len(want) and out.startswith(f"wrote {len(want)} rows"), "kl-sweep row count")
        for (e, th, r), row in zip(want, rows):
            d = float(ref.kl(0.0, s / e, r * s, th * s / e))
            self.check(ref.close(float(row[3]), d), f"kl-sweep row {row}: kl != {d}")

    def expect_simulate(self, out, alpha, dmu, b0):
        rep = json.loads(out)
        n = 20000
        want = float(ref.power(alpha, "right", 0.0, b0, dmu, b0))
        self.near(rep["alpha_closed"], alpha, "alpha_closed")
        self.near(rep["power_closed"], want, "power_closed")
        self.check(abs(rep["alpha_hat"] - alpha) <= ref.binomial_band(alpha, n, 6.0), "simulate alpha_hat band")
        self.check(abs(rep["power_hat"] - want) <= ref.binomial_band(want, n, 6.0), "simulate power_hat band")
        hw = ref.binomial_band(rep["alpha_hat"], n, 3.0)
        self.near(rep["half_width_alpha"], hw, "half_width_alpha")


WORKLOADS = {w.name: w for w in (McGrid, KlOracle, Figures, Cli)}
