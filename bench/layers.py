"""Per-layer probes of the traced run.

Each probe times calls into one lapdetect module's public functions
inside spans of the tracer, a fixed amount of work per probe, with inputs
drawn from the seed.  ``probe`` returns every per-layer metric named in
BENCHMARK.json except ``bench.trace_overhead_pct``, which the worker adds.
Time per call is the median over a probe's blocks; counts (page faults,
context switches, quadrature evaluations) are totals over the probe.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from workloads import CHUNK, Spawner, child_env, nproc

BLOCKS = 5


def _per_call(tr, name: str) -> float:
    """Median over the spans named ``name`` of ns per counted call."""
    return statistics.median((s[2] - s[1]) / s[4] for s in tr.spans if s[0] == name)


def _blocks(tr, name: str, calls: int, fn, *args) -> None:
    for _ in range(BLOCKS):
        with tr.span(name, calls):
            for _ in range(calls):
                fn(*args)


def probe(tr, seed: int, out_dir: Path) -> dict[str, tuple[float, str]]:
    import lapdetect as ld
    from lapdetect import cli

    rng = np.random.default_rng(seed + 1)
    m: dict[str, tuple[float, str]] = {}

    # laplace: the sampler on full chunks, and the scalar paths.
    reps = 8
    for b in range(BLOCKS):
        with tr.span("laplace.uniforms", reps * CHUNK):
            for i in range(reps):
                ld.RngStream(seed, b * reps + i).uniforms(CHUNK)
    dist = ld.LaplaceDist(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
    for b in range(BLOCKS):
        with tr.span("laplace.sample", reps * CHUNK):
            for i in range(reps):
                dist.sample(ld.RngStream(seed, b * reps + i), CHUNK)
    z, p = float(rng.uniform(-3, 3)), float(rng.uniform(0.01, 0.99))
    _blocks(tr, "laplace.survival", 5000, dist.survival, z)
    _blocks(tr, "laplace.quantile", 5000, dist.quantile, p)
    draws, use = tr.totals("laplace.sample")
    m["laplace.uniforms_ns_per_draw"] = (_per_call(tr, "laplace.uniforms"), "ns")
    m["laplace.sample_ns_per_draw"] = (_per_call(tr, "laplace.sample"), "ns")
    m["laplace.sample_minflt_per_mdraw"] = (use[0] * 1e6 / draws, "count")
    m["laplace.survival_ns_per_call"] = (_per_call(tr, "laplace.survival"), "ns")
    m["laplace.quantile_ns_per_call"] = (_per_call(tr, "laplace.quantile"), "ns")

    # mechanism
    cfg = ld.MechanismConfig(s=float(rng.uniform(0.5, 2)), eps=1.0, theta=1.5, mu0=float(rng.uniform(-1, 1)))
    attack = ld.AttackSpec(float(rng.uniform(0.5, 2)))
    _blocks(tr, "mechanism.hypothesis_pair", 2000, ld.hypothesis_pair, cfg, attack)
    _blocks(tr, "mechanism.config", 2000, ld.MechanismConfig, cfg.s, cfg.eps, cfg.theta, cfg.mu0)
    m["mechanism.hypothesis_pair_ns_per_call"] = (_per_call(tr, "mechanism.hypothesis_pair"), "ns")
    m["mechanism.config_ns_per_call"] = (_per_call(tr, "mechanism.config"), "ns")

    # detector
    tails = list(ld.TailDirection)
    tests = [ld.DetectionTest.from_alpha(0.05, cfg, t) for t in tails]
    for b in range(BLOCKS):
        with tr.span("detector.from_alpha", 600):
            for i in range(600):
                ld.DetectionTest.from_alpha((i % 199 + 1) / 200, cfg, tails[i % 3])
        with tr.span("detector.power", 600):
            for i in range(600):
                tests[i % 3].power(attack)
    curves = []
    for b in range(BLOCKS):
        with tr.span("detector.roc_curve"):
            curves.append(ld.roc_curve(cfg, attack, tails[b % 3]))
    for b, curve in enumerate(curves):
        with tr.span("detector.write_roc_csv"):
            ld.write_roc_csv(curve, out_dir / f"probe_roc_{b}.csv")
    m["detector.from_alpha_us_per_call"] = (_per_call(tr, "detector.from_alpha") / 1e3, "us")
    m["detector.power_us_per_call"] = (_per_call(tr, "detector.power") / 1e3, "us")
    m["detector.roc_ms_per_curve"] = (_per_call(tr, "detector.roc_curve") / 1e6, "ms")
    m["detector.write_roc_csv_ms_per_curve"] = (_per_call(tr, "detector.write_roc_csv") / 1e6, "ms")

    # divergence
    def pair(sep=0.0):
        mu, b0, b1 = rng.uniform(-5, 5), rng.uniform(0.2, 5), rng.uniform(0.2, 5)
        mu1 = mu + sep * b0 if sep else rng.uniform(-5, 5)
        return ld.LaplaceDist(mu, b0), ld.LaplaceDist(mu1, b1)

    narrow = [pair() for _ in range(20)]
    wide = [pair(float(rng.choice([-1, 1]) * np.exp(rng.uniform(np.log(20), np.log(300))))) for _ in range(10)]
    _blocks(tr, "divergence.kl_laplace", 2000, ld.kl_laplace, *narrow[0])
    for p0, p1 in narrow:
        with tr.span("divergence.kl_quadrature"):
            ld.kl_quadrature(p0, p1, 4e-9)
    for p0, p1 in wide:
        with tr.span("divergence.kl_quadrature_wide"):
            ld.kl_quadrature(p0, p1, 4e-9)
    for p0, p1 in narrow[:10]:
        with tr.span("divergence.kl_dp_check"):
            ld.kl_dp_check(p0, p1, 1.0)
    m["divergence.kl_laplace_ns_per_call"] = (_per_call(tr, "divergence.kl_laplace"), "ns")
    m["divergence.kl_quadrature_us_per_call"] = (_per_call(tr, "divergence.kl_quadrature") / 1e3, "us")
    m["divergence.kl_quadrature_wide_us_per_call"] = (_per_call(tr, "divergence.kl_quadrature_wide") / 1e3, "us")
    m["divergence.kl_dp_check_us_per_call"] = (_per_call(tr, "divergence.kl_dp_check") / 1e3, "us")

    # quadrature: right-tail masses of a Laplace density, the oracle shape
    # the tests use, through an integrand that counts its evaluations.
    ladder = (-40, -30, -21, -14, -9, -5, -3, -1.5, 0, 1.5, 3, 5, 9, 14, 21, 30, 40)
    evals = 0
    for _ in range(10):
        mu, b = float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 5))
        k = mu + b * float(rng.uniform(-3, 3))

        def density(x, mu=mu, b=b):
            nonlocal evals
            evals += 1
            return math.exp(-abs(x - mu) / b) / (2.0 * b)

        with tr.span("quadrature.adaptive_simpson"):
            ld.adaptive_simpson(density, k, max(mu, k) + 45.0 * b, 1e-10, breakpoints=[mu + j * b for j in ladder])
    m["quadrature.simpson_us_per_call"] = (_per_call(tr, "quadrature.adaptive_simpson") / 1e3, "us")
    m["quadrature.simpson_evals_per_call"] = (evals / 10, "count")

    # montecarlo: one cell at 1 and at nproc workers, and the fixed cost of
    # a cell with one chunk per role.
    workers = nproc()
    n = 2 * max(workers, 2) * CHUNK

    def sim(trials, i):
        return ld.SimConfig(cfg, attack, 0.1, tails[i % 3], trials, seed * 1000 + i)

    for i in range(4):
        with tr.span("montecarlo.cell_w1", 2 * n):
            ld.estimate_error_rates(sim(n, i), workers=1)
    for i in range(4):
        with tr.span("montecarlo.cell_wN", 2 * n):
            ld.estimate_error_rates(sim(n, i), workers=workers)
    for i in range(20):
        with tr.span("montecarlo.cell_fixed_wN"):
            ld.estimate_error_rates(sim(1000, i), workers=workers)
    draws, use = tr.totals("montecarlo.cell_wN")
    m["montecarlo.cell_ns_per_draw_w1"] = (_per_call(tr, "montecarlo.cell_w1"), "ns")
    m["montecarlo.cell_ns_per_draw_wN"] = (_per_call(tr, "montecarlo.cell_wN"), "ns")
    m["montecarlo.cell_fixed_ms_wN"] = (_per_call(tr, "montecarlo.cell_fixed_wN") / 1e6, "ms")
    m["montecarlo.minflt_per_mdraw"] = (use[0] * 1e6 / draws, "count")
    m["montecarlo.sys_cpu_s"] = (use[2], "s")
    m["montecarlo.ctx_switches_per_cell"] = (use[3] / 4, "count")

    # cli: process start, import, and each subcommand's main() in process.
    spawner = Spawner(child_env(Path(__file__).resolve().parents[1], out_dir))
    interp, imports, rss = [], [], []
    timed_import = "import time; t = time.perf_counter(); import lapdetect.cli; print(time.perf_counter() - t)"
    try:
        for _ in range(3):
            with tr.span("cli.interpreter"):
                code, out, wall, _ = spawner.run([sys.executable, "-c", "pass"])
            if code != 0:
                raise RuntimeError(f"bare interpreter exited {code}: {out}")
            interp.append(wall * 1e3)
            with tr.span("cli.import"):
                code, out, _, peak = spawner.run([sys.executable, "-c", timed_import])
            if code != 0:
                raise RuntimeError(f"import lapdetect.cli exited {code}: {out}")
            imports.append(float(out) * 1e3)
            rss.append(peak)
    finally:
        spawner.close()
    m["cli.interpreter_ms"] = (statistics.median(interp), "ms")
    m["cli.import_ms"] = (statistics.median(imports), "ms")
    argvs = {
        "threshold": ["threshold", "--alpha", "0.25", "--dmu", "1"],
        "power": ["power", "--alpha", "0.1", "--dmu", "1"],
        "roc": ["roc", "--dmu", "1", "--out", str(out_dir / "probe_cli_roc.csv")],
        "interval": ["interval", "--alpha", "0.05", "--beta-bar", "0.8"],
        "kl": ["kl", "--dmu", "4"],
        "kl-sweep": ["kl-sweep", "--out", str(out_dir / "probe_cli_kl_sweep.csv")],
        "simulate": ["simulate", "--alpha", "0.1", "--dmu", "1", "--samples", "20000"],
    }
    for sub, argv in argvs.items():
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()), tr.span(f"cli.main.{sub}"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) exited {code}")
        m[f"cli.main_ms.{sub}"] = (_per_call(tr, f"cli.main.{sub}") / 1e6, "ms")
    m["cli.child_peak_rss_mb"] = (max(rss), "MB")
    return m
