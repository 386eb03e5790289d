"""Benchmark of lapdetect: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload mc-grid|kl-oracle|figures|cli|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; lapdetect is imported from
``src/``.  Each workload runs in its own process (bench/worker.py).  With
``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Outputs (CSVs, traces) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-grid", "kl-oracle", "figures", "cli")
# Set-ups per untraced run; setup_s is their median.
SETUPS = 5
# A run must end within 180 s; this leaves room for set-up and checks.
TIMEOUT_S = 150.0


def start_worker(name: str, seed: int, seconds: float, trace: int, out_dir: Path, setup_only: bool):
    """Start a worker and wait for READY: (process, set-up seconds)."""
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds), str(trace), str(out_dir)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{name}: worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, name: str) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{name}: worker did not finish within {TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = ROOT / ".bench_out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            proc, setup = start_worker(name, seed, seconds, trace, out_dir, True)
            finish_worker(proc, name)
            setups.append(setup)
    proc, setup = start_worker(name, seed, seconds, trace, out_dir, False)
    setups.append(setup)
    result = json.loads(finish_worker(proc, name).splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def describe(name: str, r: dict) -> None:
    print(f"== {name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} (work unit: {r['unit']})")
    for err in r["errors"]:
        print(f"   check failed: {err}")
    for key, m in sorted(r["metrics"].items()):
        print(f"   {key:44s} {m['value']:14.6g} {m['unit']}")
    for layer, ms in r.get("self_ms", {}).items():
        print(f"   self time {layer:34s} {ms:14.3f} ms")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if not (ROOT / "src" / "lapdetect" / "__init__.py").is_file():
        print(f"error: no lapdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            describe(name, results[name])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        for name, r in results.items():
            print(json.dumps({"workload": name, **{k: r[k] for k in ("correct", "attempted", "failed", "metrics")}}))
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
