"""One workload process: set up, say READY, measure, print one JSON line.

Started by run.py, never by hand.  Everything the workload does runs in
this process (cli's children excepted); run.py only times the set-up from
the outside and merges results.

    python bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [--setup-only]
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure(wl, seconds: float, tr) -> list[list[float]]:
    """Whole rounds until ``seconds`` have passed (and min_rounds are done)."""
    rounds = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rounds) < wl.min_rounds:
        with tr.span("bench.round"):
            rounds.append(wl.round(tr))
    return rounds


def round_s(rounds: list[list[float]]) -> float:
    """Round time built from each operation's median over the rounds.

    Robust to a stall in one round: a stall moves one sample of each of
    a few operations, not the sum.
    """
    return sum(statistics.median(op) for op in zip(*rounds))


def run(wl, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    result = {}
    if not trace:
        rounds = measure(wl, seconds, NULL)
        # The kept failing cli call is a failure, not a latency sample.
        ops = [t for r in rounds for i, t in enumerate(r) if i not in wl.kept_failing_ops]
        metrics = {
            "work_per_s": (wl.work_per_round / round_s(rounds), "1/s"),
            "op_ms_p50": (statistics.median(ops) * 1e3, "ms"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        }
    else:
        import layers

        plain = measure(wl, seconds / 2, NULL)
        tracer = Tracer()
        traced = measure(wl, seconds / 2, tracer)
        probes = Tracer()
        metrics = layers.probe(probes, seed, out_dir)
        overhead = (round_s(traced) / round_s(plain) - 1.0) * 100.0
        metrics["bench.trace_overhead_pct"] = (overhead, "%")
        result["self_ms"] = tracer.self_ms_by_layer()
        tracer.write(out_dir / "trace.json")
        probes.write(out_dir / "probe_trace.json")
    wl.finish()
    result.update(
        correct=not wl.errors,
        attempted=wl.attempted,
        failed=wl.failed,
        errors=wl.errors,
        unit=wl.unit,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return result


def main() -> int:
    name, seed, seconds, trace, out_dir = sys.argv[1:6]
    seed, seconds, trace, out_dir = int(seed), float(seconds), int(trace), Path(out_dir)
    wl = WORKLOADS[name](seed, out_dir)
    try:
        print("READY", flush=True)
        if "--setup-only" in sys.argv:
            return 0
        result = run(wl, seed, seconds, trace, out_dir)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
