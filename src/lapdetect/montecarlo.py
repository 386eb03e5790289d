"""End-to-end attack simulation and empirical validation of the closed forms.

Trials are vectorized in fixed-size chunks, each drawn from its own random
stream keyed by (seed, role, chunk index), where the role is H0 (0) or H1
(1). One scheduler runs the chunks of both roles, in one list or on one
thread pool. Chunk boundaries depend only on the trial count, never on the
worker count, and per-chunk detection counts are integers, so aggregated
reports are bit-identical no matter how the chunks are scheduled. Threads
are sufficient for parallelism here because the bulk sampling work happens
inside numpy. Each thread samples into one reused chunk buffer and counts
detections into one reused mask; a chunk allocates only its random integers.
"""

from __future__ import annotations

import io
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _csv
from .detector import DetectionTest, TailDirection, _detected, _region
from .laplace import LaplaceDist, RngStream
from .mechanism import (
    AttackSpec,
    Dataset,
    MechanismConfig,
    hypothesis_pair,
    sum_query,
)

__all__ = [
    "SimConfig",
    "SimReport",
    "AttackTrace",
    "estimate_error_rates",
    "run_attack_experiment",
    "default_grid",
    "run_grid",
    "write_grid_csv",
    "GRID_CSV_HEADER",
]

# Trials per random stream. Fixing this constant is what makes reports
# independent of the worker count; changing it changes sampled values.
_CHUNK = 1 << 16

# role (H0 vs H1 run) is packed above the chunk index in the stream id.
_ROLE_SHIFT = 48

GRID_CSV_HEADER = "eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass"


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: mechanism, attack, test parameters, and budget."""

    cfg: MechanismConfig
    attack: AttackSpec
    alpha: float
    direction: TailDirection
    n_trials: int
    seed: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"need at least one trial, got {self.n_trials}")


@dataclass(frozen=True)
class SimReport:
    """Empirical error rates next to their closed-form counterparts.

    Half-widths are 3-sigma binomial: 3 sqrt(p_hat (1 - p_hat) / n). The
    report passes when both empirical rates sit inside their bands.
    """

    alpha_hat: float
    power_hat: float
    alpha_closed: float
    power_closed: float
    half_width_alpha: float
    half_width_power: float
    passed: bool

    def to_dict(self) -> dict:
        # Keys follow field order; ``passed``, the last field, is written "pass".
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class AttackTrace:
    """Per-trial pipeline record from :func:`run_attack_experiment`."""

    h0_releases: np.ndarray
    h0_residuals: np.ndarray
    h0_detected: np.ndarray
    h1_releases: np.ndarray
    h1_residuals: np.ndarray
    h1_detected: np.ndarray


def _half_width(p_hat: float, n: int) -> float:
    return 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def _simulate(
    sim: SimConfig, test: DetectionTest, draw, workers: int, keep: bool = False
) -> tuple[SimReport, list, list]:
    """Run every chunk of both roles and score the detections.

    ``draw(role, stream, out)`` fills the m-vector ``out`` (fresh if ``keep``,
    else the thread's reused buffer) and returns a tuple of m-vectors whose
    last entry is the residuals. Returns the report and, per role, each
    chunk's tuple in chunk order when ``keep`` is set (else None).
    """
    n = sim.n_trials
    local = threading.local()
    # One strict comparison per finite end of the region; the ends are disjoint.
    ends = zip((np.less, np.greater), _region(test.direction, test.offset))
    sides = [(f, test.cfg.mu0 + t) for f, t in ends if math.isfinite(t)]

    def run(task: tuple[int, int]) -> tuple[int, tuple | None]:
        role, c = task
        m = min(_CHUNK, n - c * _CHUNK)
        if not hasattr(local, "mask"):
            local.out, local.mask = np.empty(_CHUNK), np.empty(_CHUNK, dtype=bool)
        buf = np.empty(m) if keep else local.out[:m]
        drawn = draw(role, RngStream(sim.seed, (role << _ROLE_SHIFT) | c), buf)
        mask = local.mask[:m]
        hits = sum(int(np.count_nonzero(f(drawn[-1], t, out=mask))) for f, t in sides)
        return hits, drawn if keep else None

    tasks = [(role, c) for role in (0, 1) for c in range((n + _CHUNK - 1) // _CHUNK)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(run, tasks))
    else:
        out = [run(t) for t in tasks]
    h0, h1 = out[: len(out) // 2], out[len(out) // 2 :]
    alpha_hat = sum(d for d, _ in h0) / n
    power_hat = sum(d for d, _ in h1) / n
    alpha_closed = test.size()
    power_closed = test.power(sim.attack)
    hw_alpha = _half_width(alpha_hat, n)
    hw_power = _half_width(power_hat, n)
    report = SimReport(
        alpha_hat=alpha_hat,
        power_hat=power_hat,
        alpha_closed=alpha_closed,
        power_closed=power_closed,
        half_width_alpha=hw_alpha,
        half_width_power=hw_power,
        passed=(
            abs(alpha_hat - alpha_closed) <= hw_alpha
            and abs(power_hat - power_closed) <= hw_power
        ),
    )
    return report, [p for _, p in h0], [p for _, p in h1]


def estimate_error_rates(sim: SimConfig, workers: int = 1) -> SimReport:
    """Estimate false-alarm and detection rates against their closed forms.

    Runs n_trials residuals under H0 (no attack) and n_trials under H1
    (bias injected, scale inflated by theta), counting detections with the
    calibrated test. Deterministic per seed regardless of ``workers``.
    """
    test = DetectionTest.from_alpha(sim.alpha, sim.cfg, sim.direction)
    dists = hypothesis_pair(sim.cfg, sim.attack)
    report, _, _ = _simulate(
        sim, test, lambda role, stream, out: (dists[role]._sample_into(stream, out),),
        workers,
    )
    return report


def run_attack_experiment(
    data: Dataset,
    sim: SimConfig,
    workers: int = 1,
    trace: bool = False,
) -> SimReport | tuple[SimReport, AttackTrace]:
    """Simulate the full release pipeline on a concrete dataset.

    Per trial: release the noisy sum, under H1 additionally inject the
    attack record's value, then let the defender form the residual
    release - q(x) and decide. With ``trace=True`` also returns the
    per-trial releases, residuals and decisions (memory scales with
    n_trials).

    Raises:
        ValueError: If the dataset bound disagrees with the configured
            sensitivity (the mechanism would be miscalibrated).
    """
    cfg = sim.cfg
    if data.sensitivity != cfg.s:
        raise ValueError(
            f"dataset bound {data.sensitivity} != configured sensitivity {cfg.s}; "
            "the sum query's sensitivity is the record bound"
        )
    q = sum_query(data)
    test = DetectionTest.from_alpha(sim.alpha, cfg, sim.direction)
    noise = (LaplaceDist(cfg.mu0, cfg.b0), LaplaceDist(cfg.mu0, cfg.b1))

    def draw(role: int, stream: RngStream, out: np.ndarray) -> tuple:
        releases = np.add(q, noise[role]._sample_into(stream, out), out=out)
        if role == 1:
            np.add(releases, sim.attack.x_a, out=releases)
        # A kept chunk keeps its releases, so its residuals need their own array.
        return releases, np.subtract(releases, q, out=None if trace else releases)

    report, h0, h1 = _simulate(sim, test, draw, workers, keep=trace)
    if not trace:
        return report

    def joined(chunks):
        releases, residuals = (np.concatenate([c[i] for c in chunks]) for i in (0, 1))
        return releases, residuals, _detected(residuals, test)

    return report, AttackTrace(*joined(h0), *joined(h1))


def default_grid() -> list[tuple[float, float, float, float]]:
    """Validation grid spanning weak-to-strong privacy and sub- to
    super-sensitivity biases: (eps, theta, dmu/s, alpha) cells."""
    return [
        (eps, theta, ratio, alpha)
        for eps in (0.015, 0.5, 1.0, 2.0)
        for theta in (1.0, 1.5)
        for ratio in (0.5, 1.0, 4.0)
        for alpha in (a / 10.0 for a in range(1, 10))
    ]


def run_grid(
    grid: Sequence[tuple[float, float, float, float]] | None = None,
    s: float = 1.0,
    n_trials: int = 10**6,
    seed: int = 20260809,
    workers: int = 1,
    direction: TailDirection = TailDirection.RIGHT,
) -> list[dict]:
    """Run :func:`estimate_error_rates` on every grid cell.

    Each cell gets an independent seed derived from (seed, cell index), so
    results do not depend on how cells are batched or ordered by callers.
    """
    if grid is None:
        grid = default_grid()
    rows = []
    for i, (eps, theta, ratio, alpha) in enumerate(grid):
        cell_seed = int(np.random.SeedSequence((seed, i)).generate_state(1, np.uint64)[0])
        sim = SimConfig(
            cfg=MechanismConfig(s=s, eps=eps, theta=theta),
            attack=AttackSpec(x_a=ratio * s),
            alpha=alpha,
            direction=direction,
            n_trials=n_trials,
            seed=cell_seed,
        )
        report = estimate_error_rates(sim, workers=workers)
        rows.append(
            {
                "eps": eps,
                "theta": theta,
                "dmu": ratio * s,
                "alpha": alpha,
                "alpha_hat": report.alpha_hat,
                "power": report.power_closed,
                "power_hat": report.power_hat,
                "pass": report.passed,
            }
        )
    return rows


def write_grid_csv(rows: Sequence[dict], out: str | Path | io.TextIOBase) -> None:
    """Append ``eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass`` rows.

    The header is written only when the target is new or empty, so repeated
    runs accumulate into one file.
    """
    header = GRID_CSV_HEADER.split(",")
    _csv.write_csv(out, header, map(itemgetter(*header), rows), append=True)
