"""End-to-end attack simulation and empirical validation of the closed forms.

Trials are vectorized in fixed-size chunks, each drawn from its own random
stream keyed by (seed, role, chunk index), where the role is H0 (0) or H1
(1). Each role's chunks are counted in chunk order on the calling thread;
``workers`` starts no threads and leaves every report bit-identical.
``LaplaceDist._count`` makes every reported count: it counts detections on
the stream's raw words, transforming only the draws next to a threshold,
and passes those through the float release arithmetic the attack pipeline
simulates. It is the one many-draw detection path.
"""

from __future__ import annotations

import io
import math
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import _csv
from ._record import _Record
from .detector import DetectionTest, TailDirection
from .laplace import _REACH, LaplaceDist, RngStream
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
    "estimate_error_rates",
    "run_attack_experiment",
    "default_grid",
    "run_grid",
    "write_grid_csv",
    "GRID_CSV_HEADER",
]

# Trials per random stream. Changing this constant changes sampled values.
_CHUNK = 1 << 16

# role (H0 vs H1 run) is packed above the chunk index in the stream id.
_ROLE_SHIFT = 48

GRID_CSV_HEADER = "eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass"


class SimConfig(_Record):
    """One simulation cell: mechanism, attack, test parameters, and budget."""

    __slots__ = ("cfg", "attack", "alpha", "direction", "n_trials", "seed")

    def __init__(
        self, cfg: MechanismConfig, attack: AttackSpec, alpha: float,
        direction: TailDirection, n_trials: int, seed: int,
    ):
        if n_trials < 1:
            raise ValueError(f"need at least one trial, got {n_trials}")
        self._set(cfg, attack, alpha, direction, n_trials, seed)


class SimReport(_Record):
    """Empirical error rates next to their closed-form counterparts.

    Half-widths are 3-sigma binomial: 3 sqrt(p_hat (1 - p_hat) / n). The
    report passes when both empirical rates sit inside their bands.
    """

    __slots__ = (
        "alpha_hat", "power_hat", "alpha_closed", "power_closed",
        "half_width_alpha", "half_width_power", "passed",
    )

    def __init__(
        self, alpha_hat: float, power_hat: float, alpha_closed: float, power_closed: float,
        half_width_alpha: float, half_width_power: float, passed: bool,
    ):
        self._set(
            alpha_hat, power_hat, alpha_closed, power_closed,
            half_width_alpha, half_width_power, passed,
        )

    def to_json(self) -> str:
        import json
        # Keys follow field order; ``passed``, the last field, is written "pass".
        d = self._asdict()
        d["pass"] = d.pop("passed")
        return json.dumps(d, indent=2)


def _half_width(p_hat: float, n: int) -> float:
    return 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def _check_resolution(sim: SimConfig) -> None:
    """Raise unless some draw under H0 can fall in the critical region.

    No draw lies beyond the extreme ones, mu0 -+ 52 ln 2 b0 (about 36.04 b0),
    so a region beyond them (alpha below about 2^-53 per tail) has sampled
    mass 0 and alpha_hat would read 0 whatever the sample size. A region
    within reach is missed too where mu0's float spacing is that coarse.
    """
    test = DetectionTest.from_alpha(sim.alpha, sim.cfg, sim.direction)
    mu0, reach = sim.cfg.mu0, _REACH * sim.cfg.b0
    first, last = sim.cfg.null_dist()._reach()
    if not (-reach < test.lo or test.hi < reach):
        raise ValueError(
            f"alpha={sim.alpha} is below the sampler's resolution: no draw under H0 "
            f"lies beyond 52 ln 2 b0 = {reach:.6g} from mu0"
        )
    if not (first < mu0 + test.lo or last > mu0 + test.hi):
        raise ValueError(
            f"no draw under H0 can fall in the critical region: floats near mu0={mu0:.6g} "
            f"are {math.ulp(mu0):.6g} apart, too coarse for draws within {reach:.6g} of it"
        )


def _chunks(sim: SimConfig, role: int) -> list[tuple[RngStream, int]]:
    """Each chunk of ``role``'s trials as (stream, trial count), in chunk order."""
    n, key = sim.n_trials, role << _ROLE_SHIFT
    starts = range(0, n, _CHUNK)
    return [(RngStream(sim.seed, key | c), min(_CHUNK, n - s)) for c, s in enumerate(starts)]


def _simulate(
    sim: SimConfig, noise: Sequence[LaplaceDist], q: float, x_a: float, workers: int
) -> SimReport:
    """Score the calibrated test on every chunk of both roles, in chunk order:
    role r counts the residuals ((q + x) + shift) - q of draws x of
    ``noise[r]``, where the shift is 0 under H0 and ``x_a`` under H1.

    Raises:
        ValueError: If an extreme draw, release or residual leaves the float
            range, or if ``workers`` is below 1.
    """
    test = DetectionTest.from_alpha(sim.alpha, sim.cfg, sim.direction)
    shifts = (0.0, x_a)
    for d, shift in zip(noise, shifts):
        for x in d._reach():
            if not math.isfinite(q + x + shift - q):
                raise ValueError(f"draws of {d} overflow the float range")
    if workers < 1:
        raise ValueError(f"need at least one worker, got workers={workers}")
    lo, hi = sim.cfg.mu0 + test.lo, sim.cfg.mu0 + test.hi
    n = sim.n_trials
    alpha_hat, power_hat = (
        sum(noise[r]._count(stream, m, lo, hi, q, shifts[r]) for stream, m in _chunks(sim, r)) / n
        for r in (0, 1)
    )
    alpha_closed = test.size()
    power_closed = test.power(sim.attack)
    hw_alpha = _half_width(alpha_hat, n)
    hw_power = _half_width(power_hat, n)
    passed = abs(alpha_hat - alpha_closed) <= hw_alpha and abs(power_hat - power_closed) <= hw_power
    return SimReport(alpha_hat, power_hat, alpha_closed, power_closed, hw_alpha, hw_power, passed)


def estimate_error_rates(sim: SimConfig, workers: int = 1) -> SimReport:
    """Estimate false-alarm and detection rates against their closed forms.

    Runs n_trials residuals under H0 (no attack) and n_trials under H1
    (bias injected, scale inflated by theta), counting detections with the
    calibrated test. Deterministic per seed. ``workers`` must be at least 1
    and starts no threads; it is kept for compatibility.
    """
    return _simulate(sim, hypothesis_pair(sim.cfg, sim.attack), 0.0, 0.0, workers)


def run_attack_experiment(data: Dataset, sim: SimConfig, workers: int = 1) -> SimReport:
    """Simulate the full release pipeline on a concrete dataset.

    Per trial: release the noisy sum, under H1 additionally inject the
    attack record's value, then let the defender form the residual
    release - q(x) and decide. The report counts detections on the draws'
    lattice, like :func:`estimate_error_rates`, and its counts equal those
    of deciding every residual ((q + x) + shift) - q of the chunk streams'
    draws x. ``workers`` is checked as in :func:`estimate_error_rates`.

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
    noise = (LaplaceDist(cfg.mu0, cfg.b0), LaplaceDist(cfg.mu0, cfg.b1))
    return _simulate(sim, noise, sum_query(data), sim.attack.x_a, workers)


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
    Cells run one after another; ``workers`` starts no threads.
    """
    if grid is None:
        grid = default_grid()
    rows = []
    for i, (eps, theta, ratio, alpha) in enumerate(grid):
        cell_seed = int(RngStream(seed, i)._seed_sequence().generate_state(1, "uint64")[0])
        sim = SimConfig(
            cfg=MechanismConfig(s=s, eps=eps, theta=theta),
            attack=AttackSpec(x_a=ratio * s),
            alpha=alpha,
            direction=direction,
            n_trials=n_trials,
            seed=cell_seed,
        )
        r = estimate_error_rates(sim, workers=workers)
        row = (eps, theta, ratio * s, alpha, r.alpha_hat, r.power_closed, r.power_hat)
        rows.append(dict(zip(GRID_CSV_HEADER.split(","), (*row, r.passed))))
    return rows


def write_grid_csv(rows: Sequence[dict], out: str | Path | io.TextIOBase) -> None:
    """Append ``eps,theta,dmu,alpha,alpha_hat,power,power_hat,pass`` rows.

    The header is written only when the target is new or empty, so repeated
    runs accumulate into one file.
    """
    header = GRID_CSV_HEADER.split(",")
    _csv.write_csv(out, header, map(itemgetter(*header), rows), append=True)
