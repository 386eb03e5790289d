"""Command-line interface: single binary exposing every computation.

Subcommands
    threshold   critical-region threshold(s) for a requested size
    power       detection probability of the calibrated test
    roc         alpha sweep written as a CSV ROC curve
    interval    detectable-bias interval from (alpha, beta_bar)
    kl          divergence report with the e^eps admissibility bound
    kl-sweep    divergence vs privacy budget grid, written as CSV
    simulate    Monte Carlo validation of the closed forms (JSON report)

Each handler returns the text it reports; only ``main`` writes stdout, and
only on success. Exit codes: 0 success, 1 stdout closed before the text
was written, 2 usage error, 3 domain error, which writes one ``error:``
line to stderr and nothing to stdout. Scalar output uses 7 significant
digits; CSV artifacts carry 17. Files default into $LAPDETECT_OUT_DIR
(falling back to the working directory) unless --out gives an explicit
path.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import detector, divergence, mechanism, montecarlo
from .detector import DetectionTest, TailDirection
from .mechanism import AttackSpec, MechanismConfig
from .quadrature import QuadratureError

__all__ = ["main"]

OUT_DIR_ENV = "LAPDETECT_OUT_DIR"


def _fmt(x: float) -> str:
    return format(x, ".7g")


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg is not None:
        return Path(arg)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _mech_args(p: argparse.ArgumentParser, theta_default: float = 1.0) -> None:
    p.add_argument("--mu0", type=float, default=0.0, help="null noise location")
    p.add_argument("--s", type=float, default=1.0, help="query sensitivity (> 0)")
    p.add_argument("--eps", type=float, default=1.0, help="privacy parameter (> 0)")
    p.add_argument(
        "--theta",
        type=float,
        default=theta_default,
        help="noise scale inflation under attack (>= 1)",
    )


def _tail_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tail", choices=[t.value for t in TailDirection], default="right")


def _cfg(args: argparse.Namespace) -> MechanismConfig:
    return MechanismConfig(s=args.s, eps=args.eps, theta=args.theta, mu0=args.mu0)


def _tail(args: argparse.Namespace) -> TailDirection:
    return TailDirection(args.tail)


def _cmd_threshold(args: argparse.Namespace) -> str:
    cfg = _cfg(args)
    test = DetectionTest.from_alpha(args.alpha, cfg, _tail(args))
    attack = AttackSpec(x_a=args.dmu) if args.dmu else None  # no --dmu, or 0: k alone
    if not test.direction.one_sided:
        return f"({_fmt(test.k1)}, {_fmt(test.k2)})"
    if attack is None:
        return _fmt(test.k)
    kappa = detector.kappa(test, attack)
    # The ratio does not depend on mu0: evaluate it at the offset in the
    # frame centred on mu0, where the region is not lost to rounding.
    lr = detector.likelihood_ratio(test.offset, cfg._replace(mu0=0.0), attack)
    return f"{_fmt(test.k)}\nkappa = {_fmt(kappa)}\nlr_at_k = {_fmt(lr)}"


def _cmd_power(args: argparse.Namespace) -> str:
    test = DetectionTest.from_alpha(args.alpha, _cfg(args), _tail(args))
    return _fmt(test.power(AttackSpec(x_a=args.dmu)))


def _cmd_roc(args: argparse.Namespace) -> str:
    curve = detector.roc_curve(_cfg(args), AttackSpec(x_a=args.dmu), _tail(args), args.grid)
    path = _out_path(args.out, "roc.csv")
    detector.write_roc_csv(curve, path)
    return f"wrote {len(curve.points)} points (AUC = {_fmt(curve.auc)}) to {path}"


def _cmd_interval(args: argparse.Namespace) -> str:
    iv = detector.bias_interval(args.alpha, args.beta_bar, _cfg(args))
    return f"({_fmt(iv.lo)}, {_fmt(iv.hi)})"


def _cmd_kl(args: argparse.Namespace) -> str:
    cfg = _cfg(args)
    # D depends only on the shift and the scales; centred on mu0 the shift keeps its bits.
    p0, p1 = mechanism.hypothesis_pair(cfg._replace(mu0=0.0), AttackSpec(x_a=args.dmu))
    report = divergence.kl_dp_check(p0, p1, cfg.eps)
    fields = report._asdict()
    if args.kl_variant and args.dmu < 0.0:
        d = divergence.kl_laplace_variant(p0, p1)
        fields.update(
            d_closed=d, violated=d > report.bound, form="variant", d_canonical=report.d_closed
        )
    else:
        fields["form"] = "canonical"
    if args.format == "json":
        import json
        return json.dumps(fields, indent=2)
    lines = []
    for key, value in fields.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``numpy.linspace(start, stop, count).tolist()`` to the last bit, without numpy."""
    if count < 0:
        raise ValueError(f"Number of samples, {count}, must be non-negative.")
    div, delta = count - 1, stop - start
    if div < 1:
        return [0.0 * delta + start] * count
    step = delta / div  # where it underflows to 0, numpy scales i / div by delta
    grid = [i / div * delta + start if step == 0 else i * step + start for i in range(div)]
    return grid + [stop]


def _cmd_kl_sweep(args: argparse.Namespace) -> str:
    if not (math.isfinite(args.eps_start) and math.isfinite(args.eps_stop)):
        raise ValueError("--eps-start and --eps-stop must be finite")
    if args.eps_list is not None:
        eps_grid = _float_list(args.eps_list)
    else:
        eps_grid = _linspace(args.eps_start, args.eps_stop, args.eps_count)
    rows = divergence.kl_sweep(
        eps_grid=eps_grid,
        thetas=_float_list(args.theta_list),
        dmu_over_s=_float_list(args.dmu_over_s),
        s=args.s,
        mu0=args.mu0,
    )
    path = _out_path(args.out, "kl_sweep.csv")
    divergence.write_kl_sweep_csv(rows, path)
    return f"wrote {len(rows)} rows to {path}"


def _cmd_simulate(args: argparse.Namespace) -> str:
    if args.sweep:
        rows = montecarlo.run_grid(
            s=args.s,
            n_trials=args.samples,
            seed=args.seed,
            workers=args.workers,
        )
        path = _out_path(args.out, "grid.csv")
        montecarlo.write_grid_csv(rows, path)
        return f"appended {len(rows)} grid rows to {path}"
    if args.dmu is None:
        raise ValueError("--dmu is required unless --sweep is given")
    sim = montecarlo.SimConfig(
        cfg=_cfg(args),
        attack=AttackSpec(x_a=args.dmu),
        alpha=args.alpha,
        direction=_tail(args),
        n_trials=args.samples,
        seed=args.seed,
    )
    montecarlo._check_resolution(sim)
    if args.data is not None:
        if args.bound is None:
            raise ValueError("--bound is required with --data")
        data = mechanism.load_dataset(args.data, args.bound)
        report = montecarlo.run_attack_experiment(data, sim, workers=args.workers)
    else:
        report = montecarlo.estimate_error_rates(sim, workers=args.workers)
    text = report.to_json()
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapdetect",
        description=(
            "Detection of adversarial bias in Laplace-mechanism releases: "
            "thresholds, error/power curves, bias intervals, KL accounting, "
            "and Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("threshold", help="critical-region threshold(s) of size alpha")
    p.add_argument("--alpha", type=float, required=True, help="test size in (0, 1)")
    _tail_arg(p)
    p.add_argument(
        "--dmu",
        type=float,
        default=None,
        help="attack bias; with a one-sided tail also prints the LR cutoff",
    )
    _mech_args(p)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("power", help="detection probability of the size-alpha test")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dmu", type=float, required=True, help="attack bias")
    _tail_arg(p)
    _mech_args(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("roc", help="write an ROC curve CSV (alpha,k1,k2,power)")
    p.add_argument("--dmu", type=float, required=True, help="attack bias")
    _tail_arg(p)
    p.add_argument("--grid", type=int, default=999, help="number of alpha samples")
    p.add_argument("--out", default=None, help="output CSV path")
    _mech_args(p, theta_default=1.5)
    p.set_defaults(handler=_cmd_roc)

    p = sub.add_parser("interval", help="detectable-bias interval from (alpha, beta_bar)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument(
        "--beta-bar",
        type=float,
        required=True,
        help="in (0, 1]; not a power: at dmu = hi, H1 has mass beta_bar/2 below the "
        "two-sided test's upper threshold (at lo, above the lower one)",
    )
    _mech_args(p)
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("kl", help="KL divergence report with the e^eps bound")
    p.add_argument("--dmu", type=float, required=True, help="attack bias")
    p.add_argument(
        "--kl-variant",
        action="store_true",
        help="for negative bias, report the alternative closed form as d_closed",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    _mech_args(p)
    p.set_defaults(handler=_cmd_kl)

    p = sub.add_parser("kl-sweep", help="divergence vs privacy budget grid as CSV")
    p.add_argument("--eps-list", default=None, help="comma-separated eps values")
    p.add_argument("--eps-start", type=float, default=0.1)
    p.add_argument("--eps-stop", type=float, default=2.0)
    p.add_argument("--eps-count", type=int, default=39)
    p.add_argument("--theta-list", default="1,1.5")
    p.add_argument("--dmu-over-s", default="0.5,1,4")
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(handler=_cmd_kl_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo validation (JSON SimReport)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--dmu", type=float, default=None, help="attack bias")
    _tail_arg(p)
    p.add_argument("--samples", type=int, default=100_000, help="trials per hypothesis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="must be >= 1; starts no threads")
    p.add_argument("--data", default=None, help="records file (CSV or plain text)")
    p.add_argument("--bound", type=float, default=None, help="record bound for --data")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="run the default validation grid and append rows to the CSV; reads only "
        "--s, --samples, --seed, --workers and --out (the grid fixes the rest, right tail too)",
    )
    p.add_argument("--out", default=None, help="output path (JSON, or CSV with --sweep)")
    _mech_args(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout closed; on devnull the exit flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
