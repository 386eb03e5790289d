"""Command-line interface: single binary exposing every computation.

Subcommands
    threshold   critical-region threshold(s) for a requested size
    power       detection probability of the calibrated test
    roc         alpha sweep written as a CSV ROC curve
    interval    detectable-bias interval from (alpha, power)
    kl          divergence report with the e^eps admissibility bound
    kl-sweep    divergence vs privacy budget grid, written as CSV
    simulate    Monte Carlo validation of the closed forms (JSON report)

Exit codes: 0 success, 2 usage error, 3 domain error. Scalar output uses
7 significant digits; CSV artifacts carry 17. Files default into
$LAPDETECT_OUT_DIR (falling back to the working directory) unless --out
gives an explicit path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import detector, divergence, mechanism
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


def _cmd_threshold(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    test = DetectionTest.from_alpha(args.alpha, cfg, _tail(args))
    if not test.direction.one_sided:
        print(f"({_fmt(test.k1)}, {_fmt(test.k2)})")
        return 0
    print(_fmt(test.k))
    if args.dmu is not None and args.dmu != 0.0:
        attack = AttackSpec(x_a=args.dmu)
        print(f"kappa = {_fmt(detector.kappa(test, attack))}")
        # The ratio does not depend on mu0: evaluate it at the offset in the
        # frame centred on mu0, where the region is not lost to rounding.
        lr = detector.likelihood_ratio(test.offset, replace(cfg, mu0=0.0), attack)
        print(f"lr_at_k = {_fmt(lr)}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    test = DetectionTest.from_alpha(args.alpha, cfg, _tail(args))
    print(_fmt(test.power(AttackSpec(x_a=args.dmu))))
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    curve = detector.roc_curve(cfg, AttackSpec(x_a=args.dmu), _tail(args), args.grid)
    path = _out_path(args.out, "roc.csv")
    detector.write_roc_csv(curve, path)
    print(f"wrote {len(curve.points)} points (AUC = {_fmt(curve.auc)}) to {path}")
    return 0


def _cmd_interval(args: argparse.Namespace) -> int:
    iv = detector.bias_interval(args.alpha, args.beta_bar, _cfg(args))
    print(f"({_fmt(iv.lo)}, {_fmt(iv.hi)})")
    return 0


def _cmd_kl(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    p0, p1 = mechanism.hypothesis_pair(cfg, AttackSpec(x_a=args.dmu))
    report = divergence.kl_dp_check(p0, p1, cfg.eps)
    form = "canonical"
    d_selected = report.d_closed
    if args.kl_variant and args.dmu < 0.0:
        d_selected = divergence.kl_laplace_variant(p0, p1)
        form = "variant"
    fields = {
        "d_closed": d_selected,
        "d_quadrature": report.d_quadrature,
        "epsilon": report.epsilon,
        "bound": report.bound,
        "violated": d_selected > report.bound,
        "form": form,
    }
    if form == "variant":
        fields["d_canonical"] = report.d_closed
    if args.format == "json":
        print(json.dumps(fields, indent=2))
    else:
        for key, value in fields.items():
            if isinstance(value, bool):
                print(f"{key} = {'true' if value else 'false'}")
            elif isinstance(value, float):
                print(f"{key} = {_fmt(value)}")
            else:
                print(f"{key} = {value}")
    return 0


def _cmd_kl_sweep(args: argparse.Namespace) -> int:
    if args.eps_list is not None:
        eps_grid = _float_list(args.eps_list)
    else:
        if not (math.isfinite(args.eps_start) and math.isfinite(args.eps_stop)):
            raise ValueError("--eps-start and --eps-stop must be finite")
        import numpy as np  # the default grid is np.linspace's, to the last bit
        eps_grid = np.linspace(args.eps_start, args.eps_stop, args.eps_count).tolist()
    rows = divergence.kl_sweep(
        eps_grid=eps_grid,
        thetas=_float_list(args.theta_list),
        dmu_over_s=_float_list(args.dmu_over_s),
        s=args.s,
        mu0=args.mu0,
    )
    path = _out_path(args.out, "kl_sweep.csv")
    divergence.write_kl_sweep_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import montecarlo  # imports numpy, which no other subcommand needs
    if args.sweep:
        rows = montecarlo.run_grid(
            s=args.s,
            n_trials=args.samples,
            seed=args.seed,
            workers=args.workers,
        )
        path = _out_path(args.out, "grid.csv")
        montecarlo.write_grid_csv(rows, path)
        print(f"appended {len(rows)} grid rows to {path}")
        return 0
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
    print(text)
    return 0


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

    p = sub.add_parser("interval", help="detectable-bias interval from (alpha, power)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta-bar", type=float, required=True, help="test power in (0, 1]")
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
    p.add_argument("--workers", type=int, default=1, help="thread fan-out for trials")
    p.add_argument("--data", default=None, help="records file (CSV or plain text)")
    p.add_argument("--bound", type=float, default=None, help="record bound for --data")
    p.add_argument(
        "--sweep",
        action="store_true",
        help="run the default validation grid and append rows to the CSV",
    )
    p.add_argument("--out", default=None, help="output path (JSON, or CSV with --sweep)")
    _mech_args(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
