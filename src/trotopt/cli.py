"""Command-line interface: sweep, montecarlo, optimum, benchmarks.

Each command reads an optional plain-text config file (``key = value``
lines, see the README for the schema); ``--seed``, ``--out``, ``--metric``
and ``--sdp-tol`` override file values.  CSV goes to ``--out`` or stdout.
Exit codes: 0 on success, 2 on configuration problems, 3 when a certified
solve or benchmark check fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .experiments import (
    MONTECARLO_HEADER,
    SWEEP_HEADER,
    ConfigError,
    ExperimentConfig,
    benchmark_report,
    build_config,
    format_csv,
    montecarlo_rows,
    optimum_report,
    parse_config_text,
    parse_metrics,
    sweep_rows,
)
from .hamiltonians import HamiltonianFormatError
from .metrics import DIAMOND_MAX_DIM, DiamondNormError


def _common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="plain-text key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config file)")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--metric",
        help="comma list out of j, diamond, heuristic (overrides the config file)",
    )
    parser.add_argument("--sdp-tol", type=float, help="certified duality gap for diamond solves")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1; output is identical)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotopt",
        description="Faulty Trotterization channels, channel distances, and step-number tradeoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="distance, bound and benchmark versus the step number"
    )
    _common_options(sweep)

    montecarlo = sub.add_parser(
        "montecarlo", help="per-run sampled-jitter distances, their mean, the averaged map"
    )
    _common_options(montecarlo)

    optimum = sub.add_parser(
        "optimum", help="predicted and measured optimal step numbers"
    )
    _common_options(optimum)
    optimum.add_argument(
        "--dmax", type=float, help="distance budget for the maximum simulation time"
    )

    benchmarks = sub.add_parser(
        "benchmarks", help="completely-noisy benchmarks against live evaluations"
    )
    benchmarks.add_argument("--dim", type=int, default=2, help="Hilbert space dimension")
    benchmarks.add_argument(
        "--sdp-tol", type=float, default=1e-7, help="certified duality gap for diamond solves"
    )
    benchmarks.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        raw = parse_config_text(path.read_text(encoding="utf-8"))
    else:
        raw = {}
    overrides = {
        "master_seed": args.seed,
        "out": args.out,
        "sdp_tol": args.sdp_tol,
    }
    if args.metric is not None:
        overrides["metrics"] = parse_metrics(args.metric)
    return build_config(raw, **overrides)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            config = _config_from_args(args)
            rows = sweep_rows(config, jobs=args.jobs)
            _emit(format_csv(SWEEP_HEADER, rows, config), config.out)
        elif args.command == "montecarlo":
            config = _config_from_args(args)
            rows = montecarlo_rows(config, jobs=args.jobs)
            _emit(format_csv(MONTECARLO_HEADER, rows, config), config.out)
        elif args.command == "optimum":
            if args.dmax is not None and not (math.isfinite(args.dmax) and args.dmax > 0):
                raise ConfigError(f"--dmax must be finite and > 0, got {args.dmax}")
            config = _config_from_args(args)
            _emit(optimum_report(config, dmax=args.dmax, jobs=args.jobs), config.out)
        elif args.command == "benchmarks":
            if not 2 <= args.dim <= DIAMOND_MAX_DIM:
                raise ConfigError(
                    f"--dim must be in [2, {DIAMOND_MAX_DIM}] (the diamond SDP supports "
                    f"dimension <= {DIAMOND_MAX_DIM}), got {args.dim}"
                )
            if not (math.isfinite(args.sdp_tol) and args.sdp_tol > 0):
                raise ConfigError(f"--sdp-tol must be finite and > 0, got {args.sdp_tol}")
            text, ok = benchmark_report(args.dim, args.sdp_tol)
            _emit(text, args.out)
            if not ok:
                return 3
    except (ConfigError, HamiltonianFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiamondNormError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
