"""Command-line front end.

Subcommands: run (one experiment), sweep (same config across seeds),
verify (self-check suite), bench (per-step wall-time comparison).  Exit
codes: 0 on success, 1 when a config or the bench arguments are invalid
or a verify check fails, 2 when training aborts on non-finite numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .harness import (
    OUT_DIR_ENV_VAR,
    ConfigError,
    ExperimentAbort,
    bench,
    load_config,
    run_experiment,
    run_paths,
    sweep,
    verify,
)
from .linalg import NumericalError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV_VAR, os.getcwd())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlora",
        description="Train low-rank adapters with sharpness-aware variants "
        "and inspect the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config")
    p_run.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV_VAR} or the working directory)",
    )

    p_sweep = sub.add_parser("sweep", help="run one config across several seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--seeds", required=True, help="comma-separated seed list, e.g. 0,1,2"
    )
    p_sweep.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the self-check suite")

    p_bench = sub.add_parser("bench", help="compare per-step wall time across optimizers")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--out", default=None)

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out if args.out is not None else _default_out_dir()
    records, summary = run_experiment(cfg, out_dir=out_dir)
    csv_path, summary_path = run_paths(cfg, out_dir)
    print(f"wrote {csv_path} ({len(records)} evaluation rows)")
    print(f"wrote {summary_path}")
    print(
        f"final: train_loss={summary.final_train_loss:.6g} "
        f"eval_loss={summary.final_eval_loss:.6g} "
        f"sharpness={summary.final_sharpness_sam:.6g} "
        f"grad_evals={summary.total_grad_evals}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        print(f"cannot parse seed list {args.seeds!r}", file=sys.stderr)
        return EXIT_INVALID
    if not seeds:
        print("seed list is empty", file=sys.stderr)
        return EXIT_INVALID
    out_dir = args.out if args.out is not None else _default_out_dir()
    summaries = sweep(cfg, seeds, out_dir=out_dir)
    for s in summaries:
        print(
            f"seed {s.seed}: train_loss={s.final_train_loss:.6g} "
            f"eval_loss={s.final_eval_loss:.6g} sharpness={s.final_sharpness_sam:.6g}"
        )
    print(f"{len(summaries)} runs written to {out_dir}")
    return EXIT_OK


def _cmd_verify() -> int:
    report = verify()
    for line in report.format_lines():
        print(line)
    return report.exit_code()


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    report = bench(cfg, repeats=args.repeats)
    out_dir = args.out if args.out is not None else _default_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{report.config_hash}.bench.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(
        f"{'optimizer':<12} {'median ms/step':>14} {'vs lora':>8} "
        f"{'grad evals':>10} {'extra mem':>10}"
    )
    for e in report.entries:
        print(
            f"{e.optimizer:<12} {e.median_step_ms:>14.4f} {e.ratio_vs_lora:>8.2f} "
            f"{e.grad_evals_per_step:>10.2f} {e.extra_memory_elements:>10.1f}"
        )
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify()
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_INVALID
    except ExperimentAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
