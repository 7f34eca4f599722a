"""Command-line front end.

Subcommands: run (one experiment), sweep (same config across seeds),
verify (self-check suite), bench (per-step wall-time comparison).  Exit
codes: 0 on success, 1 when a config, the bench arguments or --out is
invalid, a verify check fails or a command runs out of memory (one line
on stderr, no traceback), 2 when training aborts on non-finite numbers.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    OUT_DIR_ENV_VAR,
    ConfigError,
    ExperimentAbort,
    _bench_warmup,
    bench,
    load_config,
    run_experiment,
    run_paths,
    sweep,
)
from .checks import verify
from .linalg import NumericalError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlora",
        description="Train low-rank adapters with sharpness-aware variants "
        "and inspect the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV_VAR} or the working directory)",
    )

    p_run = sub.add_parser("run", parents=[out], help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[out], help="run one config across several seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--seeds", required=True, help="comma-separated seed list, e.g. 0,1,2"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    sub.add_parser("verify", help="run the self-check suite").set_defaults(handler=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", parents=[out], help="compare per-step wall time across optimizers"
    )
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    records, summary = run_experiment(cfg, out_dir=args.out)
    csv_path, summary_path = run_paths(cfg, args.out)
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
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        print(f"cannot parse seed list {args.seeds!r}", file=sys.stderr)
        return EXIT_INVALID
    summaries = sweep(cfg, seeds, out_dir=args.out)
    for s in summaries:
        print(
            f"seed {s.seed}: train_loss={s.final_train_loss:.6g} "
            f"eval_loss={s.final_eval_loss:.6g} sharpness={s.final_sharpness_sam:.6g}"
        )
    print(f"{len(summaries)} runs written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify()
    for line in report.format_lines():
        print(line)
    return report.exit_code()


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    _bench_warmup(cfg, args.repeats)
    os.makedirs(args.out, exist_ok=True)
    report = bench(cfg, repeats=args.repeats)
    out_path = os.path.join(args.out, f"{report.config_hash}.bench.json")
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
    args = _build_parser().parse_args(argv)
    if hasattr(args, "out"):  # run, sweep and bench
        if args.out is None:
            args.out = os.environ.get(OUT_DIR_ENV_VAR, os.getcwd())
        if not args.out:
            print("cannot use an empty output path", file=sys.stderr)
            return EXIT_INVALID
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    except UnicodeDecodeError as exc:
        print(f"cannot read {args.config}: not UTF-8 ({exc.reason})", file=sys.stderr)
        return EXIT_INVALID
    except (ExperimentAbort, NumericalError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
