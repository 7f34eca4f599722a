"""Append perfbench end-to-end results to the committed BENCH_<workload>.json
trajectory at the repository root.

For each workload, runs `python3 perfbench/run.py --trace 0` in a checkout
(this repository by default, or any other checkout of it, e.g. a clone of
an older commit), takes the JSON object on the last line of its standard
output plus the machine slowdown and malloc mode the report prints, and
appends one record per run:

    {"commit", "workload", "seed", "seconds", "trace", "slowdown",
     "malloc", "metrics": {name: value}}

`commit` is `git describe --always --dirty` of the checkout, taken once
before anything runs; a checkout git cannot describe is a usage error.  A
run with a failed operation is reported and not recorded.  Run from
anywhere:

    python3 scripts/bench_record.py --seeds 1,2,3 --seconds 30
    python3 scripts/bench_record.py --checkout ../parent --seeds 1,2,3 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SLOWDOWN = re.compile(r"= ([0-9.]+) x the reference")
MALLOC = re.compile(r"malloc=(\S+)")


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def bench_path(workload: str) -> Path:
    return ROOT / f"BENCH_{workload}.json"


def describe(checkout: Path) -> str:
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=checkout,
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def parse_report(stdout: str) -> tuple[dict, float, str]:
    """The last-line JSON result, the machine slowdown and the malloc mode
    of one `--trace 0` report."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    slowdown = malloc = None
    for line in lines[:-1]:
        if slowdown is None and (m := SLOWDOWN.search(line)):
            slowdown = float(m.group(1))
        if malloc is None and (m := MALLOC.search(line)):
            malloc = m.group(1)
    if slowdown is None or malloc is None:
        raise ValueError("report names no machine slowdown or malloc mode")
    return result, slowdown, malloc


def record(checkout: Path, commit: str, workload: str, seed: int,
           seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    result, slowdown, malloc = parse_report(proc.stdout)
    if result["failed"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} operations failed")
    return {
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "slowdown": slowdown,
        "malloc": malloc,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def append(rec: dict) -> None:
    path = bench_path(rec["workload"])
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append(rec)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="checkout whose perfbench/ and src/ run (default: this one)")
    p.add_argument("--workloads", default=",".join(workload_names()),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1,2,3")
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds needs comma-separated integers, got {args.seeds!r}")
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(workload_names()))
    if unknown:
        p.error(f"unknown workloads {unknown}; choose from {workload_names()}")
    checkout = args.checkout.resolve()
    try:
        commit = describe(checkout)
    except subprocess.CalledProcessError as exc:
        p.error(f"cannot describe --checkout {checkout}: {exc.stderr.strip()}")
    except OSError as exc:
        p.error(f"cannot describe --checkout {checkout}: {exc}")
    status = 0
    for seed in seeds:
        for workload in workloads:
            try:
                rec = record(checkout, commit, workload, seed, args.seconds)
            except (RuntimeError, ValueError) as exc:
                print(f"{workload} seed {seed}: not recorded: {exc}", file=sys.stderr)
                status = 1
                continue
            append(rec)
            print(f"{rec['commit']} {workload} seed {seed}: slowdown "
                  f"{rec['slowdown']:.4f} malloc={rec['malloc']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
