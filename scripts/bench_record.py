"""Append perfbench end-to-end results to the committed BENCH_<workload>.json
trajectory at the repository root, or traced per-layer results to
BENCH_<workload>.trace.json.

For each workload, runs `python3 perfbench/run.py --trace T` in a checkout
(this repository by default, or any other checkout of it, e.g. a clone of
an older commit), takes the JSON object on the last line of its standard
output plus the machine slowdown and malloc mode the report prints, and
appends one record per run:

    {"commit", "workload", "seed", "seconds", "trace", "slowdown",
     "malloc", "metrics": {name: value}}

`--trace 0`, the default, records the end-to-end metrics in
BENCH_<workload>.json; `--trace 1` records the per-layer metrics of the
traced pass in BENCH_<workload>.trace.json, with the slowdown and malloc
mode of that pass (not of its reference child).  `commit` is
`git describe --always --dirty` of the checkout, taken once before
anything runs; a checkout git cannot describe is a usage error, and so
is a seed listed twice or one the commit already has in the target
file, since `--compare` needs one record per commit and seed.  A run
with a failed operation, or whose report is empty or has no result on
its last line, is reported and not recorded, and the session goes on.
Run from
anywhere:

    python3 scripts/bench_record.py --seeds 1,2,3 --seconds 30
    python3 scripts/bench_record.py --checkout ../parent --seeds 1,2,3 --seconds 30
    python3 scripts/bench_record.py --workloads eval-run --seeds 7 --seconds 30 --trace 1

`--parent DIR` records an A/B: at each seed and workload it runs the
parent checkout DIR and the `--checkout` one back to back, the parent
first on odd seeds and second on even ones, so that neither side always
runs first on a host whose speed drifts.  The two checkouts must
describe as different commits:

    python3 scripts/bench_record.py --parent ../parent --seeds 11,12 --seconds 30

`--compare PARENT CHANGE` runs nothing: it reads the recorded runs of two
commits, pairs them by seed, and prints for each workload and each
end-to-end metric of BENCHMARK.json the two medians, the parent's
quartile spread (upper minus lower quartile) and how many pairs the
change won (strictly better, by the metric's `better`), and a verdict:
`gain` when the change won at least 9 of every 10 pairs and its median
is better than the parent's by more than the parent's quartile spread,
`over bound` when its median is worse than the parent's by more than the
metric's `bound` in BENCHMARK.json, blank otherwise.  perfbench divides
every time by the machine slowdown it measured in that run; a time
metric gets a second row, with its own verdict, for the undivided value,
value x slowdown, since the division alone can tilt a comparison:

    python3 scripts/bench_record.py --compare 2b7ec40 8241fa9
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The machine slowdown as the end-to-end and the traced report print it.
SLOWDOWN = (re.compile(r"= ([0-9.]+) x the reference"),
            re.compile(r"machine slowdown \(times are divided by it\)\s+([0-9.]+)"))
MALLOC = re.compile(r"malloc=(\S+)")
# What record reads of the result on the report's last line.
RESULT_KEYS = frozenset({"attempted", "failed", "metrics"})

# Units of the end-to-end metrics perfbench divides by the machine slowdown.
TIME_UNITS = ("s", "ms")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def bench_path(workload: str, trace: int = 0) -> Path:
    return ROOT / f"BENCH_{workload}{'.trace' if trace else ''}.json"


def describe(checkout: Path) -> str:
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=checkout,
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def parse_report(stdout: str) -> tuple[dict, float, str]:
    """The last-line JSON result, the machine slowdown and the malloc mode
    of one report; in a traced one, the first of each is the measured
    pass's.  An empty report, or a last line that is not a result with
    its operation counts and metrics, is a ValueError."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("report is empty")
    result = json.loads(lines[-1])
    if not (isinstance(result, dict) and RESULT_KEYS <= result.keys()):
        raise ValueError(f"report's last line is no result with {sorted(RESULT_KEYS)}")
    slowdown = malloc = None
    for line in lines[:-1]:
        for pattern in SLOWDOWN:
            if slowdown is None and (m := pattern.search(line)):
                slowdown = float(m.group(1))
        if malloc is None and (m := MALLOC.search(line)):
            malloc = m.group(1)
    if slowdown is None or malloc is None:
        raise ValueError("report names no machine slowdown or malloc mode")
    return result, slowdown, malloc


def record(checkout: Path, commit: str, workload: str, seed: int,
           seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
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
        "trace": trace,
        "slowdown": slowdown,
        "malloc": malloc,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def load_records(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def append(rec: dict) -> None:
    path = bench_path(rec["workload"], rec["trace"])
    records = load_records(path)
    records.append(rec)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def matched_pairs(records: list[dict], parent: str, change: str) -> list[tuple[dict, dict]]:
    """(parent record, change record) at each seed both commits ran, in
    seed order.  Two records of one commit at one seed are an error."""
    runs: dict[str, dict[int, dict]] = {parent: {}, change: {}}
    for rec in records:
        by_seed = runs.get(rec["commit"])
        if by_seed is None:
            continue
        if rec["seed"] in by_seed:
            raise ValueError(f"{rec['commit']} has two records at seed {rec['seed']}")
        by_seed[rec["seed"]] = rec
    seeds = sorted(runs[parent].keys() & runs[change].keys())
    return [(runs[parent][s], runs[change][s]) for s in seeds]


def quartile_spread(values: list[float]) -> float:
    """Upper minus lower quartile, linearly interpolated between order
    statistics (numpy's default); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _values(records: list[dict], name: str, undivided: bool) -> list[float]:
    return [r["metrics"][name] * (r["slowdown"] if undivided else 1.0) for r in records]


def compare_rows(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[tuple]:
    """(label, parent median, change median, parent quartile spread, pairs
    won) per end-to-end metric, plus an undivided row for a time metric."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        for undivided in (False, True) if metric["unit"] in TIME_UNITS else (False,):
            before = _values([p for p, _ in pairs], name, undivided)
            after = _values([c for _, c in pairs], name, undivided)
            if metric["better"] == "lower":
                won = sum(a < b for b, a in zip(before, after))
            else:
                won = sum(a > b for b, a in zip(before, after))
            label = f"{name} x slowdown" if undivided else name
            rows.append((label, statistics.median(before), statistics.median(after),
                         quartile_spread(before), won))
    return rows


def verdict(metric: dict, before: float, after: float, spread: float,
            won: int, pairs: int) -> str:
    """'gain' when the change won at least 9 of every 10 pairs and its
    median is better than the parent's by more than the parent's quartile
    spread; 'over bound' when its median is worse than the parent's by
    more than the metric's bound, a fraction of the parent's median; ''
    otherwise."""
    gained = before - after if metric["better"] == "lower" else after - before
    if 10 * won >= 9 * pairs and gained > spread:
        return "gain"
    if -gained > metric["bound"] * abs(before):
        return "over bound"
    return ""


def print_comparison(workload: str, parent: str, change: str,
                     pairs: list[tuple[dict, dict]], metrics: list[dict]) -> None:
    seeds = ",".join(str(p["seed"]) for p, _ in pairs)
    print(f"{workload}: {parent} -> {change}, {len(pairs)} pairs at seeds {seeds}")
    print(f"  {'metric':<28}{'parent':>13}{'change':>13}{'change %':>10}"
          f"{'parent IQR':>13}{'won':>8}  verdict")
    by_name = {m["name"]: m for m in metrics}
    for label, before, after, spread, won in compare_rows(pairs, metrics):
        pct = f"{100.0 * (after / before - 1.0):+.2f}" if before else "-"
        mark = verdict(by_name[label.removesuffix(" x slowdown")], before, after,
                       spread, won, len(pairs))
        print(f"  {label:<28}{_number(before):>13}{_number(after):>13}{pct:>10}"
              f"{_number(spread):>13}{f'{won}/{len(pairs)}':>8}  {mark}".rstrip())


def _number(value: float) -> str:
    """Whole numbers (byte counts) in full, others to 6 significant digits."""
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="checkout whose perfbench/ and src/ run (default: this one)")
    p.add_argument("--parent", type=Path,
                   help="also run this checkout at each seed, first on odd seeds")
    p.add_argument("--workloads", default=",".join(workload_names()),
                   help="comma-separated workload names (default: all)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", help="comma-separated seeds to run, e.g. 1,2,3")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare the recorded runs of two commits; runs nothing")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record the traced per-layer metrics in "
                        "BENCH_<workload>.trace.json")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(workload_names()))
    if unknown:
        p.error(f"unknown workloads {unknown}; choose from {workload_names()}")
    if args.compare:
        if args.trace:
            p.error("--compare reads the end-to-end records; --trace 1 only records")
        if args.parent:
            p.error("--compare runs nothing; --parent only records")
        return compare(p, workloads, *args.compare)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        p.error(f"--seconds must be positive and finite, got {args.seconds!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds needs comma-separated integers, got {args.seeds!r}")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        p.error(f"--seeds repeats {', '.join(map(str, repeated))}")
    checkouts = [args.checkout] + ([args.parent] if args.parent else [])
    commits = {}
    for option, checkout in zip(("--checkout", "--parent"), checkouts):
        checkout = checkout.resolve()
        try:
            commits[checkout] = describe(checkout)
        except subprocess.CalledProcessError as exc:
            p.error(f"cannot describe {option} {checkout}: {exc.stderr.strip()}")
        except OSError as exc:
            p.error(f"cannot describe {option} {checkout}: {exc}")
    if args.parent and len(set(commits.values())) == 1:
        p.error(f"--parent and --checkout both describe as {set(commits.values()).pop()}")
    for workload in workloads:
        path = bench_path(workload, args.trace)
        for commit in commits.values():
            taken = sorted({rec["seed"] for rec in load_records(path)
                            if rec["commit"] == commit} & set(seeds))
            if taken:
                p.error(f"{path.name} already has {commit} at seeds "
                        f"{', '.join(map(str, taken))}")
    status = 0
    order = list(commits.items())
    for seed in seeds:
        for workload in workloads:
            # The parent, last in order, runs first on odd seeds.
            for checkout, commit in order[::-1] if seed % 2 else order:
                try:
                    rec = record(checkout, commit, workload, seed, args.seconds,
                                 args.trace)
                except (RuntimeError, ValueError) as exc:
                    print(f"{commit} {workload} seed {seed}: not recorded: {exc}",
                          file=sys.stderr)
                    status = 1
                    continue
                append(rec)
                print(f"{rec['commit']} {workload} seed {seed}: slowdown "
                      f"{rec['slowdown']:.4f} malloc={rec['malloc']}")
    return status


def compare(p: argparse.ArgumentParser, workloads: list[str], parent: str,
            change: str) -> int:
    if parent == change:
        p.error(f"--compare needs two different commits, got {parent} twice")
    metrics = benchmark_spec()["end_to_end"]
    matched = {}
    for workload in workloads:
        try:
            matched[workload] = matched_pairs(load_records(bench_path(workload)),
                                              parent, change)
        except ValueError as exc:
            p.error(f"{workload}: {exc}")
        if not matched[workload]:
            p.error(f"{workload}: no seed has records of both {parent} and {change}")
    for workload, pairs in matched.items():
        print_comparison(workload, parent, change, pairs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
