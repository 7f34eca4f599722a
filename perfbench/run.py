"""Outside-in benchmark of flatlora: per-optimizer step latency, peak bytes,
run_experiment time, and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload default-steps --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
(and the same pass again in a child at the BLAS thread count the
environment gave) and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans and
temporary run outputs go to .perfbench_out/ under the repository root.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD_SHARE = 0.35  # of --seconds, given to the default-thread traced pass
CHILD_TIMEOUT_S = 150

# The measured process runs OpenBLAS single-threaded.  With its default two
# threads on a shared 2-vCPU machine, wide-steps flat-lora medians ranged
# from 16.7 to 39.4 ms over five 30-second runs (3.1 to 3.3 ms with one
# thread): too unsteady to gate.  The reference child repeats the traced
# pass at the thread count the environment gave, so that behaviour stays
# visible beside the gated numbers.
BLAS_THREADS = "OPENBLAS_NUM_THREADS"

# The measured process also fixes glibc's malloc thresholds.  By default
# glibc moves its mmap and trim thresholds as blocks are freed, so whether a
# step's 16x3072 temporaries reuse heap pages or fault in fresh ones each
# time depends on allocation history: the default-steps lora step took about
# 0.8 or 1.6-1.9 ms by that alone, and the page-fault mode spread a quarter
# between runs.  Fixed thresholds keep every temporary on the heap and the
# heap untrimmed, so each run measures the arithmetic.  The reference child
# keeps glibc's default.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30))
malloc_mode = "adaptive"

# Every time the benchmark reports is divided by the machine's slowdown
# during the run: the median of workloads.Calibration, a fixed kernel timed
# before every unit, over CAL_REF_NS.  The shared 2-vCPU host changes speed
# by up to a third for minutes at a time, and every operation moves with
# it.  Over twelve 10-second default-steps runs the medians of the lora
# step, the run and set-up spread 12-13% (quartiles over median); their
# ratios to this kernel 3-9%.  An elementwise numpy kernel over 16x3072
# arrays did worse than none (13%): its own time moves with where its
# arrays land in each process.  CAL_REF_NS is about the kernel's median on
# that host, so the scaled times read as milliseconds at its usual speed.
CAL_REF_NS = 360_000


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: a statistic of the spans named `span` in the
    operations labelled `label`."""

    name: str
    label: str
    span: str
    stat: str
    unit: str
    better: str


def layer_metrics() -> list[LayerMetric]:
    out: list[LayerMetric] = []

    def add(label, span, stat, unit="ms", better="lower", name=None):
        # diagnostics and harness spans occur in one kind of operation only
        prefix = "" if span.startswith(("diagnostics.", "harness.")) else f"{label}."
        out.append(LayerMetric(name or f"{prefix}{span}.{stat}", label, span,
                               stat, unit, better))

    for kind in wl.KINDS:
        add(kind, "model.backward", "calls", "count")
        add(kind, "model.backward", "self_ms")
        add(kind, "model.backward", "peak_bytes", "bytes")
        add(kind, "optimizers.base_update", "self_ms")
        add(kind, "optimizers.step", "self_ms")
        add(kind, "optimizers.step", "child_frac", "ratio", "higher")
    add("lora-sam", "optimizers.sam_direction", "self_ms")
    for kind in ("lora-sam", "flat-lora"):
        add(kind, "model.apply_perturbation", "self_ms")
        add(kind, "model.revert", "self_ms")
    add("eflat-lora", "optimizers.perturb_state.apply", "self_ms")
    add("eflat-lora", "optimizers.perturb_state.remove", "self_ms")
    for kind in ("flat-lora", "eflat-lora"):
        pfg = "optimizers.perturbation_from_gradients"
        add(kind, pfg, "calls", "count")
        add(kind, pfg, "self_ms")
        add(kind, pfg, "peak_bytes", "bytes")
        add(kind, pfg, "extra_per_op", "count",
            name=f"{kind}.optimizers.degenerate_layers")
        add(kind, "linalg.cho_factor", "calls", "count")
        add(kind, "linalg.cho_factor", "self_ms")
        add(kind, "linalg.cho_solve", "self_ms")
        add(kind, "linalg.pseudo_inverse", "calls", "count")
        add(kind, "linalg.cho_solve", "gram_success_frac", "ratio", "higher",
            name=f"{kind}.linalg.gram_success_frac")
    add("run", "model.forward", "calls", "count")
    add("run", "model.forward", "self_ms")
    add("run", "model.backward", "calls", "count")
    add("run", "model.backward", "self_ms")
    add("run", "model.forward_with_offsets", "self_ms")
    add("run", "optimizers.step", "self_ms")
    add("run", "optimizers.perturbation_from_gradients", "self_ms")
    add("run", "optimizers.perturb_state.apply", "self_ms")
    add("run", "optimizers.perturb_state.remove", "self_ms")
    for fn in ("sharpness_sam", "sharpness_ema", "network_balancedness"):
        add("run", f"diagnostics.{fn}", "self_ms")
    add("setup", "harness.generate_task", "ms")
    add("setup", "harness.build_network", "ms")
    add("run", "harness.write_run_outputs", "ms")
    add("run", "harness.write_run_outputs", "bytes", "bytes")
    add("run", "harness.run_experiment", "self_ms")
    add("", "", "overhead_frac", "ratio", name="trace.overhead_frac")
    return out


def end_to_end_units() -> dict[str, str]:
    units = {"setup_s": "s"}
    units.update({f"{k}.step_ms": "ms" for k in wl.KINDS})
    units.update({f"{k}.peak_bytes": "bytes" for k in wl.KINDS})
    units.update({"run_s": "s", "run_peak_bytes": "bytes"})
    return units


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    else the median."""
    ordered = sorted(values)
    n = len(ordered)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n * (1 - q) >= 10:
            return label, ordered[int(q * n)]
    return "p50", statistics.median(ordered)


def median_ms(ns: list[int]) -> float:
    return statistics.median(ns) / 1e6


def pin_malloc() -> None:
    """Fix glibc's mmap and trim thresholds (see MALLOC_PINS); elsewhere
    leave malloc as it is and say so in the report."""
    global malloc_mode
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        malloc_mode = "adaptive (no mallopt)"
        return
    if all([mallopt(param, value) == 1 for param, value in MALLOC_PINS]):
        malloc_mode = "fixed"
    else:
        malloc_mode = "adaptive (mallopt refused)"


def process_setting() -> str:
    threads = os.environ.get(BLAS_THREADS, "unset")
    return (f"{BLAS_THREADS}={threads} malloc={malloc_mode} "
            f"nproc={len(os.sched_getaffinity(0))}")


# -- trace 0: end-to-end ------------------------------------------------------


def machine_slowdown(timings: wl.Timings) -> float:
    """The run's calibration median over CAL_REF_NS: above 1 when the
    machine ran slower than the reference."""
    return statistics.median(timings.cal_ns) / CAL_REF_NS


def end_to_end(bench: wl.Bench, seconds: float) -> dict[str, float]:
    fl = bench.fl
    timings, _ = bench.measure(seconds)
    setup_s = timings.setup_s
    ref = bench.reference()
    slowdown = machine_slowdown(timings)

    print(f"workload {bench.w.name} seed {bench.seed} seconds {seconds:g}  "
          f"{process_setting()}")
    print(f"  machine slowdown   calibration median "
          f"{statistics.median(timings.cal_ns) / 1e3:.1f} us over "
          f"{len(timings.cal_ns)} calls = {slowdown:.4f} x the reference "
          f"{CAL_REF_NS / 1e3:g} us; times below are divided by {slowdown:.4f}, "
          f"raw medians in brackets")
    raw_setup = statistics.median(setup_s)
    metrics = {"setup_s": raw_setup / slowdown}
    print(f"  setup_s            {metrics['setup_s']:.6f} s   ({raw_setup:.6f})  "
          f"median of {len(setup_s)} set-ups")
    lora_ms = median_ms(timings.step_ns["lora"])
    counts_net = bench.student("lora").net
    for kind in wl.KINDS:
        ns = timings.step_ns[kind]
        ms = median_ms(ns)
        metrics[f"{kind}.step_ms"] = ms / slowdown
        label, value = tail(ns)
        print(f"  {kind + '.step_ms':<22}{ms / slowdown:.4f} ms  ({ms:.4f})  {label} "
              f"{value / 1e6 / slowdown:.4f} ms  n={len(ns)}  vs lora "
              f"{ms / lora_ms:.3f} (not gated)  "
              f"grad evals/step {wl.GRAD_EVALS[kind]}")
    for kind in wl.KINDS:
        peak = ref.step_peak_bytes[kind]
        metrics[f"{kind}.peak_bytes"] = peak
        counts = fl.optimizers.param_and_memory_counts(counts_net, kind)
        extra_bytes = counts.extra * counts_net.layers[0].b.itemsize
        print(f"  {kind + '.peak_bytes':<22}{peak} bytes  convention: extra "
              f"{counts.extra / counts.trainable:.1f}x of {counts.trainable} "
              f"trainable = {extra_bytes:.0f} bytes")
    raw_run = statistics.median(timings.run_s)
    metrics["run_s"] = raw_run / slowdown
    label, value = tail(timings.run_s)
    print(f"  run_s              {metrics['run_s']:.5f} s  ({raw_run:.5f})  "
          f"{label} {value / slowdown:.5f} s  "
          f"n={len(timings.run_s)}  ({wl.RUN_OPTIMIZER} at the eval-run dims, "
          f"{wl.RUN_STEPS} steps, eval every {wl.EVAL_EVERY})")
    metrics["run_peak_bytes"] = ref.run_peak_bytes
    print(f"  run_peak_bytes     {ref.run_peak_bytes} bytes")
    print(f"  sha256 of final adapters after {bench.w.round_steps} steps "
          f"({process_setting()}; informational):")
    for kind in wl.KINDS:
        print(f"    {kind:<11} {ref.adapter_digests[kind]}")
    print(f"  sha256 of run CSV: {ref.csv_digest}")
    return metrics


# -- trace 1: per-layer ------------------------------------------------------


def layer_values(agg, mem_agg, overhead: float, slowdown: float) -> dict[str, float]:
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "peak": 0, "extra": 0}
    ops = {kind: agg.get((kind, "optimizers.step"), empty)["calls"] for kind in wl.KINDS}
    ops["run"] = agg.get(("run", "harness.run_experiment"), empty)["calls"]
    values = {}
    for m in layer_metrics():
        a = agg.get((m.label, m.span), empty)
        n_ops = ops.get(m.label, 0) or 1
        if m.stat == "calls":
            v = a["calls"] / n_ops
        elif m.stat == "self_ms":
            v = a["self_ns"] / n_ops / 1e6 / slowdown
        elif m.stat == "ms":
            v = a["total_ns"] / (a["calls"] or 1) / 1e6 / slowdown
        elif m.stat == "bytes":
            v = a["extra"] / (a["calls"] or 1)
        elif m.stat == "extra_per_op":
            v = a["extra"] / n_ops
        elif m.stat == "peak_bytes":
            v = mem_agg.get((m.label, m.span), empty)["peak"]
        elif m.stat == "child_frac":
            v = 1 - a["self_ns"] / a["total_ns"] if a["total_ns"] else 0.0
        elif m.stat == "gram_success_frac":
            factors = agg.get((m.label, "linalg.cho_factor"), empty)["calls"]
            v = a["calls"] / factors if factors else 0.0
        elif m.stat == "overhead_frac":
            v = overhead
        else:
            raise ValueError(f"unknown statistic {m.stat!r}")
        values[m.name] = v
    return values


def traced(bench: wl.Bench, seconds: float, span_file: Path,
           slowdown: float | None = None) -> dict:
    """The traced pass: traced set-ups, paired untraced/traced units, a
    memory-tracking round, and the reference digests.  Times are divided by
    `slowdown`, by default the one this pass measures."""
    bench.setup()
    tracer = tr.Tracer(bench.fl)
    tracer.install()
    try:
        for _ in range(3):
            bench.setup(tracer)
    finally:
        tracer.uninstall()
    plain, traced_t = bench.measure(seconds, tracer)
    mem = tr.Tracer(bench.fl, track_memory=True)
    bench.memory_trace(mem)
    ref = bench.reference()
    tracer.write_jsonl(str(span_file))

    plain_sum = sum(median_ms(plain.step_ns[k]) for k in wl.KINDS)
    traced_sum = sum(median_ms(traced_t.step_ns[k]) for k in wl.KINDS)
    plain_sum += 1e3 * statistics.median(plain.run_s)
    traced_sum += 1e3 * statistics.median(traced_t.run_s)
    if slowdown is None:
        slowdown = machine_slowdown(plain)
    values = layer_values(tr.aggregate(tracer.spans), tr.aggregate(mem.spans),
                          traced_sum / plain_sum - 1, slowdown)
    return {
        "metrics": values,
        "adapter_digests": ref.adapter_digests,
        "csv_digest": ref.csv_digest,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "setting": process_setting(),
        "slowdown": slowdown,
        "spans": len(tracer.spans),
    }


def reference_child(args, inherited_env: dict, slowdown: float) -> dict:
    """The traced pass again, in a child with the environment this process
    was started with (so its own BLAS thread count) and glibc's default
    malloc.  Its times are divided by this process's slowdown: the child's
    calibration product runs at the child's BLAS thread count, which makes
    it no measure of the machine."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds * CHILD_SHARE),
           "--trace", "1", "--reference-child", "--slowdown", repr(slowdown)]
    proc = subprocess.run(cmd, env=inherited_env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"reference pass exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(bench: wl.Bench, args, inherited_env: dict) -> tuple[dict, int, int]:
    own = traced(bench, args.seconds * (1 - CHILD_SHARE),
                 OUT_DIR / f"spans-{args.workload}.jsonl")
    child = reference_child(args, inherited_env, own["slowdown"])
    print(f"workload {bench.w.name} seed {bench.seed}: traced pass, "
          f"{own['spans']} spans in .perfbench_out/spans-{args.workload}.jsonl")
    units = {m.name: m.unit for m in layer_metrics()}
    print(f"  {'metric':<52}{own['setting']:>46}  {child['setting']}")
    print(f"  {'machine slowdown (times are divided by it)':<52}"
          f"{own['slowdown']:>46.4f}  {child['slowdown']:.4f}")
    for name, value in own["metrics"].items():
        print(f"  {name:<52}{value:>46.6g}  {child['metrics'][name]:.6g} {units[name]}")
    agree = own["adapter_digests"] == child["adapter_digests"]
    print(f"  adapter digests, single-thread vs default BLAS: "
          f"{'agree' if agree else 'DIFFER'}")
    for kind in wl.KINDS:
        a, b = own["adapter_digests"][kind], child["adapter_digests"][kind]
        print(f"    {kind:<11} {a[:16]}  {b[:16]}  {'same' if a == b else 'differs'}")
    same_csv = own["csv_digest"] == child["csv_digest"]
    print(f"  run CSV digest: {own['csv_digest'][:16]}  {child['csv_digest'][:16]}  "
          f"{'same' if same_csv else 'differs'}")
    for message in child["failures"]:
        print(f"  default-thread failure: {message}")
    return (own["metrics"], child["attempted"], child["failed"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference-child", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--slowdown", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    inherited_env = dict(os.environ)
    if not args.reference_child:
        os.environ[BLAS_THREADS] = "1"  # before numpy loads OpenBLAS
        pin_malloc()

    try:
        fl = wl.load_flatlora(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench = wl.Bench(fl, wl.WORKLOADS[args.workload], args.seed, OUT_DIR)
    try:
        if args.reference_child:
            result = traced(bench, args.seconds,
                            OUT_DIR / f"spans-{args.workload}-default-threads.jsonl",
                            args.slowdown)
            print(json.dumps(result))
            return 0
        if args.trace:
            metrics, extra_attempted, extra_failed = per_layer(bench, args,
                                                               inherited_env)
            units = {m.name: m.unit for m in layer_metrics()}
        else:
            metrics = end_to_end(bench, args.seconds)
            extra_attempted = extra_failed = 0
            units = end_to_end_units()
    finally:
        bench.close()
    attempted = bench.attempted + extra_attempted
    failed = bench.failed + extra_failed
    print(f"  operations: attempted {attempted} failed {failed}")
    for message in bench.failures:
        print(f"  failure: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
