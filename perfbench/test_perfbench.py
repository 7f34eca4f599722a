"""Tests of the benchmark itself: the tracer restores what it wraps, does
not change results, builds a well-formed span tree, and its named child
spans account for the step.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

FL = wl.load_flatlora(HERE.parent)


def make_bench(name: str, tmp_path: Path, seed: int = 3) -> wl.Bench:
    bench = wl.Bench(FL, wl.WORKLOADS[name], seed, tmp_path)
    bench.setup()
    return bench


def traced_rounds(bench: wl.Bench, tracer: tr.Tracer) -> dict:
    """One traced step round per kind; the final adapter digests."""
    tracer.install()
    try:
        return {kind: wl.adapter_digest(bench.step_round(kind, tracer=tracer).net)
                for kind in wl.KINDS}
    finally:
        tracer.uninstall()


def test_every_wrapped_name_is_restored(tmp_path):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tr.patch_targets(FL)]
    bench = make_bench("default-steps", tmp_path)
    tracer = tr.Tracer(FL)
    bench.measure(0.0, tracer)
    bench.memory_trace(tr.Tracer(FL, track_memory=True))
    assert tracer.spans
    changed = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, original in originals
               if vars(owner)[attr] is not original]
    assert changed == []
    bench.close()


@pytest.mark.parametrize("name", ["default-steps", "wide-steps"])
def test_traced_and_untraced_runs_are_bit_identical(name, tmp_path):
    bench = make_bench(name, tmp_path)
    plain = {kind: wl.adapter_digest(bench.step_round(kind).net) for kind in wl.KINDS}
    assert traced_rounds(bench, tr.Tracer(FL)) == plain
    assert traced_rounds(bench, tr.Tracer(FL, track_memory=True)) == plain

    bench.run_op()
    plain_csv = wl.file_digest(bench.csv_path())
    tracer = tr.Tracer(FL)
    tracer.install()
    try:
        bench.run_op(tracer=tracer)
    finally:
        tracer.uninstall()
    assert wl.file_digest(bench.csv_path()) == plain_csv
    assert bench.failed == 0, bench.failures
    bench.close()


def test_span_tree_is_well_formed(tmp_path):
    bench = make_bench("eval-run", tmp_path)
    tracer = tr.Tracer(FL)
    tracer.install()
    try:
        bench.setup(tracer)
        bench.step_round("flat-lora", tracer=tracer)
        bench.step_round("eflat-lora", tracer=tracer)
        bench.run_op(tracer=tracer)
    finally:
        tracer.uninstall()
    span_file = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(span_file))
    spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert len(spans) == len(tracer.spans) > 0
    roots = set()
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] < 0:
            roots.add(span["name"])
            continue
        parent = spans[span["parent"]]
        assert parent["id"] < span["id"]
        assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
        assert (parent["op"], parent["label"]) == (span["op"], span["label"])
    assert roots == {"harness.generate_task", "harness.build_network",
                     "optimizers.step", "harness.run_experiment"}


@pytest.mark.parametrize("name", ["default-steps", "wide-steps"])
def test_named_children_cover_each_step(name, tmp_path):
    bench = make_bench(name, tmp_path)
    tracer = tr.Tracer(FL)
    for _ in range(2):
        traced_rounds(bench, tracer)
    agg = tr.aggregate(tracer.spans)
    covered = {kind: 1 - agg[(kind, "optimizers.step")]["self_ns"]
               / agg[(kind, "optimizers.step")]["total_ns"] for kind in wl.KINDS}
    assert all(frac >= 0.9 for frac in covered.values()), covered
    bench.close()


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.end_to_end_units()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in bench_run.layer_metrics()]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-steps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
