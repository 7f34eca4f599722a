"""The committed BENCH_<workload>.json trajectory: every file parses, and
each record carries exactly the end-to-end metrics BENCHMARK.json gates;
each BENCH_<workload>.trace.json record, exactly its per-layer metrics."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
RECORD_KEYS = {"commit", "workload", "seed", "seconds", "trace", "slowdown",
               "malloc", "metrics"}
TRACE_FILES = sorted(ROOT.glob("BENCH_*.trace.json"))
BENCH_FILES = sorted(set(ROOT.glob("BENCH_*.json")) - set(TRACE_FILES))


def test_every_workload_has_a_trajectory():
    assert {p.name for p in BENCH_FILES} == {f"BENCH_{w}.json" for w in WORKLOADS}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records_the_gated_metrics(path):
    records = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(records, list) and records
    workload = path.stem.removeprefix("BENCH_")
    for rec in records:
        assert set(rec) == RECORD_KEYS
        assert rec["workload"] == workload
        assert rec["trace"] == 0
        assert set(rec["metrics"]) == END_TO_END
        assert all(isinstance(v, (int, float)) for v in rec["metrics"].values())


@pytest.mark.parametrize("path", TRACE_FILES, ids=lambda p: p.name)
def test_trace_file_records_the_per_layer_metrics(path):
    records = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(records, list) and records
    workload = path.name.removeprefix("BENCH_").removesuffix(".trace.json")
    assert workload in WORKLOADS
    for rec in records:
        assert set(rec) == RECORD_KEYS
        assert rec["workload"] == workload
        assert rec["trace"] == 1
        assert set(rec["metrics"]) == PER_LAYER
        assert all(isinstance(v, (int, float)) for v in rec["metrics"].values())


def load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_recorder_parses_a_report():
    recorder = load_recorder()
    stdout = (
        "workload wide-steps seed 1 seconds 2  OPENBLAS_NUM_THREADS=1 "
        "malloc=fixed nproc=2\n"
        "  machine slowdown   calibration median 361.2 us over 40 calls = "
        "1.0033 x the reference 360 us; times below are divided by 1.0033\n"
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"run_s": {"value": 0.5, "unit": "s"}}}\n'
    )
    result, slowdown, malloc = recorder.parse_report(stdout)
    assert (slowdown, malloc) == (1.0033, "fixed")
    assert result["metrics"]["run_s"]["value"] == 0.5


def test_recorder_reports_an_empty_or_resultless_report_and_goes_on(
        tmp_path, monkeypatch, capsys):
    """A perfbench run that exits 0 with no output, or whose last line is
    a result without its failed count, is reported as not recorded and
    the remaining seeds still run: neither stops the session."""
    recorder = load_recorder()
    good = (
        "workload eval-run seed 3 seconds 2  OPENBLAS_NUM_THREADS=1 "
        "malloc=fixed nproc=2\n"
        "  machine slowdown   calibration median 361.2 us over 40 calls = "
        "1.0033 x the reference 360 us; times below are divided by 1.0033\n"
        + json.dumps({"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {"run_s": {"value": 0.5, "unit": "s"}}})
    )
    resultless = good.rsplit("\n", 1)[0] + '\n{"correct": true, "attempted": 3}'
    reports = iter(["", resultless, good])

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=next(reports), stderr="")

    monkeypatch.setattr(recorder, "describe", lambda checkout: "abc1234")
    monkeypatch.setattr(recorder.subprocess, "run", fake_run)
    named = recorder.bench_path
    monkeypatch.setattr(recorder, "bench_path",
                        lambda workload, trace=0: tmp_path / named(workload, trace).name)
    assert recorder.main(["--seeds", "1,2,3", "--seconds", "2",
                          "--workloads", "eval-run"]) == 1
    err = capsys.readouterr().err
    assert "abc1234 eval-run seed 1: not recorded: report is empty" in err
    assert "abc1234 eval-run seed 2: not recorded: report's last line is no result" in err
    records = json.loads((tmp_path / "BENCH_eval-run.json").read_text())
    assert [(r["seed"], r["metrics"]) for r in records] == [(3, {"run_s": 0.5})]


@pytest.mark.parametrize("args", [
    ["--seeds", "1,x"],
    ["--seeds", ""],
    ["--seeds", "1,,2"],
    ["--seeds", "1", "--workloads", "eval-run,no-such-workload"],
    *(["--seeds", "1", "--seconds", s] for s in ("nan", "inf", "0", "-1")),
    ["--seeds", "3,1,3"],
])
def test_recorder_rejects_a_bad_list_before_running(args, monkeypatch, capsys):
    recorder = load_recorder()

    def no_run(*_):
        raise AssertionError("perfbench ran before the arguments were checked")

    monkeypatch.setattr(recorder, "record", no_run)
    with pytest.raises(SystemExit) as exc:
        recorder.main(args)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["not-a-repository", "missing"])
def test_recorder_rejects_a_checkout_git_cannot_describe(where, tmp_path,
                                                         monkeypatch, capsys):
    recorder = load_recorder()

    def no_run(*_):
        raise AssertionError("perfbench ran before the checkout was described")

    monkeypatch.setattr(recorder, "record", no_run)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    checkout = tmp_path / where
    if where == "not-a-repository":
        checkout.mkdir()
    with pytest.raises(SystemExit) as exc:
        recorder.main(["--seeds", "1", "--checkout", str(checkout)])
    assert exc.value.code == 2
    assert f"error: cannot describe --checkout {checkout}" in capsys.readouterr().err


@pytest.mark.parametrize("trace", [0, 1])
def test_recorder_rejects_a_seed_the_commit_already_has(trace, tmp_path, monkeypatch,
                                                         capsys):
    """A second record of one commit at one seed would stop --compare on
    that workload, so a seed the described commit already has in the
    target file is refused before anything runs; other commits' seeds
    and the other file do not count."""
    recorder = load_recorder()

    def no_run(*_):
        raise AssertionError("perfbench ran before the recorded seeds were checked")

    monkeypatch.setattr(recorder, "record", no_run)
    monkeypatch.setattr(recorder, "describe", lambda checkout: "abc1234")
    named = recorder.bench_path
    monkeypatch.setattr(recorder, "bench_path",
                        lambda workload, trace=0: tmp_path / named(workload, trace).name)
    recorder.bench_path("eval-run", trace).write_text(json.dumps(
        [{"commit": "abc1234", "seed": 7}, {"commit": "other", "seed": 8}]))
    recorder.bench_path("eval-run", 1 - trace).write_text(json.dumps(
        [{"commit": "abc1234", "seed": 8}]))
    args = ["--workloads", "eval-run", "--trace", str(trace), "--seeds"]
    with pytest.raises(SystemExit) as exc:
        recorder.main(args + ["8,7"])
    assert exc.value.code == 2
    name = recorder.bench_path("eval-run", trace).name
    assert f"error: {name} already has abc1234 at seeds 7\n" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="perfbench ran"):
        recorder.main(args + ["8"])


@pytest.mark.parametrize("path", BENCH_FILES + TRACE_FILES, ids=lambda p: p.name)
def test_bench_file_holds_one_record_per_commit_and_seed(path):
    """--compare stops on a workload whose file has two records of one
    commit at one seed."""
    keys = [(rec["commit"], rec["seed"])
            for rec in json.loads(path.read_text(encoding="utf-8"))]
    assert len(keys) == len(set(keys))


def synthetic(commit, seed, step_ms, slowdown, peak=1000):
    """A record of every gated metric: lora.step_ms and run_s read step_ms,
    every other metric 1.0 (times) or peak (bytes)."""
    metrics = {}
    for m in SPEC["end_to_end"]:
        if m["name"] in ("lora.step_ms", "run_s"):
            metrics[m["name"]] = step_ms
        else:
            metrics[m["name"]] = peak if m["unit"] == "bytes" else 1.0
    return {"commit": commit, "workload": "eval-run", "seed": seed, "seconds": 2.0,
            "trace": 0, "slowdown": slowdown, "malloc": "fixed", "metrics": metrics}


def test_compare_pairs_by_seed_and_reports_both_time_readings():
    """Medians, the parent's quartile spread and pairs won, matched by
    seed; the divided and undivided readings of a time can disagree."""
    recorder = load_recorder()
    records = [
        synthetic("p", 1, 1.0, 1.0), synthetic("p", 2, 2.0, 1.0),
        synthetic("p", 3, 3.0, 1.0), synthetic("p", 4, 4.0, 1.0),
        synthetic("p", 9, 0.1, 1.0),  # no change run at seed 9
        # The change's times read lower only because its slowdown is higher.
        synthetic("c", 1, 0.9, 1.2), synthetic("c", 2, 1.8, 1.2),
        synthetic("c", 3, 3.5, 1.2), synthetic("c", 4, 3.6, 1.2, peak=999),
        synthetic("other", 1, 5.0, 1.0),
    ]
    pairs = recorder.matched_pairs(records, "p", "c")
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    rows = {row[0]: row[1:] for row in recorder.compare_rows(pairs, SPEC["end_to_end"])}
    times = {m["name"] for m in SPEC["end_to_end"] if m["unit"] in ("s", "ms")}
    assert set(rows) == END_TO_END | {f"{n} x slowdown" for n in times}
    # Parent 1, 2, 3, 4: median 2.5, quartiles 1.75 and 3.25.
    assert rows["lora.step_ms"] == pytest.approx((2.5, 2.65, 1.5, 3))
    # Undivided, the change reads 1.08, 2.16, 4.2, 4.32: it wins no pair.
    assert rows["lora.step_ms x slowdown"] == pytest.approx((2.5, 3.18, 1.5, 0))
    assert rows["run_s"][3] == 3
    assert rows["lora.peak_bytes"] == (1000, 1000, 0.0, 1)


def test_compare_prints_every_workload_and_rejects_unmatched_commits(
        tmp_path, monkeypatch, capsys):
    recorder = load_recorder()
    path = tmp_path / "BENCH_eval-run.json"
    path.write_text(json.dumps([synthetic("p", 1, 1.0, 1.0), synthetic("c", 1, 0.5, 1.0),
                                synthetic("c", 1, 0.6, 1.0)]))
    monkeypatch.setattr(recorder, "bench_path", lambda workload: path)
    for commits, message in ((["p", "q"], "no seed has records of both p and q"),
                             (["p", "c"], "c has two records at seed 1"),
                             (["p", "p"], "two different commits")):
        with pytest.raises(SystemExit) as exc:
            recorder.main(["--compare", *commits, "--workloads", "eval-run"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    path.write_text(json.dumps([synthetic("p", 1, 1.0, 1.0), synthetic("c", 1, 0.5, 1.0)]))
    assert recorder.main(["--compare", "p", "c", "--workloads", "eval-run"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eval-run: p -> c, 1 pairs at seeds 1\n")
    assert "lora.step_ms x slowdown" in out and "1/1" in out


def test_compare_marks_a_gain_and_a_median_over_its_bound(tmp_path, monkeypatch,
                                                          capsys):
    """`gain` needs 9 of 10 pairs won and a median gap wider than the
    parent's quartile spread; `over bound` a median worse by more than the
    metric's bound; anything else is left blank."""
    recorder = load_recorder()
    records = []
    for seed in range(1, 11):
        # The change wins 9 of 10 step pairs, by 0.1 ms at the median
        # against a parent spread of 0.045, and its peak is 6% higher.
        step = 1.2 if seed == 10 else 0.9 + 0.01 * seed
        records += [synthetic("p", seed, 1.0 + 0.01 * seed, 1.0),
                    synthetic("c", seed, step, 1.0, peak=1060)]
    path = tmp_path / "BENCH_eval-run.json"
    path.write_text(json.dumps(records))
    monkeypatch.setattr(recorder, "bench_path", lambda workload: path)
    assert recorder.main(["--compare", "p", "c", "--workloads", "eval-run"]) == 0
    marks = {line.split()[0] + (" x slowdown" if "x slowdown" in line else ""):
             line.split("/10")[1].strip()
             for line in capsys.readouterr().out.splitlines()[2:]}
    assert marks.pop("lora.step_ms") == marks.pop("lora.step_ms x slowdown") == "gain"
    assert marks.pop("run_s") == marks.pop("run_s x slowdown") == "gain"
    for name in ("lora-sam", "flat-lora", "eflat-lora", "lora"):
        assert marks.pop(f"{name}.peak_bytes") == "over bound"
    assert marks.pop("run_peak_bytes") == "over bound"
    assert set(marks.values()) == {""}  # the unchanged times

    lower = {"better": "lower", "bound": 0.25}
    higher = {"better": "higher", "bound": 0.25}
    assert recorder.verdict(lower, 2.0, 1.5, 0.4, 9, 10) == "gain"
    assert recorder.verdict(lower, 2.0, 1.5, 0.4, 8, 10) == ""  # too few pairs
    assert recorder.verdict(lower, 2.0, 1.7, 0.4, 10, 10) == ""  # inside the spread
    assert recorder.verdict(lower, 2.0, 2.5, 0.0, 0, 10) == ""  # worse by the bound
    assert recorder.verdict(lower, 2.0, 2.51, 0.0, 0, 10) == "over bound"
    assert recorder.verdict(higher, 2.0, 2.5, 0.4, 10, 10) == "gain"
    assert recorder.verdict(higher, 2.0, 1.49, 0.0, 0, 10) == "over bound"


def test_recorder_appends_a_traced_report_to_the_trace_file(tmp_path, monkeypatch):
    """--trace 1 runs perfbench's traced pass and appends its per-layer
    metrics, with the measured pass's slowdown and malloc mode (the
    first of the two the report prints), to BENCH_<workload>.trace.json;
    the end-to-end file is not touched."""
    recorder = load_recorder()
    values = {name: float(i) for i, name in enumerate(sorted(PER_LAYER))}
    setting = "OPENBLAS_NUM_THREADS={} malloc={} nproc=2"
    report = "\n".join([
        "workload eval-run seed 7: traced pass, 812 spans in "
        ".perfbench_out/spans-eval-run.jsonl",
        f"  {'metric':<52}{setting.format(1, 'fixed'):>46}  "
        f"{setting.format('unset', 'adaptive')}",
        f"  {'machine slowdown (times are divided by it)':<52}{1.0421:>46.4f}  1.0421",
        *(f"  {name:<52}{value:>46.6g}  {value:.6g} ms" for name, value in values.items()),
        "  operations: attempted 12 failed 0",
        json.dumps({"correct": True, "attempted": 12, "failed": 0,
                    "metrics": {name: {"value": value, "unit": "ms"}
                                for name, value in values.items()}}),
    ])
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=report + "\n", stderr="")

    monkeypatch.setattr(recorder, "describe", lambda checkout: "abc1234")
    monkeypatch.setattr(recorder.subprocess, "run", fake_run)
    named = recorder.bench_path
    monkeypatch.setattr(recorder, "bench_path",
                        lambda workload, trace=0: tmp_path / named(workload, trace).name)
    assert recorder.main(["--seeds", "7", "--seconds", "8", "--workloads", "eval-run",
                          "--trace", "1"]) == 0
    assert commands[0][-2:] == ["--trace", "1"]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_eval-run.trace.json"]
    records = json.loads((tmp_path / "BENCH_eval-run.trace.json").read_text())
    assert records == [{"commit": "abc1234", "workload": "eval-run", "seed": 7,
                        "seconds": 8.0, "trace": 1, "slowdown": 1.0421,
                        "malloc": "fixed", "metrics": values}]


def test_recorder_refuses_to_compare_traced_records(capsys):
    recorder = load_recorder()
    with pytest.raises(SystemExit) as exc:
        recorder.main(["--compare", "p", "c", "--trace", "1"])
    assert exc.value.code == 2
    assert "--trace 1 only records" in capsys.readouterr().err


def test_recorder_alternates_parent_and_change_with_parent_first_on_odd_seeds(
        tmp_path, monkeypatch, capsys):
    """--parent runs both checkouts at each seed and workload, back to
    back, the parent first on odd seeds and the change first on even
    ones, and appends every record; two checkouts that describe as one
    commit, a seed either commit already has, or --parent with
    --compare are refused before anything runs."""
    recorder = load_recorder()
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = {parent: "p1", change: "c1"}
    calls = []

    def fake_record(checkout, commit, workload, seed, seconds, trace=0):
        calls.append((commit, workload, seed))
        return synthetic(commit, seed, 1.0, 1.0) | {"workload": workload}

    monkeypatch.setattr(recorder, "describe", lambda checkout: names[checkout])
    monkeypatch.setattr(recorder, "record", fake_record)
    named = recorder.bench_path
    monkeypatch.setattr(recorder, "bench_path",
                        lambda workload, trace=0: tmp_path / named(workload, trace).name)
    args = ["--parent", str(parent), "--checkout", str(change), "--seconds", "2",
            "--workloads", "eval-run,wide-steps", "--seeds"]
    assert recorder.main(args + ["3,4"]) == 0
    assert calls == [("p1", "eval-run", 3), ("c1", "eval-run", 3),
                     ("p1", "wide-steps", 3), ("c1", "wide-steps", 3),
                     ("c1", "eval-run", 4), ("p1", "eval-run", 4),
                     ("c1", "wide-steps", 4), ("p1", "wide-steps", 4)]
    for workload in ("eval-run", "wide-steps"):
        records = json.loads(recorder.bench_path(workload).read_text())
        assert [(r["commit"], r["seed"]) for r in records] == [
            ("p1", 3), ("c1", 3), ("c1", 4), ("p1", 4)]
        assert {r["workload"] for r in records} == {workload}
    capsys.readouterr()
    calls.clear()
    names[parent] = "c1"
    for extra, message in (
            (["--seeds", "5"], "--parent and --checkout both describe as c1"),
            (["--compare", "p1", "c1"], "--parent only records")):
        with pytest.raises(SystemExit) as exc:
            recorder.main(args[:-1] + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    names[parent] = "p2"
    with pytest.raises(SystemExit) as exc:
        recorder.main(args + ["5,4"])
    assert exc.value.code == 2
    assert "BENCH_eval-run.json already has c1 at seeds 4" in capsys.readouterr().err
    assert calls == []
