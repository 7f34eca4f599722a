"""The committed BENCH_<workload>.json trajectory: every file parses, and
each record carries exactly the end-to-end metrics BENCHMARK.json gates."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
RECORD_KEYS = {"commit", "workload", "seed", "seconds", "trace", "slowdown",
               "malloc", "metrics"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


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


@pytest.mark.parametrize("args", [
    ["--seeds", "1,x"],
    ["--seeds", ""],
    ["--seeds", "1,,2"],
    ["--seeds", "1", "--workloads", "eval-run,no-such-workload"],
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
