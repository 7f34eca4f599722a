"""scripts/replay_digests.py: one sha256 line per run output file, and the
wide runs' bytes at one and two BLAS threads."""

import importlib.util
import pathlib
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("lora", "lora-sam", "flat-lora", "eflat-lora")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "replay_digests", ROOT / "scripts" / "replay_digests.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


def test_replay_digests_prints_every_named_digest(monkeypatch, capsys):
    """Two-step runs stand in for the 2000-step ones; every kind at every
    config, then at the wide config on two BLAS threads, prints a CSV and
    a summary digest, in order, followed by the stdout digests of verify
    and the three demos."""
    replay = load_script()
    monkeypatch.setattr(replay, "STEPS", 2)
    assert replay.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"{kind}.{config}{suffix}"
             for kind in KINDS
             for config in ("default", "wide", "zero", "wide-2threads")
             for suffix in (".csv", ".summary.json")]
    names += [f"{name}.stdout" for name in
              ("verify", "balancedness_flow", "optimizer_comparison", "transfer_identity")]
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


@pytest.mark.parametrize("kind", KINDS)
def test_wide_run_replays_at_one_and_two_blas_threads(kind):
    """The full wide run ([256,256,64], rank 8, batch 64, 2000 steps), in
    child processes at OPENBLAS_NUM_THREADS 1 and 2, writes the same CSV
    and summary bytes.  A BLAS dot of more than 10,000 elements splits
    across threads and so would change the last bits."""
    replay = load_script()
    with ThreadPoolExecutor(2) as pool:
        one, two = pool.map(
            lambda threads: replay.run_digests(ROOT, kind, "wide", threads), (1, 2))
    assert [digest for digest, _ in one] == [digest for digest, _ in two]
