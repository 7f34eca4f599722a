"""scripts/replay_digests.py: one sha256 line per run output file."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_replay_digests_prints_36_named_digests(monkeypatch, capsys):
    """Two-step runs stand in for the 2000-step ones; every kind at every
    config prints a CSV and a summary digest, in order, followed by the
    stdout digests of verify and the three demos: 36 lines in all."""
    spec = importlib.util.spec_from_file_location(
        "replay_digests", ROOT / "scripts" / "replay_digests.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    monkeypatch.setattr(replay, "STEPS", 2)
    assert replay.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [f"{kind}.{config}{suffix}"
             for kind in ("lora", "lora-sam", "flat-lora", "eflat-lora")
             for config in ("default", "signed", "wide", "zero")
             for suffix in (".csv", ".summary.json")]
    names += [f"{name}.stdout" for name in
              ("verify", "balancedness_flow", "optimizer_comparison", "transfer_identity")]
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
