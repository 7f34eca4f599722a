"""Print the sha256 of the CSV and summary JSON of the 16 replay runs, and
of the stdout of `flatlora verify` and of each demo.

Each of the four optimizer kinds runs at three configs: the default and a
wide network ([256,256,64], rank 8, batch 64), both at seed 0 for 2000
steps, and the default at 0 steps (the summary of an untrained student).
Every run, the self-check and each demo is its own child process with
OPENBLAS_NUM_THREADS=1.  The default and wide runs then run again with
OPENBLAS_NUM_THREADS=2, as configs `default-2threads` and `wide-2threads`:
their lines equal the `default` and `wide` ones, because a run's bytes
depend on its config and seed alone, not on the BLAS thread count.  The
output is one line per file or stream, 44 in all:

    <sha256>  <kind>.<config>.csv
    <sha256>  <kind>.<config>.summary.json
    <sha256>  verify.stdout
    <sha256>  <demo>.stdout

Run it on two checkouts and diff the outputs to check that a change keeps
every run byte-identical:

    python3 scripts/replay_digests.py > change.txt
    python3 scripts/replay_digests.py --checkout ../parent > parent.txt
    diff parent.txt change.txt

Two children run at a time; the lines keep their order.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("lora", "lora-sam", "flat-lora", "eflat-lora")
CONFIGS = {
    "default": {},
    "wide": {"layer_dims": "256,256,64", "rank": 8, "batch_size": 64},
    "zero": {"steps": 0},
}
# (config, BLAS threads) of each kind's runs, in print order.
RUNS = [(config, 1) for config in CONFIGS] + [("default", 2), ("wide", 2)]
DEMOS = ("balancedness_flow", "optimizer_comparison", "transfer_identity")
SEED = 0
STEPS = 2000
JOBS = 2


def config_text(kind: str, overrides: dict) -> str:
    values = {"optimizer": kind, "seed": SEED, "steps": STEPS, **overrides}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def child_env(checkout: Path, threads: int = 1) -> dict:
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                PYTHONPATH=str(checkout / "src"))


def run_digests(checkout: Path, kind: str, config: str,
                threads: int = 1) -> list[tuple[str, str]]:
    """(sha256, name) of the CSV and summary JSON of one run on `threads`
    BLAS threads; a run on more than one is named <config>-<n>threads."""
    env = child_env(checkout, threads)
    label = config if threads == 1 else f"{config}-{threads}threads"
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(config_text(kind, CONFIGS[config]), encoding="utf-8")
        out = Path(tmp) / "out"
        subprocess.run(
            [sys.executable, "-m", "flatlora.cli", "run",
             "--config", str(cfg_path), "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        digests = []
        for suffix in (".csv", ".summary.json"):
            (path,) = out.glob(f"*{suffix}")
            digests.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                            f"{kind}.{label}{suffix}"))
        return digests


def stdout_digest(checkout: Path, name: str) -> list[tuple[str, str]]:
    """(sha256, name) of the stdout of `flatlora verify` or of one demo."""
    if name == "verify":
        argv = ["-m", "flatlora.cli", "verify"]
    else:
        argv = [str(checkout / "demos" / f"{name}.py")]
    out = subprocess.run([sys.executable, *argv], env=child_env(checkout),
                         check=True, stdout=subprocess.PIPE).stdout
    return [(hashlib.sha256(out).hexdigest(), f"{name}.stdout")]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="checkout whose src/ runs (default: this repository)")
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    jobs = [partial(run_digests, checkout, kind, config, threads)
            for kind in KINDS for config, threads in RUNS]
    jobs += [partial(stdout_digest, checkout, name) for name in ("verify", *DEMOS)]
    with ThreadPoolExecutor(JOBS) as pool:
        for digests in pool.map(lambda job: job(), jobs):
            for digest, name in digests:
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
