"""Regenerate reference.json from the current program.

Usage (from the repository root): python3 perfbench/reference.py

Records, with the machine facts:

- ``digests``: per workload, the sha256 of its reference block's output
  lines (run.py fails a run whose block digests differently);
- ``contract_setup_split_s``: median over fresh interpreters of the contract
  matcher's start-up phases, ``optimal_assignment`` (the 5040-bijection
  scan) against the ``contract_match_fn`` table compile;
- ``counts_seed0``: the exact per-item counts of a traced run with seed 0,
  which repeat run to run for that seed.

Run it only when outputs are meant to change; a change that claims a speed-up
keeps this file as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, subprocess_env  # noqa: E402

COUNT_SUFFIXES = (".calls", ".bytes", ".contexts", ".memo_misses", ".ipc_bytes")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / f"work-reference-{os.getpid()}"
    digests = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, work / name, False)
            (work / name).mkdir(parents=True)
            digests[name] = run.reference_digest(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"digests": digests}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    env = subprocess_env()
    cold = WORKLOADS["cold-start"](0, run.OUT, False)
    phases = run.setup_times(cold, 5, env)
    record["contract_setup_split_s"] = {
        key: statistics.median(p[key] for p in phases) for key in phases[0] if key != "loop"
    }
    record["contract_setup_split_s"]["samples"] = len(phases)

    counts = {}
    for name in WORKLOADS:
        subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", "4", "--trace", "1"],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        layers = json.loads((run.OUT / f"{name}-seed0-trace1.json").read_text())["metrics"]
        counts[name] = {k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}
    record["counts_seed0"] = counts

    record["machine"] = run.machine()
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
