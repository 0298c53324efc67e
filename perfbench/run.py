"""gridgram benchmark: one workload, end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py for why each exists): generate-logged,
derive-kernel, cold-start, audit; ``all`` runs the four in turn, each
printing its own report and result line. ``--seed`` draws the derivation
seeds, so the same seed gives the same inputs. ``--smoke`` shrinks every
workload to a size the benchmark's own tests run in seconds.

``--trace 0`` measures for ``--seconds`` in a fresh process with nothing
wrapped, then times the program's set-up in fresh interpreters, and reports
the end-to-end metrics of BENCHMARK.json. Every time is scaled to a host of
fixed speed by a reference loop timed next to it (see hostspeed.py): each
item by the loops run within half a second of it, each set-up sample by
loops run in its own interpreter. ``setup_s`` is the median of
SETUP_SAMPLES fresh interpreters, half started before the timed phase and
half after. ``--trace 1`` spends half the time untraced and half traced
(same items), and reports the per-layer metrics of BENCHMARK.json plus the
tracing overhead (traced minus untraced median item time). Per-layer times
are self times per item over all traced items; counts are per item over the
workload's first ``count_items`` items, so they repeat exactly for a given
seed.

Every run checks outputs: each item's exit code, hashes and verdicts; a
fixed reference block whose digest is pinned in reference.json; and the
tests/golden/demo_seed42_* bytes written by ``gridgram generate``. A
mismatch counts as a failed item and makes the exit code 1. Details go to
perfbench/out/; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import REF_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
LOOP_WINDOW_NS = 500_000_000
# A child process may take this long beyond the time it is asked to measure.
CHILD_SLACK_S = 150

# Name of items_per_s in the printed report, per workload (default designs_per_s).
THROUGHPUT_NAME = {"audit": "logs_verified_per_s"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_child(cmd: list[str], env: dict, seconds: float = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=seconds + CHILD_SLACK_S,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{Path(cmd[1]).name} exited {proc.returncode}")
    return proc


def measure(args, work: Path, seconds: float, trace: bool, env: dict) -> dict:
    result_file = work / f"measure-trace{int(trace)}.json"
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--work", str(work), "--result", str(result_file),
    ]
    run_child(cmd + ["--trace"] * trace + ["--smoke"] * args.smoke, env, seconds)
    return json.loads(result_file.read_text())


def setup_times(workload, samples: int, env: dict) -> list[dict]:
    n_half, matcher = workload.probe
    grammar = SRC / "gridgram" / "rulesets" / "demo_uav.json"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(grammar), str(n_half), matcher]
    return [json.loads(run_child(cmd, env).stdout) for _ in range(samples)]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def machine_facts(args) -> dict:
    threads = os.environ.get("GRIDGRAM_THREADS")
    if args.workload in ("generate-logged", "audit"):
        threads = str(min(2, os.cpu_count() or 1))
    return {
        **machine(),
        "GRIDGRAM_THREADS": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def reference_digest(workload) -> str:
    return hashlib.sha256("\n".join(workload.reference()).encode()).hexdigest()


def output_checks(workload, work: Path, reference: dict) -> list[str]:
    """Reference-block digest, then golden bytes: two checks, one line each."""
    from workloads import golden_problems

    problems = []
    digest = reference_digest(workload)
    if digest != reference["digests"][workload.name]:
        problems.append(f"reference block digest {digest} differs from reference.json")
    golden = golden_problems(work)
    if golden:
        problems.append("golden: " + "; ".join(golden))
    return problems


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def item_scales(run: dict) -> list[float]:
    """Per item, REF_LOOP_S over the mean reference-loop time within
    LOOP_WINDOW_NS of the item (the nearest loop if none ran that close).

    The mean, not the median: an item is slowed by the host's bursts in
    proportion to their share of its time, and so is the mean loop."""
    loops = sorted(run["loops_ns"])
    times = [t for t, _ in loops]
    scales = []
    for start, lat in zip(run["starts_ns"], run["latencies_ns"]):
        lo = bisect.bisect_left(times, start - LOOP_WINDOW_NS)
        hi = bisect.bisect_right(times, start + lat + LOOP_WINDOW_NS)
        near = [d for _, d in loops[lo:hi]] or [min(loops, key=lambda td: abs(td[0] - start))[1]]
        scales.append(REF_LOOP_S * 1e9 / statistics.fmean(near))
    return scales


def end_to_end(run: dict, setups: list[dict], designs_per_item: int) -> tuple[dict, dict]:
    """(host-scaled metrics, the same metrics unscaled); see hostspeed.py."""
    out = []
    for scales in (item_scales(run), [1.0] * len(run["latencies_ns"])):
        lat_ms = [ns * f / 1e6 for ns, f in zip(run["latencies_ns"], scales)]
        cpu_ms = [ns * f / 1e6 for ns, f in zip(run["cpu_ns"], scales)]
        out.append({
            "items_per_s": designs_per_item * len(lat_ms) * 1000 / sum(lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": p90(lat_ms),
            "cpu_ms_per_item": sum(cpu_ms) / len(cpu_ms),
            "peak_rss_mb": run["peak_rss_mb"],
        })
    metrics, raw = out
    metrics["setup_s"] = statistics.median(s["total"] * REF_LOOP_S / s["loop"] for s in setups)
    raw["setup_s"] = statistics.median(s["total"] for s in setups)
    return metrics, raw


def per_layer(untraced: dict, traced: dict, names: list[str]) -> dict:
    layers = traced["layers"]
    base = statistics.median(untraced["latencies_ns"]) / 1e6
    overhead = statistics.median(traced["latencies_ns"]) / 1e6 - base
    layers["trace.overhead.ms"] = overhead
    layers["trace.overhead.share"] = overhead / base
    return {name: layers.get(name, 0.0) for name in names}


def print_report(workload, facts, metrics, raw, units, failures, attempted, layers) -> None:
    print(f"gridgram benchmark: {' '.join(f'{k}={v}' for k, v in facts.items())}")
    print(f"  attempted={attempted} failed={len(failures)} "
          f"failed_share={len(failures) / attempted:.4f}")
    for problem in failures[:10]:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        alias = ""
        if name == "items_per_s":
            alias = f"  ({THROUGHPUT_NAME.get(workload.name, 'designs_per_s')})"
        unscaled = "" if raw is None else f"  (unscaled {raw[name]:.4f})"
        print(f"  {name:<48} {value:>14.4f} {units[name]}{alias}{unscaled}")
    if layers is not None:
        item_ms, self_ms = layers["item.ms"], layers["trace.self_sum.ms"]
        print(f"  traced item {item_ms:.3f} ms; layer self times sum to {self_ms:.3f} ms"
              f" ({self_ms / item_ms:.1%}; above 100% where run_batch workers overlap)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "gridgram" / "__init__.py").is_file():
        return fail(f"no gridgram sources at {SRC}; run from a checkout of the repository")
    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        return fail(f"missing {config_path}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, subprocess_env

    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        return max([main(["--workload", name, *common]) for name in WORKLOADS])
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    config = json.loads(config_path.read_text())
    reference = json.loads((HERE / "reference.json").read_text())

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    env = subprocess_env()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
        workload.setup()
        setups = []
        if args.trace:
            runs = [measure(args, work, args.seconds / 2, False, env)]
            spans_file = work / "spans.jsonl"
            runs.append(measure(args, work, args.seconds / 2, True, env))
            shutil.move(spans_file, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            samples = 1 if args.smoke else SETUP_SAMPLES
            setups += setup_times(workload, samples // 2, env)
            runs = [measure(args, work, args.seconds, False, env)]
            setups += setup_times(workload, samples - samples // 2, env)
        failures = [
            f"run {r} item {i}: {'; '.join(p)}"
            for r, run in enumerate(runs) for i, p in run["failed_items"].items()
        ]
        failures += output_checks(workload, work, reference)
        attempted = sum(run["items"] for run in runs) + 2
        if args.trace:
            names = [m["name"] for m in config["per_layer"]]
            units = {m["name"]: m["unit"] for m in config["per_layer"]}
            metrics = per_layer(runs[0], runs[1], names)
            layers = runs[1]["layers"]
            raw = None
        else:
            names = [m["name"] for m in config["end_to_end"]]
            units = {m["name"]: m["unit"] for m in config["end_to_end"]}
            metrics, raw = end_to_end(runs[0], setups, workload.designs_per_item)
            layers = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts(args)
    print_report(workload, facts, metrics, raw, units, failures, attempted, layers)
    detail = {
        "machine": facts,
        "metrics": metrics,
        "unscaled_metrics": raw,
        "failures": failures,
        "attempted": attempted,
        "setup_phases_s": setups,
        "layers": layers,
        "runs": [{k: v for k, v in run.items() if k != "layers"} for run in runs],
    }
    detail_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_file.write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
