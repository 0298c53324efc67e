"""Timed phase of one benchmark run, in a process of its own.

Usage: measure.py --workload W --seed N --seconds S --work DIR --result FILE
                  [--trace] [--smoke]

Runs items of the workload until ``--seconds`` have passed (and at least the
workload's count prefix is done), then checks every item's output and writes
a JSON result with each item's start, latency and CPU time, and the times
of the reference loop (hostspeed.py) run between items. A fresh process per
run keeps set-up files and earlier runs out of its peak RSS and CPU figures. With ``--trace`` the layer functions are
wrapped (see spans.py) and per-layer figures are added to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import loop_ns  # noqa: E402
from spans import ITEM, Tracer, install, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The reference loop (hostspeed.py) runs between items at about this
# interval, and after the last item, for LOOP_SHARE of the time since it
# last ran.
LOOP_EVERY_NS = 250_000_000
LOOP_SHARE = 0.03
# Span names whose metric is named after the layer rather than the function.
_RENAMED = {"cli.main": "cli.self", ITEM: "item.self"}


def _cpu_ns() -> int:
    """CPU time of this process plus its reaped children (pool workers and
    subprocesses are reaped inside the item that started them)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return round(total * 1e9)


def _loops(started_ns: int, budget_ns: float) -> list[tuple[int, int]]:
    """Reference loops for ``budget_ns``, as (start, duration) in ns since
    ``started_ns``. The budget is split over the CPUs this process may use,
    and the loops run pinned to each in turn (at least once on each): the
    items' processes may run on any of them, and on a shared host one CPU
    can be much slower than another for a while."""
    cpus = os.sched_getaffinity(0)
    out = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            spent, first = 0, len(out)
            while len(out) == first or spent < budget_ns / len(cpus):
                t = time.perf_counter_ns() - started_ns
                out.append((t, loop_ns()))
                spent += out[-1][1]
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    records, latencies_ns, starts_ns, cpu_ns, extra_counts = [], [], [], [], []
    loops = []  # (start, duration) of reference loops, ns
    started_ns = time.perf_counter_ns()
    last_loop_ns = started_ns - LOOP_EVERY_NS
    i = 0
    while i < workload.count_items or time.perf_counter_ns() - started_ns < seconds * 1e9:
        now = time.perf_counter_ns()
        if now - last_loop_ns >= LOOP_EVERY_NS:
            loops += _loops(started_ns, LOOP_SHARE * (now - last_loop_ns))
            last_loop_ns = time.perf_counter_ns()
        if tracer is not None:
            tracer.begin_item(i)
        c0 = _cpu_ns()
        t0 = time.perf_counter_ns()
        record = workload.run_item(i, tracer)
        t1 = time.perf_counter_ns()
        c1 = _cpu_ns()
        if tracer is not None:
            tracer.end_item()
        starts_ns.append(t0 - started_ns)
        latencies_ns.append(t1 - t0)
        cpu_ns.append(c1 - c0)
        if tracer is not None and i < workload.count_items:
            counts = workload.item_counts(i, record)
            if tracer.batch_results:
                counts["generator.run_batch.ipc_bytes"] = sum(
                    len(pickle.dumps(item)) for items in tracer.batch_results for item in items
                )
            extra_counts.append(counts)
        if tracer is not None:
            tracer.batch_results.clear()
        records.append(workload.keep(record))
        i += 1
    loops += _loops(started_ns, LOOP_SHARE * (time.perf_counter_ns() - last_loop_ns))
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "records": records,
        "starts_ns": starts_ns,
        "latencies_ns": latencies_ns,
        "cpu_ns": cpu_ns,
        "loops_ns": loops,
        "extra_counts": extra_counts,
        # ru_maxrss is in KiB on Linux; children: the largest reaped child.
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024,
    }


def layer_metrics(tracer: Tracer, items: int, prefix: int, extra_counts: list) -> dict:
    """Per-item layer figures: times over all items, counts over the prefix."""
    everything = layer_totals(tracer.spans, set(range(items)))
    first = layer_totals(tracer.spans, set(range(prefix)))
    out: dict[str, float] = {}
    self_sum = 0.0
    for name, row in everything.items():
        base = _RENAMED.get(name, name)
        out[f"{base}.ms"] = row["self_ns"] / items / 1e6
        self_sum += row["self_ns"]
    for name, row in first.items():
        base = _RENAMED.get(name, name)
        for key, value in row.items():
            if key not in ("self_ns", "total_ns"):
                out[f"{base}.{key}"] = value / prefix
    out["item.ms"] = everything[ITEM]["total_ns"] / items / 1e6
    out["trace.self_sum.ms"] = self_sum / items / 1e6
    for i in range(prefix):
        for name, n in list(tracer.item_counts[i].items()) + list(extra_counts[i].items()):
            out[name] = out.get(name, 0) + n / prefix
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work, args.smoke)
    tracer = None
    if args.trace:
        worker_dir = args.work / "workers"
        worker_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(worker_dir)
        install(tracer)
    workload.prepare()
    if tracer is not None:
        tracer.discard_workers()
    run = measure(workload, args.seconds, tracer)
    failed = workload.check(run.pop("records"))
    result = {
        **run,
        "items": len(run["latencies_ns"]),
        "failed_items": {str(i): problems for i, problems in sorted(failed.items())},
    }
    extra = result.pop("extra_counts")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["items"], workload.count_items, extra)
        tracer.dump(args.work / "spans.jsonl")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
