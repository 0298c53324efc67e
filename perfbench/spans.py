"""Span tracing for the benchmark, installed from outside the program.

The traced run wraps public functions of each gridgram module (layer) in
place: the function object is replaced in its home module and in every
gridgram module that imported it by name, so ``generator`` and ``cli`` calls
to ``canonical_json`` are seen too. Nothing is wrapped in an untraced run.

A span is (id, parent, name, item, start_ns, end_ns, attrs); every span of
one item carries that item's number. Spans stay in memory and ``dump`` writes
them out at the end. Hot, tiny functions (``SplitMix64.next_u64``,
``Grid.state_of``, the contract ``match`` closure,
``ContextPattern.context_keys``) only bump a counter, because a span per
call would dominate the traced time.

``run_batch`` forks its workers, which inherit the wrappers. Each worker call
writes its spans and counts to ``worker_dir`` before it returns, and the
parent merges those files into the item that started the batch. Span times
are ``perf_counter_ns``, a system-wide monotonic clock on Linux, so spans
from different processes share one time axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

ITEM = "item"
_WORKER_ID_SHIFT = 40  # worker span ids are (pid << shift) + n


class Tracer:
    """Spans and counters of one process; ``worker_dir`` receives worker spans."""

    def __init__(self, worker_dir: Path | None = None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # counters of the current item
        self.item_counts: dict[int, Counter] = {}
        self.stack: list[int] = []
        self.item: int | None = None
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.worker_dir = worker_dir
        self.batch_results: list = []

    def span(self, name: str, fn, pre=None, post=None, result=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``pre(args)`` runs before the call; ``post(args, value, pre_value)``
        returns a dict of attributes kept with the span; ``result(value)``
        replaces the value handed back to the caller.
        """
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tr._ids)
            stack = tr.stack
            parent = stack[-1] if stack else None
            before = pre(args) if pre is not None else None
            stack.append(sid)
            start = perf_counter_ns()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                span = [sid, parent, name, tr.item, start, end, None]
                tr.spans.append(span)
            if post is not None:
                span[6] = post(args, value, before)
            return value if result is None else result(value)

        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Wrap ``fn`` so that each call adds ``amount(args)`` (default 1) to ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def discard_workers(self) -> None:
        """Drop worker files written before the first item (warm-up calls)."""
        for path in self.worker_dir.glob("worker-*.json"):
            path.unlink()

    def begin_item(self, item: int) -> None:
        self.item = item
        self.counts.clear()
        sid = next(self._ids)
        self.stack.append(sid)
        self._item_start = (sid, perf_counter_ns())

    def end_item(self) -> None:
        sid, start = self._item_start
        end = perf_counter_ns()
        self.stack.pop()
        self.spans.append([sid, None, ITEM, self.item, start, end, None])
        if self.worker_dir is not None:
            for path in sorted(self.worker_dir.glob("worker-*.json")):
                data = json.loads(path.read_text())
                path.unlink()
                self.add_foreign(data["spans"], data["counts"], parent=None, id_base=0)
        self.item_counts[self.item] = Counter(self.counts)
        self.item = None

    def add_foreign(self, spans: list, counts: dict, parent: int | None, id_base: int) -> None:
        """Attach spans and counts recorded in another process to this item.

        Top-level foreign spans hang under ``parent`` (if given); ids are
        shifted by ``id_base`` so they cannot collide with local ones.
        """
        for sid, sparent, name, _item, start, end, attrs in spans:
            sparent = parent if sparent is None else id_base + sparent
            self.spans.append([id_base + sid, sparent, name, self.item, start, end, attrs])
        self.counts.update(counts)

    def dump(self, path: Path) -> None:
        with path.open("w") as f:
            for sid, parent, name, item, start, end, attrs in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "item": item,
                    "start_ns": start, "end_ns": end, "attrs": attrs,
                }) + "\n")


def _replace_everywhere(orig, new) -> None:
    """Point every gridgram module attribute that is ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "gridgram" and not modname.startswith("gridgram."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _len_bytes(_args, value, _pre):
    return {"bytes": len(value)}


def install(tr: Tracer) -> None:
    """Wrap the public layer functions of every gridgram module."""
    from gridgram import canon, cli, constraint_matcher, core, generator, grammar, rng

    def wrap_fn(module, attr, **hooks):
        orig = getattr(module, attr)
        name = f"{module.__name__.removeprefix('gridgram.')}.{attr}"
        _replace_everywhere(orig, tr.span(name, orig, **hooks))

    def wrap_method(cls, attr, name, **hooks):
        setattr(cls, attr, tr.span(name, getattr(cls, attr), **hooks))

    wrap_fn(canon, "canonical_json", post=_len_bytes)
    wrap_fn(canon, "canonical_hash")
    wrap_fn(canon, "sha256_hex")

    rng.SplitMix64.next_u64 = tr.counter("rng.next_u64.calls", rng.SplitMix64.next_u64)
    core.Grid.state_of = tr.counter("core.Grid.state_of.calls", core.Grid.state_of)

    for attr in ("parse_grammar", "lint_grammar", "serialize_grammar"):
        wrap_fn(grammar, attr)

    # Contexts the program enumerates; in the workloads only the contract
    # compile (contract_match_fn) enumerates them, so the count is named after it.
    grammar.ContextPattern.context_keys = tr.counter(
        "constraint_matcher.contract_match_fn.contexts",
        grammar.ContextPattern.context_keys,
        amount=lambda args: args[0].size(),
    )

    wrap_fn(constraint_matcher, "optimal_assignment")
    wrap_fn(
        constraint_matcher, "contract_match_fn",
        result=lambda match: tr.counter("constraint_matcher.match.calls", match),
    )

    G = generator
    wrap_method(G.Engine, "__init__", "generator.Engine.init")
    wrap_method(
        G.Engine, "run", "generator.Engine.run",
        pre=lambda args: len(args[0]._memo),
        post=lambda args, _v, before: {"memo_misses": len(args[0]._memo) - before},
    )
    wrap_method(G.Engine, "to_design", "generator.Engine.to_design")
    wrap_method(G.Engine, "to_log", "generator.Engine.to_log")
    G.Design.hash = property(tr.span("generator.Design.hash", G.Design.hash.fget))
    wrap_method(G.Design, "serialize", "generator.Design.serialize", post=_len_bytes)
    G.Design.parse = classmethod(tr.span("generator.Design.parse", G.Design.parse.__func__))
    wrap_fn(G, "serialize_log", post=_len_bytes)
    for attr in ("parse_log", "replay", "verify_log", "validate_design", "generate"):
        wrap_fn(G, attr)
    wrap_fn(G, "run_batch", post=lambda _a, items, _p: tr.batch_results.append(items))
    G._batch_worker = _worker_entry(tr, G._batch_worker)

    wrap_fn(cli, "main")


def _worker_entry(tr: Tracer, fn):
    """Wrap run_batch's worker function so a forked worker ships its spans home."""
    traced = tr.span("generator.run_batch.worker", fn)
    seq = itertools.count()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pid = os.getpid()
        if pid != tr.pid:
            # First call in a fresh fork: drop the parent's spans and number
            # new ones apart from the parent's. The inherited stack still
            # ends in the parent's run_batch span, which becomes our parent.
            tr.pid = pid
            tr.spans = []
            tr._ids = itertools.count((pid << _WORKER_ID_SHIFT) + 1)
        tr.counts.clear()
        try:
            return traced(*args, **kwargs)
        finally:
            path = tr.worker_dir / f"worker-{pid}-{next(seq)}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"spans": tr.spans, "counts": dict(tr.counts)}))
            tmp.rename(path)
            tr.spans = []

    return wrapper


# -- aggregation -------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[tuple[list, int]]:
    """Each span with its self time: duration minus its children's coverage."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _n, _i, start, end, _a in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (s, (s[5] - s[4]) - _covered(children.get(s[0], []), s[4], s[5]))
        for s in spans
    ]


def layer_totals(spans: list, items: set[int]) -> dict[str, dict[str, float]]:
    """Per span name over ``items``: calls, self and total ns, summed attrs."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_ns in self_times([s for s in spans if s[3] in items]):
        row = out[span[2]]
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["total_ns"] += span[5] - span[4]
        for key, value in (span[6] or {}).items():
            row[key] += value
    return out
