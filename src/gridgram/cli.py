"""Command-line front end: generate, replay, validate, lint, assign-dirs, export, bench.

Exit codes: 0 success; 1 a requested check said no (lint errors, failed
validation, failed replay, no assignment to compute); 2 usage or file-access
problems; 3 unparseable input content; 4 a batch worker process died
(``generator.WorkerDiedError``).

Machine-readable results go to standard output (JSON, one object per line
where a command reports per-item results); progress and error text goes to
standard error. Output files are byte-identical across identical invocations,
and each is written whole: to a temp file beside it, then renamed into place
(``generator.write_text``). ``generate`` has every batch process write the
files of the designs it derives (``run_batch``'s ``out_dir``) and prints the
result lines in seed order once the batch is done.

``generate`` accepts ``--matcher direct|contract`` and ignores it: both
names derive through the one compiled match table. ``bench`` times one
batch, which writes no files, and prints one flat JSON summary.

A process imports only what its command runs: ``gridgram.constraint_matcher``
is imported by ``assign-dirs`` alone, and the process pool only by a batch
with more than one worker (see ``run_batch``). So ``generate`` with one
worker, ``replay`` and ``validate`` load neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from gridgram.canon import canonical_json, json_error, load_json
from gridgram.core import MAX_N_HALF, GridConfig
from gridgram.generator import (
    POINT_STRATEGIES,
    RULE_STRATEGIES,
    Design,
    DesignFormatError,
    FileAccessError,
    GenerationConfig,
    LintFailedError,
    LogFormatError,
    ProfileFormatError,
    ReplayError,
    WorkerDiedError,
    os_reason,
    run_batch,
    validate_design,
    verify_log_text,
    write_text,
)
from gridgram.grammar import (
    Grammar,
    GrammarParseError,
    lint_errors,
    lint_grammar,
    parse_grammar,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


class FileDecodeError(Exception):
    """A named input file is not UTF-8 text (unparseable content)."""


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise FileAccessError(f"cannot read {what} {path!r}: {os_reason(e)}") from None
    except UnicodeDecodeError as e:
        raise FileDecodeError(
            f"{what} {path!r} is not UTF-8 text: {e.reason} at byte {e.start}"
        ) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _n_half(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_N_HALF:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_N_HALF}, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def _grammar(text: str) -> Grammar:
    """``parse_grammar(text)``, kept for the last text read.

    The parsed grammar is frozen and keeps its fingerprint, so commands run
    in one process on the same grammar text neither reparse nor rehash it.
    """
    return parse_grammar(text)


def _emit(obj: dict) -> None:
    print(canonical_json(obj))


def cmd_generate(args: argparse.Namespace) -> int:
    grammar = _grammar(_read_text(args.grammar, "grammar file"))
    configs = [
        GenerationConfig(
            seed=args.seed + i,
            point_strategy=args.point_strategy,
            rule_strategy=args.rule_strategy,
        )
        for i in range(args.count)
    ]
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise FileAccessError(
            f"cannot create output directory {args.out_dir!r}: {os_reason(e)}"
        ) from None
    started = time.perf_counter()
    items = run_batch(grammar, GridConfig(args.n_half), configs, out_dir=out_dir)
    for item in items:
        _emit(
            {
                "seed": item.seed,
                "outcome": item.outcome,
                "steps": item.step_count,
                "counts": item.counts,
                "design_hash": item.design_hash,
            }
        )
    elapsed = time.perf_counter() - started
    print(
        f"generated {len(items)} design(s) in {elapsed:.2f}s -> {out_dir}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    text = _read_text(args.log, "log file")
    grammar = _grammar(_read_text(args.grammar, "grammar file"))
    try:
        item = verify_log_text(text, grammar)
    except ReplayError as e:
        print(f"replay failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(
        {
            "verified": True,
            "steps": item.step_count,
            "outcome": item.outcome,
            "design_hash": item.design_hash,
        }
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    design = Design.parse(_read_text(args.design, "design file"))
    profile: dict = {}
    if args.profile is not None:
        text = _read_text(args.profile, "profile file")
        profile = load_json(text, json_error(ProfileFormatError, "profile is not valid JSON"))
        if not isinstance(profile, dict):
            raise ProfileFormatError("profile must be a JSON object")
    report = validate_design(design, profile)
    _emit(report.to_obj())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# Parse-time rejections that are really findings about a rule rather than
# about the file format. ``lint`` reports these instead of treating the
# document as unreadable, so a bad rule exits 1 like any other error finding.
_RULE_INVARIANT_KINDS = frozenset(
    {"ego-not-nonterminal", "empty-with-connection", "production-not-terminal"}
)


def cmd_lint(args: argparse.Namespace) -> int:
    text = _read_text(args.grammar, "grammar file")
    try:
        grammar = _grammar(text)
    except GrammarParseError as e:
        if e.kind not in _RULE_INVARIANT_KINDS:
            raise
        _emit({"level": "error", "code": e.kind, "rule": None, "message": str(e)})
        return EXIT_CHECK_FAILED
    diagnostics = lint_grammar(grammar)
    for d in diagnostics:
        _emit(d.to_obj())
    return EXIT_CHECK_FAILED if lint_errors(diagnostics) else EXIT_OK


def cmd_assign_dirs(args: argparse.Namespace) -> int:
    # The one command that needs the contract module; importing it here
    # keeps it out of every other command's start-up.
    from gridgram.constraint_matcher import EmptyGrammarError, optimal_assignment

    grammar = _grammar(_read_text(args.grammar, "grammar file"))
    try:
        assignment, total = optimal_assignment(grammar)
    except EmptyGrammarError as e:
        print(f"no assignment: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    result = {
        "assignment": assignment.to_obj(),
        "total_intervals": total,
        "bijections_scanned": 5040,
        "rules": len(grammar.rules),
        "contexts": sum(r.context_count() for r in grammar.rules),
    }
    if args.out is not None:
        write_text(Path(args.out), canonical_json(result) + "\n", "output file")
    _emit(result)
    return EXIT_OK


def _dot_text(design: Design) -> str:
    def node(p, s) -> str:
        return f'"{s.label}@({p[0]},{p[1]},{p[2]})"'

    symbol_at = dict(design.component_points())
    lines = ["graph design {"]
    for p, s in symbol_at.items():
        lines.append(f"  {node(p, s)};")
    for a, b in design.edges():
        lines.append(f"  {node(a, symbol_at[a])} -- {node(b, symbol_at[b])};")
    lines.append("}")
    return "\n".join(lines)


def cmd_export(args: argparse.Namespace) -> int:
    design = Design.parse(_read_text(args.design, "design file"))
    if args.format == "dot":
        print(_dot_text(design))
    else:
        print(design.serialize())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    grammar = _grammar(_read_text(args.grammar, "grammar file"))
    configs = [GenerationConfig(seed=args.seed + i) for i in range(args.count)]
    started = time.perf_counter()
    items = run_batch(grammar, GridConfig(args.n_half), configs)
    elapsed = time.perf_counter() - started
    outcomes: dict[str, int] = {}
    for item in items:
        outcomes[item.outcome] = outcomes.get(item.outcome, 0) + 1
    print(f"{len(items)} designs in {elapsed:.2f}s", file=sys.stderr)
    summary = {
        "n_half": args.n_half,
        "count": args.count,
        "seed": args.seed,
        "seconds": round(elapsed, 3),
        "designs_per_second": round(len(items) / elapsed, 1),
        "mean_steps": round(sum(i.step_count for i in items) / len(items), 2),
        "outcomes": outcomes,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gridgram",
        description="Grid-rewriting topology generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run derivations and write designs + logs")
    p.add_argument("grammar")
    p.add_argument("--n-half", type=_n_half, default=3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument(
        "--point-strategy", choices=POINT_STRATEGIES, default="uniform-random-frontier"
    )
    p.add_argument("--rule-strategy", choices=RULE_STRATEGIES, default="uniform-random")
    p.add_argument("--matcher", choices=("direct", "contract"), default="direct")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("replay", help="verify a derivation log against a grammar")
    p.add_argument("log")
    p.add_argument("grammar")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("validate", help="check a design against a profile")
    p.add_argument("design")
    p.add_argument("--profile")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lint", help="report grammar problems")
    p.add_argument("grammar")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "assign-dirs", help="search for the cheapest direction-to-slot bijection"
    )
    p.add_argument("grammar")
    p.add_argument("--out")
    p.set_defaults(func=cmd_assign_dirs)

    p = sub.add_parser("export", help="emit a design as dot or json")
    p.add_argument("design")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bench", help="time one batch of derivations")
    p.add_argument("grammar")
    p.add_argument("--n-half", type=_n_half, default=3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    if "seed" in args and args.seed + args.count > 1 << 64:  # generate and bench
        print("error: seed range exceeds 64 bits", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except FileAccessError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LintFailedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (
        GrammarParseError,
        LogFormatError,
        DesignFormatError,
        ProfileFormatError,
        FileDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except WorkerDiedError as e:
        print(f"internal error: a worker process died: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
