"""The four benchmark workloads, each driven only through gridgram's public calls.

A workload has three parts that run in different processes:

- ``setup`` runs in the orchestrator before anything is timed and writes
  whatever the items read (only ``audit`` needs files);
- ``prepare`` and ``run_item`` run in the measuring process; ``run_item``
  is one user-visible call and everything inside it is timed;
- ``check`` runs in the measuring process after the timed phase and maps
  each item whose exit code, hash or verdict is wrong to its problems.

``reference`` runs a fixed block of items (seed-independent) through the
workload's own path and returns text lines; their digest is pinned in
``reference.json``. ``golden_problems``, run once per benchmark run, checks
that `gridgram generate` reproduces the published seed-42 goldens.

Why these four: generate-logged is the main user path and is dominated by
encoding, hashing and worker IPC; derive-kernel runs the derivation kernel
and nothing else; cold-start is a one-off process and the only place the
contract matcher's start-up shows; audit is the read path (replay and
validate). Each layer dominates one workload and barely runs in another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GRAMMAR = SRC / "gridgram" / "rulesets" / "demo_uav.json"
PROFILE = SRC / "gridgram" / "rulesets" / "demo_profile.json"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_SEED = 42  # tests/golden/demo_seed42_*: n_half 2, default strategies
DESIGNS_PER_CALL = 32  # k of generate-logged's `generate --count k`

PAIRS = [
    (p, r)
    for p in ("uniform-random-frontier", "scanline", "nearest-to-origin")
    for r in ("uniform-random", "weighted", "first-match")
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_text(obj) -> str:
    """Same bytes as gridgram's canonical JSON, computed independently."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def base_seed(seed: int) -> int:
    """First derivation seed of a run, drawn from the workload seed."""
    return random.Random(seed).randrange(1 << 40)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def call_cli(argv: list[str]) -> tuple[int, str]:
    """gridgram.cli.main in-process; returns (exit code, stdout text)."""
    from gridgram import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_generated(out_dir: Path, stdout: str, seeds: list[int]) -> list[str]:
    """Problems with one generate call's files and report lines.

    Every design file must hash to its reported design_hash, and every log
    must hash (without its log_hash field) to its recorded log_hash and
    name the same seed, design hash, step count and outcome.
    """
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return ["stdout is not JSON lines"]
    if [line.get("seed") for line in lines] != seeds:
        return [f"reported seeds differ from {seeds[0]}..{seeds[-1]}"]
    problems = []
    for line in lines:
        seed = line["seed"]
        try:
            design_text = (out_dir / f"design_{seed}.json").read_text()
            log = json.loads((out_dir / f"log_{seed}.json").read_text())
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"seed {seed}: {e}")
            continue
        if sha256(design_text.rstrip("\n")) != line["design_hash"]:
            problems.append(f"seed {seed}: design file does not hash to design_hash")
        recorded = log.pop("log_hash", None)
        if sha256(canonical_text(log)) != recorded:
            problems.append(f"seed {seed}: log does not hash to its log_hash")
        if (
            log.get("design_hash") != line["design_hash"]
            or log.get("generation_config", {}).get("seed") != seed
            or len(log.get("steps", ())) != line["steps"]
            or log.get("outcome") != line["outcome"]
        ):
            problems.append(f"seed {seed}: log disagrees with the report line")
    return problems


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


class Workload:
    name = ""
    count_items = 1  # counts are averaged over this fixed prefix of items
    designs_per_item = 1
    probe = (3, "direct")  # (n_half, matcher) of the set-up probe; n_half 0: no Engine

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed = seed
        self.base = base_seed(seed)
        self.work = work
        self.smoke = smoke

    def setup(self) -> None:
        """Untimed, in the orchestrator: write what the items read."""

    def prepare(self) -> None:
        """Untimed, in the measuring process, before the first item."""

    def run_item(self, i: int, tracer=None):
        raise NotImplementedError

    def keep(self, record):
        """The part of an item's result that check() needs."""
        return record

    def item_counts(self, i: int, record) -> dict:
        """Per-item counts measured by the harness outside the item span."""
        return {}

    def check(self, records: list) -> dict[int, list[str]]:
        raise NotImplementedError

    def reference(self) -> list[str]:
        raise NotImplementedError


def _design_hash_oracle(n_half: int):
    """Design hash per seed from a fresh direct-matcher Engine (default strategies)."""
    from gridgram.core import GridConfig
    from gridgram.generator import Engine, GenerationConfig
    from gridgram.grammar import parse_grammar

    engine = Engine(parse_grammar(GRAMMAR.read_text()), GridConfig(n_half))

    def oracle(seed: int) -> str:
        cells, edges, _steps, _outcome = engine.run(GenerationConfig(seed))
        return engine.to_design(cells, edges).hash

    return oracle


def golden_problems(work: Path) -> list[str]:
    """`gridgram generate` must reproduce the tests/golden/demo_seed42_* bytes."""
    out = work / "golden"
    rc, _ = call_cli([
        "generate", str(GRAMMAR), "--n-half", "2", "--seed", str(GOLDEN_SEED),
        "--count", "1", "--out-dir", str(out),
    ])
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    for kind in ("design", "log"):
        made = (out / f"{kind}_{GOLDEN_SEED}.json").read_text()
        if made != (GOLDEN / f"demo_seed42_{kind}.json").read_text():
            problems.append(f"{kind} bytes differ from tests/golden/demo_seed42_{kind}.json")
    return problems


def _file_digest_lines(out_dir: Path, seeds) -> list[str]:
    return [
        f"{seed} {sha256((out_dir / f'design_{seed}.json').read_text())}"
        f" {sha256((out_dir / f'log_{seed}.json').read_text())}"
        for seed in seeds
    ]


class GenerateLogged(Workload):
    """`gridgram generate --count k` in-process, 2 workers, logs written.

    k = DESIGNS_PER_CALL was chosen from traced runs at k = 8, 32 and 64: at
    32 the per-call start-up (pool fork, grammar parse and lint, Engine
    build in each worker) is under 2% of the traced self time, as in a
    1000-design call, while a 25 s run still times about 30 calls. At k = 8
    it was about 6%, and each worker's fresh memo missed 325 times per design
    against 195 at k = 32 and 142 at k = 64.
    """

    name = "generate-logged"
    count_items = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.designs_per_item = 2 if self.smoke else DESIGNS_PER_CALL

    def prepare(self) -> None:
        os.environ["GRIDGRAM_THREADS"] = str(min(2, os.cpu_count() or 1))
        # Warm-up call: lazy imports and the first pool start are not items.
        warm = self.work / "warm"
        call_cli(self._argv(self.base + (1 << 50), warm))

    def _argv(self, first_seed: int, out_dir: Path) -> list[str]:
        return [
            "generate", str(GRAMMAR), "--n-half", "3", "--seed", str(first_seed),
            "--count", str(self.designs_per_item), "--out-dir", str(out_dir),
        ]

    def _seeds(self, i: int) -> list[int]:
        first = self.base + i * self.designs_per_item
        return list(range(first, first + self.designs_per_item))

    def run_item(self, i: int, tracer=None):
        return call_cli(self._argv(self._seeds(i)[0], self.work / f"i{i}"))

    def item_counts(self, i: int, record) -> dict:
        return {"cli.write.bytes": dir_bytes(self.work / f"i{i}")}

    def check(self, records: list) -> dict[int, list[str]]:
        oracle = _design_hash_oracle(3)
        bad = {}
        for i, (rc, stdout) in enumerate(records):
            problems = [f"exit code {rc}"] if rc != 0 else []
            problems += check_generated(self.work / f"i{i}", stdout, self._seeds(i))
            # The fresh engine re-derives every fourth call's designs.
            if not problems and i % 4 == 0:
                for line in stdout.splitlines():
                    report = json.loads(line)
                    if oracle(report["seed"]) != report["design_hash"]:
                        problems.append(f"seed {report['seed']}: design differs from re-derivation")
            if problems:
                bad[i] = problems
        return bad

    def reference(self) -> list[str]:
        out = self.work / "reference"
        rc, stdout = call_cli([
            "generate", str(GRAMMAR), "--n-half", "3", "--seed", "0",
            "--count", "4", "--out-dir", str(out),
        ])
        return [f"rc {rc}"] + stdout.splitlines() + _file_digest_lines(out, range(4))


class DeriveKernel(Workload):
    """Engine.run + to_design per seed on one warm Engine, n_half 5, no logs."""

    name = "derive-kernel"
    count_items = len(PAIRS)
    probe = (5, "direct")

    def prepare(self) -> None:
        from gridgram.core import GridConfig
        from gridgram.generator import Engine, GenerationConfig
        from gridgram.grammar import parse_grammar

        self.grammar = parse_grammar(GRAMMAR.read_text())
        self.engine = Engine(self.grammar, GridConfig(5))
        self.generation_config = GenerationConfig

    def _config(self, i: int):
        point, rule = PAIRS[i % len(PAIRS)]
        return self.generation_config(
            seed=self.base + i, point_strategy=point, rule_strategy=rule
        )

    def run_item(self, i: int, tracer=None):
        return self._derive(self.engine, i)

    def _derive(self, engine, i: int):
        cells, edges, steps, outcome = engine.run(self._config(i))
        engine.to_design(cells, edges)
        return cells, edges, len(steps), outcome

    def keep(self, record):
        """What check() needs, small: designs are not kept, to spare memory."""
        cells, edges, steps, outcome = record
        return hash((bytes(cells), frozenset(edges))), steps, outcome

    def check(self, records: list) -> dict[int, list[str]]:
        from gridgram.core import GridConfig
        from gridgram.generator import Engine

        fresh = Engine(self.grammar, GridConfig(5))
        bad = {}
        # Every eighth item again on a fresh engine, in reverse order, so
        # that its memo history differs from the measured one.
        for i in reversed(range(0, len(records), 8)):
            if self.keep(self._derive(fresh, i)) != records[i]:
                bad[i] = ["design, step count or outcome differs on a fresh engine"]
        for i, (_h, steps, outcome) in enumerate(records):
            if outcome not in ("complete", "stuck", "step-limit") or steps < 1:
                bad.setdefault(i, []).append(f"outcome {outcome} after {steps} steps")
        return bad

    def reference(self) -> list[str]:
        from gridgram.core import GridConfig
        from gridgram.generator import Engine, GenerationConfig
        from gridgram.grammar import parse_grammar

        engine = Engine(parse_grammar(GRAMMAR.read_text()), GridConfig(5))
        lines = []
        for i, (point, rule) in enumerate(PAIRS):
            cfg = GenerationConfig(seed=i, point_strategy=point, rule_strategy=rule)
            cells, edges, steps, outcome = engine.run(cfg)
            design = engine.to_design(cells, edges)
            lines.append(f"{i} {point} {rule} {len(steps)} {outcome} {design.hash}")
        return lines


class ColdStart(Workload):
    """A fresh `python -m gridgram generate ... --matcher contract` per item."""

    name = "cold-start"
    count_items = 2
    probe = (2, "contract")

    def _argv(self, seed: int, out_dir: Path) -> list[str]:
        return [
            "generate", str(GRAMMAR), "--n-half", "2", "--seed", str(seed),
            "--count", "1", "--matcher", "contract", "--out-dir", str(out_dir),
        ]

    def prepare(self) -> None:
        self.env = subprocess_env()

    def run_item(self, i: int, tracer=None):
        argv = self._argv(self.base + i, self.work / f"i{i}")
        if tracer is None:
            cmd = [sys.executable, "-m", "gridgram", *argv]
        else:
            spans_file = self.work / f"spans-{i}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_main.py")),
                   str(spans_file), *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, check=False)
        if tracer is not None and spans_file.exists():
            data = json.loads(spans_file.read_text())
            tracer.add_foreign(
                data["spans"], data["counts"], parent=tracer.stack[-1], id_base=(i + 1) << 48
            )
        return proc.returncode, proc.stdout

    def item_counts(self, i: int, record) -> dict:
        return {"cli.write.bytes": dir_bytes(self.work / f"i{i}")}

    def check(self, records: list) -> dict[int, list[str]]:
        oracle = _design_hash_oracle(2)
        bad = {}
        for i, (rc, stdout) in enumerate(records):
            seed = self.base + i
            problems = [f"exit code {rc}"] if rc != 0 else []
            problems += check_generated(self.work / f"i{i}", stdout, [seed])
            if not problems and json.loads(stdout)["design_hash"] != oracle(seed):
                problems.append("contract-matcher design differs from the direct matcher's")
            if problems:
                bad[i] = problems
        return bad

    def reference(self) -> list[str]:
        out = self.work / "reference"
        proc = subprocess.run(
            [sys.executable, "-m", "gridgram", *self._argv(GOLDEN_SEED, out)],
            env=subprocess_env(), capture_output=True, text=True, check=False,
        )
        return [f"rc {proc.returncode}"] + _file_digest_lines(out, [GOLDEN_SEED])


class Audit(Workload):
    """`gridgram replay` then `gridgram validate` per (log, design) pair."""

    name = "audit"
    count_items = 8
    probe = (0, "direct")
    EDIT_EVERY = 8  # fixture j is edited when j % 8 == 7: a 1/8 share
    EDIT_KINDS = ("rule", "point", "pre_state", "outcome", "seed", "design_hash")

    def __init__(self, *args):
        super().__init__(*args)
        self.fixture_count = 8 if self.smoke else 48
        self.fixtures = self.work / "fixtures"

    def setup(self) -> None:
        from gridgram.generator import Design, validate_design
        from gridgram.grammar import parse_grammar

        os.environ["GRIDGRAM_THREADS"] = str(min(2, os.cpu_count() or 1))
        rc, stdout = call_cli([
            "generate", str(GRAMMAR), "--n-half", "3", "--seed", str(self.base),
            "--count", str(self.fixture_count), "--out-dir", str(self.fixtures),
        ])
        if rc != 0:
            raise RuntimeError(f"fixture generation exited {rc}")
        rule_names = [r.name for r in parse_grammar(GRAMMAR.read_text()).rules]
        profile = json.loads(PROFILE.read_text())
        rng = random.Random(self.seed)
        manifest = []
        for j, line in enumerate(stdout.splitlines()):
            report = json.loads(line)
            seed = report["seed"]
            design = Design.parse((self.fixtures / f"design_{seed}.json").read_text())
            entry = {
                "seed": seed,
                "design_hash": report["design_hash"],
                "valid": validate_design(design, profile).passed,
                "edit": None,
            }
            if j % self.EDIT_EVERY == self.EDIT_EVERY - 1:
                kind = self.EDIT_KINDS[(j // self.EDIT_EVERY) % len(self.EDIT_KINDS)]
                log_path = self.fixtures / f"log_{seed}.json"
                log = json.loads(log_path.read_text())
                _edit_log(log, kind, rng, rule_names)
                log_path.write_text(canonical_text(log) + "\n")
                entry["edit"] = kind
            manifest.append(entry)
        (self.work / "manifest.json").write_text(json.dumps(manifest))

    def prepare(self) -> None:
        self.manifest = json.loads((self.work / "manifest.json").read_text())

    def run_item(self, i: int, tracer=None):
        seed = self.manifest[i % len(self.manifest)]["seed"]
        replayed = call_cli(["replay", str(self.fixtures / f"log_{seed}.json"), str(GRAMMAR)])
        validated = call_cli([
            "validate", str(self.fixtures / f"design_{seed}.json"), "--profile", str(PROFILE),
        ])
        return replayed, validated

    def check(self, records: list) -> dict[int, list[str]]:
        bad = {}
        for i, ((rc_r, out_r), (rc_v, out_v)) in enumerate(records):
            entry = self.manifest[i % len(self.manifest)]
            problems = []
            if entry["edit"] is not None:
                if rc_r != 1 or out_r:
                    problems.append(f"log with a {entry['edit']} edit not rejected (exit {rc_r})")
            elif rc_r != 0 or json.loads(out_r).get("design_hash") != entry["design_hash"]:
                problems.append(f"genuine log not verified (exit {rc_r})")
            if rc_v != (0 if entry["valid"] else 1) or json.loads(out_v)["passed"] != entry["valid"]:
                problems.append(f"validate verdict wrong (exit {rc_v})")
            if problems:
                bad[i] = problems
        return bad

    def reference(self) -> list[str]:
        log, design = GOLDEN / "demo_seed42_log.json", GOLDEN / "demo_seed42_design.json"
        lines = []
        for argv in (["replay", str(log), str(GRAMMAR)],
                     ["validate", str(design), "--profile", str(PROFILE)]):
            rc, stdout = call_cli(argv)
            lines += [f"rc {rc}", stdout.rstrip("\n")]
        return lines


def _edit_log(log: dict, kind: str, rng: random.Random, rule_names: list[str]) -> None:
    """One single-field edit; the log is deliberately not rehashed."""
    step = log["steps"][rng.randrange(len(log["steps"]))]
    if kind == "rule":
        step["rule"] = rng.choice([n for n in rule_names if n != step["rule"]])
    elif kind == "point":
        axis = rng.randrange(3)
        step["point"][axis] += 1 if step["point"][axis] < 0 else -1
    elif kind == "pre_state":
        d = rng.randrange(1, 7)
        step["pre_state"][d] = "Empty" if step["pre_state"][d] != "Empty" else "Rotor"
    elif kind == "outcome":
        log["outcome"] = "stuck" if log["outcome"] != "stuck" else "complete"
    elif kind == "seed":
        log["generation_config"]["seed"] += 1
    else:
        h = log["design_hash"]
        log["design_hash"] = ("0" if h[0] != "0" else "1") + h[1:]


WORKLOADS = {w.name: w for w in (GenerateLogged, DeriveKernel, ColdStart, Audit)}
