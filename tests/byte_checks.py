"""The output byte checks, with nothing but the package: no pytest, no hypothesis.

Each entry of ``CHECKS`` derives what a golden file pins and returns
``(got, want)``: the seed-42 design and log (``tests/golden/demo_seed42_*``),
and the ``tests/golden/strategy_pairs.json`` hashes of one grammar at one
n_half, read from the files ``run_batch`` writes. ``TestGoldens`` asserts on
every entry; running this file lets an interpreter without the test
packages make the same checks.

Run from the repository root: ``PYTHONPATH=src python tests/byte_checks.py``.
Prints one line per check and exits 1 if any differs.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

from gridgram.canon import sha256_hex
from gridgram.core import GridConfig
from gridgram.generator import (
    POINT_STRATEGIES, RULE_STRATEGIES, GenerationConfig, generate, run_batch, serialize_log,
)
from gridgram.grammar import Grammar, parse_grammar
from gridgram.rulesets import demo_uav_text
from records import replace

GOLDEN = Path(__file__).parent / "golden"


def weighted_demo(demo: Grammar) -> Grammar:
    """The demo rules with unequal weights, so ``weighted`` draws are not uniform."""
    return replace(
        demo,
        rules=tuple(replace(r, weight=1 + (7 * i) % 5) for i, r in enumerate(demo.rules)),
    )


def seed42(kind: str) -> tuple[str, str]:
    """The ``kind`` ("design" or "log") file text of demo seed 42 at n_half 2, and its golden."""
    design, log = generate(parse_grammar(demo_uav_text()), GridConfig(2), GenerationConfig(42))
    text = design.serialize() if kind == "design" else serialize_log(log)
    return text + "\n", (GOLDEN / f"demo_seed42_{kind}.json").read_text()


def strategy_pairs(grammar_name: str, n_half: int) -> tuple[dict, dict]:
    """Design and log hashes of every strategy pair at ``n_half``, and the pinned ones.

    The pinned seeds repeat across pairs, so each pair's batch writes to its
    own directory. An item whose ``design_hash`` is not its design file's
    hash adds a key; a weighted grammar's rule weights are compared too.
    """
    frozen = json.loads((GOLDEN / "strategy_pairs.json").read_text())
    pinned = frozen["grammars"][grammar_name]
    want = {k: v for k, v in pinned.items() if k.startswith(f"{n_half}/")}
    got = {}
    grammar = parse_grammar(demo_uav_text())
    if grammar_name == "weighted_demo":
        grammar = weighted_demo(grammar)
        want["rule weights"] = frozen["weighted_demo rule weights"]
        got["rule weights"] = [r.weight for r in grammar.rules]
    with tempfile.TemporaryDirectory() as tmp:
        for p, r in itertools.product(POINT_STRATEGIES, RULE_STRATEGIES):
            out = Path(tmp) / f"{p}-{r}"
            out.mkdir()
            configs = [GenerationConfig(seed, p, r) for seed in frozen["seeds"]]
            for item in run_batch(grammar, GridConfig(n_half), configs, out_dir=out):
                design, log = (
                    sha256_hex((out / f"{kind}_{item.seed}.json").read_text().removesuffix("\n"))
                    for kind in ("design", "log")
                )
                got[f"{n_half}/{p}/{r}/{item.seed}"] = entry = {"design": design, "log": log}
                if item.design_hash != design:
                    entry["item design_hash"] = item.design_hash
    return got, want


CHECKS = {
    "seed42-design": partial(seed42, "design"),
    "seed42-log": partial(seed42, "log"),
    **{
        f"strategy-pairs-{name}-{n_half}": partial(strategy_pairs, name, n_half)
        for name in ("demo", "weighted_demo")
        for n_half in (3, 5)
    },
}


def main() -> int:
    failed = 0
    for name, check in CHECKS.items():
        got, want = check()
        failed += got != want
        print(f"{'ok' if got == want else 'MISMATCH'}: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
