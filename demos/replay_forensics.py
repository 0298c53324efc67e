"""Prove a derivation log is honest, then catch it lying.

Generates a design, re-derives it from the log alone, and shows that the
verifier pins down the exact step at which a doctored log diverges, even
when the forger recomputes the log hash. A log file verifies only if its
text is byte for byte the log its configs derive, so even an honest log
that was merely re-indented is refused.

    python3 demos/replay_forensics.py --seed 99
"""

from __future__ import annotations

import argparse
import json

from gridgram.canon import canonical_hash
from gridgram.core import GridConfig
from gridgram.generator import (
    DerivationLog,
    GenerationConfig,
    ReplayError,
    generate,
    parse_log,
    serialize_log,
    verify_log,
    verify_log_text,
)
from gridgram.grammar import parse_grammar
from gridgram.rulesets import demo_uav_text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=99)
    args = ap.parse_args()

    grammar = parse_grammar(demo_uav_text())
    design, log = generate(grammar, GridConfig(1), GenerationConfig(seed=args.seed))
    print(f"generated: seed={args.seed}, {len(log.steps)} steps, "
          f"design {design.hash[:16]}...")

    verified = verify_log(log, grammar)
    print(f"honest log: verification reproduces the design "
          f"byte-for-byte: {verified.serialize() == design.serialize()}")

    print("\nnow doctor single fields and watch each forgery get caught:")
    forgeries = [
        ("swap the rule recorded at step 3",
         lambda obj: obj["steps"][3].__setitem__("rule", "cap_front")),
        ("move step 5 to a different grid point",
         lambda obj: obj["steps"][5].__setitem__("point", [0, 0, 0])),
        ("claim a different final design hash",
         lambda obj: obj.__setitem__("design_hash", "0" * 64)),
        ("shave one derivation step off the end",
         lambda obj: obj.__setitem__("steps", obj["steps"][:-1])),
    ]
    for label, doctor in forgeries:
        obj = json.loads(serialize_log(log))
        doctor(obj)
        obj["log_hash"] = "0" * 64  # forger recomputes nothing else
        try:
            verify_log(parse_log(json.dumps(obj)), grammar)
            print(f"  {label}: NOT DETECTED")
        except ReplayError as e:
            where = f" at step {e.step}" if e.step is not None else ""
            print(f"  {label}:\n      caught ({e.kind}{where})")

    def forged(fingerprint: str, gen_config: GenerationConfig, log_hash: str) -> DerivationLog:
        """The honest log's steps, outcome and design hash under other header values."""
        return DerivationLog(
            fingerprint, log.grid_config, gen_config, log.steps, log.outcome,
            log.design_hash, log_hash,
        )

    # Every recorded step is legal; only re-deriving from the seed exposes it.
    reseed = GenerationConfig(seed=args.seed + 1)
    content = json.loads(serialize_log(forged(log.grammar_fingerprint, reseed, log.log_hash)))
    del content["log_hash"]
    reseeded = forged(log.grammar_fingerprint, reseed, canonical_hash(content))
    label = "claim another seed and recompute the log hash"
    try:
        verify_log(reseeded, grammar)
        print(f"  {label}: NOT DETECTED")
    except ReplayError as e:
        print(f"  {label}:\n      caught ({e.kind} at step {e.step})")

    label = "re-indent the honest log (same content, other bytes)"
    try:
        verify_log_text(json.dumps(json.loads(serialize_log(log)), indent=1), grammar)
        print(f"  {label}: NOT DETECTED")
    except ReplayError as e:
        print(f"  {label}:\n      caught ({e.kind})")

    wrong = forged("0" * 64, log.gen_config, log.log_hash)
    try:
        verify_log(wrong, grammar)
        print("  replaying under a different grammar: NOT DETECTED")
    except ReplayError as e:
        print(f"  replaying under a different grammar:\n      caught ({e.kind})")


if __name__ == "__main__":
    main()
