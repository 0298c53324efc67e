"""Look inside the interval-contract rule encoding.

Shows how a single rule becomes a union of assume-guarantee members and how
the choice of direction-to-slot bijection changes the number of interval
constraints. Derivations do not compose contracts: ``--matcher contract``
derives through the same compiled match table as the direct matcher, so the
last section runs one derivation for both names. What holds the contract semantics
to the direct matcher is acceptance criterion 3
(``tests/test_acceptance.py::test_criterion_3_matcher_equivalence``), which
checks ``compose_matches`` against ``Rule.matches``.

    python3 demos/contract_backends.py
"""

from __future__ import annotations

import time

from gridgram.constraint_matcher import (
    DirectionAssignment,
    constraint_count,
    contract_text,
    interval_total,
    optimal_assignment,
    rule_to_contract_union,
)
from gridgram.core import GridConfig, State, Symbol
from gridgram.generator import GenerationConfig, generate
from gridgram.grammar import parse_grammar
from gridgram.rulesets import demo_uav_text


def main() -> None:
    grammar = parse_grammar(demo_uav_text())
    identity = DirectionAssignment.identity()

    print("rule seed_fuselage as a contract union (identity bijection):")
    union = rule_to_contract_union(grammar.rule_named("seed_fuselage"), identity)
    for line in contract_text(union).splitlines():
        print(f"  {line}")

    rotor = grammar.rule_named("attach_rotor_top")
    rotor_union = rule_to_contract_union(rotor, identity)
    print(f"\nwildcard-heavy rules expand: attach_rotor_top has "
          f"{len(rotor_union.members)} members, one per concrete context")

    print("\nthe bijection shifts interval cost between contexts; a context "
          "that is cheap\nunder one order can be expensive under another:")
    ctx = State.from_labels(
        ("Unoccupied", "Unoccupied", "Unoccupied", "Unoccupied",
         "Unoccupied", "Connector", "Empty")
    )
    best, total_best = optimal_assignment(grammar)
    for name, assignment in (("identity", identity), ("optimal", best)):
        print(f"  {name:9s} {assignment}  -> {constraint_count(ctx, assignment)} "
              f"interval(s) for this context")

    total_identity = interval_total(grammar, identity)
    print(f"\nwhat the search minimizes is the grammar-wide total: "
          f"{total_identity} intervals\nunder identity, {total_best} under the "
          f"optimal bijection")

    # Both --matcher names build the same engine over the same compiled
    # table, so one derivation stands for both.
    print("\none derivation; --matcher direct and --matcher contract both run it:")
    started = time.perf_counter()
    design, _ = generate(grammar, GridConfig(1), GenerationConfig(seed=123))
    elapsed = time.perf_counter() - started
    print(f"  {elapsed * 1e3:7.1f} ms  hash {design.hash[:16]}...")

if __name__ == "__main__":
    main()
