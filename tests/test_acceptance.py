"""Release checks for the whole package, one numbered criterion per test.

Each test prints a single ``criterion N: PASS/FAIL (...)`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they happen.
The heavyweight artifacts (the 1000-design benchmark batch and the 100
replayed runs) are built once and shared across the tests that audit them.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import time
from itertools import product

import pytest

from gridgram.cli import main as cli_main
from gridgram.constraint_matcher import (
    DirectionAssignment,
    compose_matches,
    decode_context,
    encode_context,
    optimal_assignment,
    rule_to_contract_union,
    state_to_contract_union,
)
from gridgram.core import Direction, GridConfig, State, Symbol
from gridgram.generator import (
    Design,
    GenerationConfig,
    LogFormatError,
    ReplayError,
    generate,
    parse_log,
    replay,
    run_batch,
    serialize_log,
    validate_design,
    verify_log,
)
from gridgram.grammar import (
    ContextPattern,
    Grammar,
    Production,
    Rule,
    parse_grammar,
    serialize_grammar,
)
from gridgram.rulesets import demo_profile_obj, demo_uav_text
from step_oracle import empty_grid

U, C, E = Symbol.UNOCCUPIED, Symbol.CONNECTOR, Symbol.EMPTY
TERMINAL_CHOICES = (Symbol.FUSELAGE, Symbol.ROTOR, Symbol.WING, Symbol.CONNECTOR, Symbol.EMPTY)
NON_BOUNDARY = tuple(s for s in Symbol if s is not Symbol.BOUNDARY)
ALL_SYMBOLS = tuple(Symbol)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def pat(**by_label) -> ContextPattern:
    """Pattern builder: ego is Unoccupied, unnamed directions default to {U}."""
    sets = [frozenset({U})]
    for d in list(Direction)[1:]:
        sets.append(frozenset(by_label.get(d.label, {U})))
    return ContextPattern(tuple(sets))


def random_pattern(rnd: random.Random, cap: int) -> ContextPattern:
    """Random pattern over the full alphabet with a bounded expansion size."""
    sets = [frozenset({U})]
    size = 1
    for _ in range(6):
        k = rnd.choice((1, 1, 1, 2, 2, 3))
        while size * k > cap and k > 1:
            k -= 1
        chosen = frozenset(rnd.sample(ALL_SYMBOLS, k))
        size *= len(chosen)
        sets.append(chosen)
    return ContextPattern(tuple(sets))


def random_rule(rnd: random.Random, name: str, cap: int = 24) -> Rule:
    omega = tuple(random_pattern(rnd, cap) for _ in range(rnd.choice((1, 1, 2))))
    symbol = rnd.choice(TERMINAL_CHOICES)
    direction = Direction.EGO if symbol is Symbol.EMPTY else rnd.choice(list(Direction))
    return Rule(name, omega, Production(symbol, direction), weight=rnd.choice((1, 2, 3)))


def random_grammar(rnd: random.Random, n_rules: int, cap: int = 24) -> Grammar:
    return Grammar(
        "fuzz", "1", tuple(random_rule(rnd, f"r{i}", cap) for i in range(n_rules))
    )


def random_assignment(rnd: random.Random) -> DirectionAssignment:
    perm = list(range(7))
    rnd.shuffle(perm)
    return DirectionAssignment(tuple(perm))


@pytest.fixture(scope="module")
def demo() -> Grammar:
    return parse_grammar(demo_uav_text())


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("accept") / "demo_uav.json"
    p.write_text(demo_uav_text())
    return str(p)


@pytest.fixture(scope="module")
def bench_run(demo):
    """1000 seeded derivations at n_half=3 with the direct matcher, timed."""
    configs = [GenerationConfig(seed=s) for s in range(1000)]
    started = time.perf_counter()
    items = run_batch(demo, GridConfig(3), configs, want_logs=False)
    elapsed = time.perf_counter() - started
    return items, elapsed


@pytest.fixture(scope="module")
def bench_designs(bench_run):
    """The designs of ``bench_run``, parsed back from their canonical text."""
    return [Design.parse(item.design_text) for item in bench_run[0]]


@pytest.fixture(scope="module")
def replay_runs(demo):
    """100 randomly seeded demo derivations at n_half=2, logs kept."""
    rnd = random.Random(20260815)
    runs = []
    for _ in range(100):
        seed = rnd.getrandbits(64)
        design, log = generate(demo, GridConfig(2), GenerationConfig(seed=seed))
        runs.append((seed, design, log))
    return runs


# -- 10 rules over the reduced {Unoccupied, Connector, Empty} alphabet, with
#    mixed interval shapes: singletons, pairs, full-alphabet entries, multiple
#    patterns per rule, and overlapping patterns.
EQUIV_RULES = (
    Rule("attach_front", (pat(front={C}, rear={U, E}), pat(top={C}, bottom={U, E})),
         Production(Symbol.CONNECTOR, Direction.FRONT)),
    Rule("pair_axis", (pat(front={C, E}, rear={C, E}, top={E}, bottom={E}),),
         Production(Symbol.ROTOR, Direction.EGO)),
    Rule("three_exact", (pat(front={C}), pat(rear={E}), pat(left={C}, right={E})),
         Production(Symbol.EMPTY, Direction.EGO)),
    Rule("side_any", (pat(left={U, C, E}, right={E}), pat(right={U, C, E}, left={E})),
         Production(Symbol.WING, Direction.EGO)),
    Rule("vertical", (pat(top={U, C}, bottom={U, C}, front={E}, rear={E},
                          left={E}, right={E}),),
         Production(Symbol.FUSELAGE, Direction.EGO)),
    Rule("girdle", (pat(front={U, C, E}, rear={U, C, E}, left={E}, right={E},
                        top={E}, bottom={E}),),
         Production(Symbol.EMPTY, Direction.EGO)),
    Rule("lone_or_pair", (pat(), pat(bottom={C, E})),
         Production(Symbol.EMPTY, Direction.EGO)),
    Rule("corner_block", (pat(front={C}, left={C}, rear={U, E}, right={U, E},
                              top={U, E}, bottom={U, E}),),
         Production(Symbol.CONNECTOR, Direction.FRONT)),
    Rule("swap_tops", (pat(top={C}), pat(top={E}, front={C}, rear={C}, left={C},
                                         right={C}, bottom={C})),
         Production(Symbol.ROTOR, Direction.TOP)),
    Rule("spread", (pat(right={U, E}, top={U, E}, bottom={U, E}),),
         Production(Symbol.EMPTY, Direction.EGO)),
)
EQUIV_GRAMMAR = Grammar("equiv10", "1", EQUIV_RULES)


def test_criterion_1_throughput(bench_run, bench_designs, demo_path, capsys):
    items, batch_s = bench_run
    started = time.perf_counter()
    rc = cli_main(["bench", demo_path, "--n-half", "3", "--count", "1000"])
    cli_s = time.perf_counter() - started
    capsys.readouterr()

    profile = demo_profile_obj()
    valid = sum(
        1
        for item, design in zip(items, bench_designs)
        if item.outcome == "complete" and validate_design(design, profile).passed
    )
    ok = rc == 0 and cli_s < 10.0 and batch_s < 10.0 and valid >= 950
    with capsys.disabled():
        report(1, ok, f"bench command {cli_s:.2f}s, library batch {batch_s:.2f}s, "
                      f"{valid}/1000 complete and valid")


def test_criterion_2_grid_point_count():
    failures = []
    for n_half in (0, 1, 2, 3, 5):
        cfg = GridConfig(n_half)
        expected = (2 * n_half + 1) ** 3
        listed = len(list(cfg.points()))
        stored = sum(empty_grid(cfg).counts().values())
        if not (cfg.point_count == listed == stored == expected):
            failures.append(n_half)
    report(2, not failures, "point count is (2n+1)^3 for n in {0,1,2,3,5}"
           if not failures else f"wrong at n_half={failures}")


def test_criterion_3_matcher_equivalence():
    states3 = [State(t) for t in product((U, C, E), repeat=7)]
    assert len(states3) == 2187

    rnd = random.Random(0xA55)
    assignments = [optimal_assignment(EQUIV_GRAMMAR)[0]]
    assignments += [random_assignment(rnd) for _ in range(10)]

    exhaustive = 0
    disagreements = 0
    for assignment in assignments:
        unions = [rule_to_contract_union(r, assignment) for r in EQUIV_RULES]
        for state in states3:
            state_u = state_to_contract_union(state, assignment)
            for rule, rule_u in zip(EQUIV_RULES, unions):
                if compose_matches(state_u, rule_u) != rule.matches(state):
                    disagreements += 1
                exhaustive += 1

    pool = random_grammar(random.Random(0xBEEF), 10)
    pool_assignments = [optimal_assignment(pool)[0],
                        random_assignment(rnd), random_assignment(rnd)]
    pool_unions = {
        (ai, ri): rule_to_contract_union(rule, assignment)
        for ai, assignment in enumerate(pool_assignments)
        for ri, rule in enumerate(pool.rules)
    }
    random_disagreements = 0
    for _ in range(10_000):
        state = State((rnd.choice(NON_BOUNDARY),)
                      + tuple(rnd.choice(ALL_SYMBOLS) for _ in range(6)))
        ri = rnd.randrange(len(pool.rules))
        ai = rnd.randrange(len(pool_assignments))
        state_u = state_to_contract_union(state, pool_assignments[ai])
        if compose_matches(state_u, pool_unions[(ai, ri)]) != pool.rules[ri].matches(state):
            random_disagreements += 1

    ok = disagreements == 0 and random_disagreements == 0 and exhaustive == 2187 * 10 * 11
    report(3, ok, f"{exhaustive} exhaustive + 10000 random comparisons, "
                  f"{disagreements + random_disagreements} disagreements")


def _naive_minimum_intervals(grammar: Grammar) -> int:
    """Brute-force reference: try all 5040 slot orders, count symbol runs.

    Works straight off the packed context keys so it shares no code with the
    encoder it checks.
    """
    contexts = []
    for rule in grammar.rules:
        for key in rule.context_key_set():
            contexts.append(tuple((key >> (3 * d)) & 7 for d in range(7)))
    best = None
    for perm in itertools.permutations(range(7)):
        total = 0
        for syms in contexts:
            slots = [0] * 7
            for d in range(7):
                slots[perm[d]] = syms[d]
            total += 1 + sum(1 for i in range(6) if slots[i] != slots[i + 1])
        if best is None or total < best:
            best = total
    return best


def test_criterion_4_assignment_optimality():
    failures = []
    slowest = 0.0
    for seed in (101, 202, 303, 404, 505):
        rnd = random.Random(seed)
        grammar = random_grammar(rnd, rnd.choice((3, 4, 5)), cap=20)
        started = time.perf_counter()
        _, count = optimal_assignment(grammar)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        naive = _naive_minimum_intervals(grammar)
        if count != naive or elapsed >= 5.0:
            failures.append((seed, count, naive, elapsed))
    report(4, not failures,
           f"5 grammars agree with the 5040-way scan, slowest {slowest:.3f}s"
           if not failures else f"mismatches: {failures}")


def test_criterion_5_determinism_and_tamper_detection(demo, replay_runs):
    mismatched = [
        seed for seed, design, log in replay_runs
        if replay(log, demo).serialize() != design.serialize()
    ]

    _, log = generate(demo, GridConfig(1), GenerationConfig(seed=2))
    base = json.loads(serialize_log(log))

    def leaf_paths(node, prefix=()):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from leaf_paths(v, prefix + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from leaf_paths(v, prefix + (i,))
        else:
            yield prefix, node

    def mutate(value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, str):
            return "x" + value
        return 0  # null leaves: max_steps, unit

    undetected = []
    leaves = list(leaf_paths(base))
    for path, value in leaves:
        tampered = copy.deepcopy(base)
        node = tampered
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = mutate(value)
        try:
            verify_log(parse_log(json.dumps(tampered)), demo)
            undetected.append(path)
        except (LogFormatError, ReplayError):
            pass

    ok = not mismatched and not undetected
    report(5, ok, f"100 replays byte-identical, {len(leaves)}/{len(leaves)} "
                  f"single-field tampers detected"
           if ok else f"replay mismatches {mismatched[:3]}, missed {undetected[:3]}")


def test_criterion_6_termination_and_monotonicity(demo):
    rnd = random.Random(0x60D)
    point_strategies = ("uniform-random-frontier", "scanline", "nearest-to-origin")
    rule_strategies = ("uniform-random", "weighted", "first-match")
    plan = [(1, 500), (2, 300), (3, 200)]
    violations = []
    run = 0
    for n_half, count in plan:
        cfg = GridConfig(n_half)
        bound = cfg.point_count
        for _ in range(count):
            gen = GenerationConfig(
                seed=rnd.getrandbits(64),
                point_strategy=point_strategies[run % 3],
                rule_strategy=rule_strategies[(run // 3) % 3],
            )
            _, log = generate(demo, cfg, gen)
            if len(log.steps) > bound:
                violations.append((n_half, gen.seed, "step bound"))
            # Each step must consume a distinct still-nonterminal point, so
            # the nonterminal count strictly decreases by one per step.
            remaining = set(cfg.points())
            for step in log.steps:
                if step.point not in remaining or step.pre_state.ego is not U:
                    violations.append((n_half, gen.seed, f"step {step.index}"))
                    break
                remaining.remove(step.point)
            run += 1
    report(6, not violations,
           f"1000 derivations within the point-count bound, nonterminals "
           f"strictly decreasing" if not violations else f"violations: {violations[:3]}")


def test_criterion_7_edge_soundness(bench_designs, replay_runs):
    designs = list(bench_designs)
    designs += [design for _, design, _ in replay_runs]
    bad_edges = 0
    edges_seen = 0
    for design in designs:
        nodes = {p for p, _ in design.component_points()}
        for a, b in design.edges():
            edges_seen += 1
            gaps = sorted(abs(a[i] - b[i]) for i in range(3))
            if gaps != [0, 0, 1] or a not in nodes or b not in nodes:
                bad_edges += 1
    report(7, bad_edges == 0 and edges_seen > 0,
           f"{edges_seen} edges across {len(designs)} designs all join "
           f"adjacent component points" if bad_edges == 0
           else f"{bad_edges} bad edges")


def test_criterion_8_round_trips(demo):
    grammar_failures = []
    for i, grammar in enumerate([demo] + [
        random_grammar(random.Random(1000 + i), random.Random(2000 + i).choice((2, 3, 4, 5, 6)))
        for i in range(50)
    ]):
        text = serialize_grammar(grammar)
        reparsed = parse_grammar(text)
        if reparsed != grammar or serialize_grammar(reparsed) != text:
            grammar_failures.append(i)

    rnd = random.Random(0x8E5)
    assignments = [DirectionAssignment.identity()]
    assignments += [random_assignment(rnd) for _ in range(19)]
    codec_failures = 0
    for _ in range(1000):
        ctx = State((rnd.choice(NON_BOUNDARY),)
                    + tuple(rnd.choice(ALL_SYMBOLS) for _ in range(6)))
        for assignment in assignments:
            if decode_context(encode_context(ctx, assignment), assignment) != ctx:
                codec_failures += 1
    ok = not grammar_failures and codec_failures == 0
    report(8, ok, "51 grammar round-trips, 20000 context encode/decode round-trips"
           if ok else f"grammar failures {grammar_failures}, codec failures {codec_failures}")
