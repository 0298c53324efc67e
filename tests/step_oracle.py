"""Reference derivation step: the rewrite semantics written plainly over core.Grid.

Tests fold ``step`` and check that ``Engine.run`` derives exactly the same
steps and grid. It rescans the whole grid every step, so it stays out of the
package.
"""

from __future__ import annotations

from gridgram.core import Grid, NONTERMINALS, Point
from gridgram.generator import DerivationStep, GenerationConfig
from gridgram.grammar import Grammar, Rule, applicable_rules, apply_production
from gridgram.rng import SplitMix64


def frontier(grammar: Grammar, grid: Grid) -> list[Point]:
    """Rewritable points with at least one matching rule, lexicographic order."""
    out = []
    for p in grid.points():
        if grid.symbol_at(p) in NONTERMINALS and applicable_rules(grammar, grid, p):
            out.append(p)
    return out


def _choose_point(points: list[Point], strategy: str, rng: SplitMix64) -> Point:
    if strategy == "uniform-random-frontier":
        return points[rng.below(len(points))]
    if strategy == "scanline":
        return points[0]
    return min(points, key=lambda p: (p[0] * p[0] + p[1] * p[1] + p[2] * p[2], p))


def _choose_rule(rules: list[Rule], strategy: str, rng: SplitMix64) -> Rule:
    if strategy == "uniform-random":
        return rules[rng.below(len(rules))]
    if strategy == "weighted":
        return rules[rng.choice_index([r.weight for r in rules])]
    return rules[0]


def step(
    grammar: Grammar,
    grid: Grid,
    gen_config: GenerationConfig,
    rng: SplitMix64,
    index: int = 0,
) -> DerivationStep | None:
    """One derivation step, mutating ``grid``; None when the frontier is empty.

    generate() is exactly a loop over this selection semantics (the batch
    engine is an optimized equivalent; tests hold them to the same outputs).
    """
    points = frontier(grammar, grid)
    if not points:
        return None
    p = _choose_point(points, gen_config.point_strategy, rng)
    pre = grid.state_of(p)
    rules = [r for r in grammar.rules if r.matches(pre)]
    rule = _choose_rule(rules, gen_config.rule_strategy, rng)
    apply_production(grid, p, rule)
    return DerivationStep(index=index, point=p, rule_name=rule.name, pre_state=pre)
