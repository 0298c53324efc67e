"""Derivation engine tests: stepping, logs, replay, validation, batches."""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import os
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgram import canon, generator
from gridgram.canon import encode_log
from gridgram.core import (
    COMPONENTS, NEIGHBOR_DIRECTIONS, TERMINALS, Direction, Grid, GridConfig, State, Symbol,
    neighbor,
)
from gridgram.generator import (
    MAX_WORKERS,
    POINT_STRATEGIES,
    RULE_STRATEGIES,
    BatchItem,
    CheckResult,
    Design,
    DerivationStep,
    Engine,
    GenerationConfig,
    LintFailedError,
    LogFormatError,
    ReplayError,
    generate,
    parse_log,
    resolve_workers,
    run_batch,
    serialize_log,
    shared_engine,
    validate_design,
    verify_log,
    verify_log_text,
)
from gridgram.grammar import (
    ContextPattern, Grammar, Production, Rule, lint_errors, lint_grammar, parse_grammar,
)
from gridgram.rng import SplitMix64
from gridgram.rulesets import demo_uav_text
import byte_checks
import encode_oracle
import log_edits
from records import replace
from step_oracle import Canvas, empty_grid, engine_tables, frontier, step

GOLDEN = Path(__file__).parent / "golden"

EMPTY_GRAMMAR = '{"name":"none","version":"1","rules":[]}'

FILL_GRAMMAR = json.dumps(
    {
        "name": "fill",
        "version": "1",
        "rules": [
            {
                "name": "fill_empty",
                "contexts": [
                    {
                        "ego": "Unoccupied",
                        "front": "*",
                        "rear": "*",
                        "left": "*",
                        "right": "*",
                        "top": "*",
                        "bottom": "*",
                    }
                ],
                "produce": {"symbol": "Empty", "connect": "ego"},
            }
        ],
    }
)

# Fires exactly once, at the (-n,-n,-n) corner, then nothing matches.
CORNER_ONLY_GRAMMAR = json.dumps(
    {
        "name": "corner",
        "version": "1",
        "rules": [
            {
                "name": "mark_corner",
                "contexts": [
                    {
                        "ego": "Unoccupied",
                        "front": "*",
                        "rear": "Boundary",
                        "left": "Boundary",
                        "right": "*",
                        "top": "*",
                        "bottom": "Boundary",
                    }
                ],
                "produce": {"symbol": "Fuselage", "connect": "ego"},
            }
        ],
    }
)


@pytest.fixture(scope="module")
def weighted_demo(demo):
    """The demo rules with the weights ``strategy_pairs.json`` pins."""
    return byte_checks.weighted_demo(demo)


@pytest.fixture(scope="module")
def fill():
    return parse_grammar(FILL_GRAMMAR)


@pytest.fixture(scope="module")
def fill3(fill):
    """Three rules matching every Unoccupied point, weighted 1, 1 and 3."""
    rule = fill.rules[0]
    return replace(
        fill,
        rules=tuple(replace(rule, name=f"fill_{k}", weight=w) for k, w in enumerate((1, 1, 3))),
    )


@pytest.fixture(scope="module")
def corners4():
    """Four rules of weight 1, matching only at the (-n,-n,-n) and (n,n,n) corners."""
    doc = json.loads(CORNER_ONLY_GRAMMAR)
    rule = doc["rules"][0]
    low = rule["contexts"][0]
    high = {**low, "rear": "*", "left": "*", "bottom": "*",
            "front": "Boundary", "right": "Boundary", "top": "Boundary"}
    doc["rules"] = [{**rule, "name": f"corner_{k}", "contexts": [low, high]} for k in range(4)]
    return parse_grammar(json.dumps(doc))


@pytest.fixture(scope="module")
def seed7_run(demo):
    design, log = generate(demo, GridConfig(2), GenerationConfig(seed=7))
    return demo, design, log


@pytest.fixture(scope="module")
def small_log_text(demo):
    _, log = generate(demo, GridConfig(1), GenerationConfig(seed=2))
    return serialize_log(log)


@pytest.fixture(scope="module")
def genuine(demo):
    """The seed-7 demo log that ``log_edits`` doctors, and its canonical text."""
    log = log_edits.seed7_log(demo)
    return log, serialize_log(log)


@pytest.fixture(scope="module")
def seed13_design(demo):
    design, _ = generate(demo, GridConfig(2), GenerationConfig(seed=13))
    return design


def unreachable_rule() -> Grammar:
    """A grammar that fails lint: its one rule has no context."""
    return parse_grammar(json.dumps({"name": "bad", "version": "1", "rules": [
        {"name": "r", "contexts": [], "produce": {"symbol": "Empty", "connect": "ego"}}
    ]}))


def _count_runs(monkeypatch) -> list:
    """Wrap ``Engine.run`` so that each call appends its config to the returned list."""
    runs = []
    run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self, cfg: runs.append(cfg) or run(self, cfg))
    return runs


def _count_builds(monkeypatch) -> list:
    """Wrap ``Engine.__init__`` so that each engine built appends 1 to the returned list."""
    built = []
    init = Engine.__init__
    monkeypatch.setattr(
        Engine, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    return built


@pytest.fixture
def cold():
    """An empty shared-engine slot, so what a test counts does not depend on test order."""
    generator._shared.clear()


_batch_worker = generator._batch_worker


def _worker_requiring_fingerprint(args):
    """``run_batch``'s worker, refusing a grammar that would be hashed again."""
    assert args[0]._fingerprint is not None, "the worker would hash the grammar again"
    return _batch_worker(args)


@st.composite
def lint_clean_grammars(draw) -> Grammar:
    """Random grammars that ``Engine`` accepts.

    1-8 random rules, and 80% of the time an unconditional seed rule at a
    random place among them. Each of a pattern's six neighbor entries is the
    whole alphabet or a random subset of it, except that the entry in the
    direction a production connects to admits components only (which keeps
    the grammar lint-clean). Empty connects at ego; weights are 1, 2, 3 or 7.
    """
    ego = frozenset({Symbol.UNOCCUPIED})
    terminals = st.sampled_from(sorted(TERMINALS))
    weights = st.sampled_from((1, 2, 3, 7))

    def entry(pool):
        return draw(st.just(frozenset(pool)) | st.frozensets(st.sampled_from(pool), min_size=1))

    rules = []
    for i in range(draw(st.integers(1, 8))):
        symbol = draw(terminals)
        edge = Direction.EGO if symbol is Symbol.EMPTY else draw(st.sampled_from(Direction))
        omega = tuple(
            ContextPattern((ego, *(
                entry(sorted(COMPONENTS) if d is edge else tuple(Symbol))
                for d in NEIGHBOR_DIRECTIONS
            )))
            for _ in range(draw(st.integers(1, 2)))
        )
        rules.append(Rule(f"r{i}", omega, Production(symbol, edge), draw(weights)))
    if draw(st.sampled_from((True, True, True, True, False))):
        anything = ContextPattern((ego, *[frozenset(Symbol)] * 6))
        seed_rule = Rule("seed", (anything,), Production(draw(terminals), Direction.EGO),
                         draw(weights))
        rules.insert(draw(st.integers(0, len(rules))), seed_rule)
    return Grammar("random", "1", tuple(rules))


def _written(grammar, grid_config, configs, out_dir: Path):
    """``run_batch`` into the new directory ``out_dir``: its items, and each file's text."""
    out_dir.mkdir()
    items = run_batch(grammar, grid_config, configs, out_dir=out_dir)
    return items, {f.name: f.read_text() for f in out_dir.iterdir()}


class TestGenerationConfig:
    def test_defaults(self):
        cfg = GenerationConfig(seed=7)
        assert cfg.point_strategy == "uniform-random-frontier"
        assert cfg.rule_strategy == "uniform-random"
        assert cfg.max_steps is None

    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": -1},
            {"seed": 1 << 64},
            {"seed": 0, "point_strategy": "random"},
            {"seed": 0, "rule_strategy": "roulette"},
            {"seed": 0, "max_steps": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            GenerationConfig(**kw)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GridConfig(2.0),
            lambda: GridConfig(True),
            lambda: GridConfig("2"),
            lambda: GridConfig(1, unit=1.5),
            lambda: GenerationConfig(seed=1.0),
            lambda: GenerationConfig(seed=True),
            lambda: GenerationConfig(seed="1"),
            lambda: GenerationConfig(seed=0, max_steps=5.0),
            lambda: GenerationConfig(seed=0, max_steps=True),
            lambda: DerivationStep(True, (0, 0, 0), "r", State.from_key(0o5555555)),
            lambda: DerivationStep(0, [0, 0, 0], "r", State.from_key(0o5555555)),
            lambda: DerivationStep(0, (0, 0.0, 0), "r", State.from_key(0o5555555)),
            lambda: DerivationStep(0, (0, 0, 0), 1.5, State.from_key(0o5555555)),
        ],
        ids=[
            "float-n-half", "bool-n-half", "str-n-half", "float-unit",
            "float-seed", "bool-seed", "str-seed", "float-max-steps", "bool-max-steps",
            "bool-step-index", "list-point", "float-coordinate", "float-rule-name",
        ],
    )
    def test_constructors_refuse_non_integers(self, build):
        with pytest.raises(TypeError):
            build()

    def test_obj_round_trip(self):
        cfg = GenerationConfig(
            seed=123, point_strategy="scanline", rule_strategy="weighted", max_steps=9
        )
        assert GenerationConfig.from_obj(cfg.to_obj()) == cfg


class TestFrontier:
    def test_empty_grammar_has_empty_frontier(self):
        g = parse_grammar(EMPTY_GRAMMAR)
        grid = empty_grid(GridConfig(1))
        assert frontier(g, grid) == []

    def test_fill_grammar_frontier_is_every_point(self, fill):
        cfg = GridConfig(1)
        grid = empty_grid(cfg)
        assert frontier(fill, grid) == list(cfg.points())

    def test_demo_initial_frontier_is_the_seed_corner(self, demo):
        grid = empty_grid(GridConfig(2))
        assert frontier(demo, grid) == [(-2, -2, -2)]

    def test_terminal_points_leave_the_frontier(self, fill):
        cfg = GridConfig(1)
        grid = Canvas(cfg, {(0, 0, 0): Symbol.EMPTY}).grid
        pts = frontier(fill, grid)
        assert (0, 0, 0) not in pts
        assert len(pts) == cfg.point_count - 1


class TestStep:
    def test_none_on_empty_frontier(self):
        g = parse_grammar(EMPTY_GRAMMAR)
        canvas = Canvas(GridConfig(1))
        assert step(g, canvas, GenerationConfig(seed=0), SplitMix64(0)) is None

    def test_forced_choice_is_seed_independent(self):
        g = parse_grammar(CORNER_ONLY_GRAMMAR)
        for seed in (0, 1, 999):
            canvas = Canvas(GridConfig(1))
            s = step(g, canvas, GenerationConfig(seed=seed), SplitMix64(seed))
            assert s is not None
            assert s.point == (-1, -1, -1)
            assert s.rule_name == "mark_corner"
            assert canvas.grid.symbol_at((-1, -1, -1)) is Symbol.FUSELAGE
            assert step(g, canvas, GenerationConfig(seed=seed), SplitMix64(seed)) is None

    def test_scanline_first_match_visits_lexicographic_order(self, fill):
        cfg = GridConfig(1)
        canvas = Canvas(cfg)
        gcfg = GenerationConfig(
            seed=5, point_strategy="scanline", rule_strategy="first-match"
        )
        rng = SplitMix64(5)
        visited = []
        i = 0
        while (s := step(fill, canvas, gcfg, rng, index=i)) is not None:
            visited.append(s.point)
            i += 1
        assert visited == list(cfg.points())

    def test_nearest_to_origin_starts_at_center(self, fill):
        canvas = Canvas(GridConfig(1))
        gcfg = GenerationConfig(seed=0, point_strategy="nearest-to-origin")
        s = step(fill, canvas, gcfg, SplitMix64(0))
        assert s.point == (0, 0, 0)


class TestGenerate:
    def test_nearest_to_origin_orders_by_distance_then_point(self, fill):
        cfg = GridConfig(2)
        engine = Engine(fill, cfg)
        gcfg = GenerationConfig(seed=0, point_strategy="nearest-to-origin")
        _, _, raw_steps, _ = engine.run(gcfg)
        pts = list(cfg.points())
        visited = [pts[pi] for pi, _, _ in raw_steps]
        assert visited == sorted(pts, key=lambda p: (sum(c * c for c in p), p))

    def test_empty_grammar_sticks_immediately(self):
        g = parse_grammar(EMPTY_GRAMMAR)
        design, log = generate(g, GridConfig(1), GenerationConfig(seed=0))
        assert log.outcome == "stuck"
        assert log.steps == ()
        assert design.counts()[Symbol.UNOCCUPIED] == 27
        assert verify_log(log, g) == design

    def test_fill_grammar_completes_in_point_count_steps(self, fill):
        cfg = GridConfig(1)
        design, log = generate(fill, cfg, GenerationConfig(seed=11))
        assert log.outcome == "complete"
        assert len(log.steps) == cfg.point_count
        assert design.counts()[Symbol.EMPTY] == cfg.point_count
        assert [s.index for s in log.steps] == list(range(cfg.point_count))

    def test_max_steps_caps_the_derivation(self, fill):
        design, log = generate(
            fill, GridConfig(1), GenerationConfig(seed=3, max_steps=5)
        )
        assert log.outcome == "step-limit"
        assert len(log.steps) == 5
        assert design.counts()[Symbol.UNOCCUPIED] == 22
        assert verify_log(log, fill) == design

    def test_deterministic_strategies_ignore_the_seed(self, demo):
        logs = [
            generate(
                demo,
                GridConfig(1),
                GenerationConfig(
                    seed=seed, point_strategy="scanline", rule_strategy="first-match"
                ),
            )[1]
            for seed in (0, 77)
        ]
        assert logs[0].steps == logs[1].steps
        assert logs[0].design_hash == logs[1].design_hash


class TestEngineTables:
    @pytest.mark.parametrize("n_half", [0, 1, 2, 3, 4])
    def test_tables_equal_the_point_by_point_reference(self, fill, demo, n_half):
        cfg = GridConfig(n_half)
        engine = Engine(fill, cfg)
        base, updates = engine_tables(cfg)
        assert engine._base_keys == base
        assert engine._updates == updates
        # The demo connects in all six directions; each production's offset
        # is the index step to that neighbor (the origin is interior for n_half >= 1).
        engine = Engine(demo, cfg)
        p = (0, 0, 0)
        offsets = {}
        for r, prod in zip(demo.rules, engine._prod):
            d = r.production.direction
            offsets[d] = cfg.index_of(neighbor(p, d)) - cfg.index_of(p)
            assert prod == (int(r.production.symbol), offsets[d])
        assert offsets.keys() == set(Direction)

    @pytest.mark.parametrize(
        "rule, code",
        [
            ({"contexts": [], "produce": {"symbol": "Empty", "connect": "ego"}},
             "unreachable-rule"),
            ({"contexts": [{"ego": "Unoccupied", "front": ["Connector", "Empty"],
                            "rear": "*", "left": "*", "right": "*", "top": "*",
                            "bottom": "*"}],
              "produce": {"symbol": "Rotor", "connect": "front"}},
             "edge-target-not-component"),
        ],
        ids=["unreachable-rule", "edge-target-not-component"],
    )
    def test_engine_refuses_each_error_finding(self, rule, code):
        g = parse_grammar(json.dumps(
            {"name": "bad", "version": "1", "rules": [{"name": "r", **rule}]}
        ))
        with pytest.raises(LintFailedError) as e:
            Engine(g, GridConfig(1))
        assert [d.code for d in e.value.diagnostics] == [code]
        assert lint_errors(lint_grammar(g)) == e.value.diagnostics


class TestEngineMatchesStepLoop:
    """generate() must be observably identical to folding the public step()."""

    def _run_with_step(self, grammar, grid_config, gen_config):
        canvas = Canvas(grid_config)
        rng = SplitMix64(gen_config.seed)
        steps = []
        while gen_config.max_steps is None or len(steps) < gen_config.max_steps:
            s = step(grammar, canvas, gen_config, rng, index=len(steps))
            if s is None:
                break
            steps.append(s)
        return canvas.grid, steps

    def test_rejected_point_draw_is_redrawn(self, fill):
        # This seed's first output, 2**64 - 1, is rejected by below(27); the
        # first point is the second draw mod 27 (cell 22), not cell 24.
        gcfg = GenerationConfig(seed=0x31628AF67B2131AB)
        design, log = generate(fill, GridConfig(1), gcfg)
        assert log.steps[0].point == GridConfig(1).points()[22]
        grid, steps = self._run_with_step(fill, GridConfig(1), gcfg)
        assert design == grid
        assert steps == list(log.steps)

    # With scanline the first draw is the rule draw. Its 2**64 - 1 is rejected
    # by below(3) and by below(5) (the total weight), and would have taken
    # fill_0; the second draw is 1 mod 3 (fill_1) and 3 mod 5 (fill_2).
    @pytest.mark.parametrize(
        "rule_strategy, first_rule", [("uniform-random", "fill_1"), ("weighted", "fill_2")]
    )
    def test_rejected_rule_draw_is_redrawn(self, fill3, rule_strategy, first_rule):
        gcfg = GenerationConfig(
            seed=0x31628AF67B2131AB, point_strategy="scanline", rule_strategy=rule_strategy
        )
        design, log = generate(fill3, GridConfig(1), gcfg)
        assert log.steps[0].rule_name == first_rule
        grid, steps = self._run_with_step(fill3, GridConfig(1), gcfg)
        assert design == grid
        assert steps == list(log.steps)

    # below(n) keeps 2**64 - 1 when n is a power of two: over the two corners
    # and the four rules (total weight 4) every draw site takes the first
    # draw, and the rule of the first row is the second draw's 1 mod 4.
    @pytest.mark.parametrize(
        "point_strategy, rule_strategy, first_point, first_rule",
        [
            ("uniform-random-frontier", "uniform-random", (1, 1, 1), "corner_1"),
            ("scanline", "uniform-random", (-1, -1, -1), "corner_3"),
            ("scanline", "weighted", (-1, -1, -1), "corner_3"),
        ],
    )
    def test_top_draw_is_kept_for_a_power_of_two(
        self, corners4, point_strategy, rule_strategy, first_point, first_rule
    ):
        gcfg = GenerationConfig(
            seed=0x31628AF67B2131AB, point_strategy=point_strategy, rule_strategy=rule_strategy
        )
        design, log = generate(corners4, GridConfig(1), gcfg)
        assert (log.steps[0].point, log.steps[0].rule_name) == (first_point, first_rule)
        grid, steps = self._run_with_step(corners4, GridConfig(1), gcfg)
        assert design == grid
        assert steps == list(log.steps)

    # Rule weights are read only by the weighted strategy, so the weighted
    # copy of the demo grammar is run with that strategy alone.
    @pytest.mark.parametrize(
        "grammar_name, point_strategy, rule_strategy, n_half, max_steps, seed",
        [
            (g, p, r, n_half, max_steps, 11)
            for g, p, r in (
                [("demo", p, r) for p in POINT_STRATEGIES for r in RULE_STRATEGIES]
                + [("weighted_demo", p, "weighted") for p in POINT_STRATEGIES]
            )
            for n_half in (0, 1, 2, 3)
            for max_steps in (None, 1, 40)
        ]
        + [
            ("demo", "uniform-random-frontier", "uniform-random", 2, None, seed)
            for seed in (0, 1, 2, 3, 17, 42, 10**12)
        ]
        + [
            ("demo", "uniform-random-frontier", r, 2, 40, 9)
            for r in ("uniform-random", "weighted")
        ],
    )
    def test_every_strategy_pair_agrees(
        self, request, grammar_name, point_strategy, rule_strategy, n_half, max_steps, seed
    ):
        grammar = request.getfixturevalue(grammar_name)
        gcfg = GenerationConfig(
            seed=seed, point_strategy=point_strategy, rule_strategy=rule_strategy,
            max_steps=max_steps,
        )
        design, log = generate(grammar, GridConfig(n_half), gcfg)
        grid, steps = self._run_with_step(grammar, GridConfig(n_half), gcfg)
        assert isinstance(design, Grid) and design == grid
        assert steps == list(log.steps)

    @pytest.mark.parametrize("grammar_name", ["demo", "weighted_demo"])
    def test_a_warm_engine_derives_as_a_fresh_one(self, request, grammar_name):
        """Point strategies interleave on one engine, whose first run is capped at one step."""
        grammar = request.getfixturevalue(grammar_name)
        grid = GridConfig(2)
        engine = Engine(grammar, grid)
        pairs = itertools.product(RULE_STRATEGIES, POINT_STRATEGIES)
        for k, (r, p) in enumerate(pairs):
            cfg = GenerationConfig(k, p, r, {0: 1, 5: 40}.get(k))
            assert engine.run(cfg) == Engine(grammar, grid).run(cfg)

    @settings(max_examples=4, deadline=None)
    @given(
        grammar=lint_clean_grammars(),
        seed=st.integers(0, (1 << 64) - 10),
        max_steps=st.none() | st.integers(1, 40),
    )
    def test_random_grammars_agree_with_the_oracle(
        self, tmp_path_factory, grammar, seed, max_steps
    ):
        """Every strategy pair at n_half 1 and 2; each written log verifies."""
        assert not lint_errors(lint_grammar(grammar))
        for n_half in (1, 2):
            grid = GridConfig(n_half)
            configs = [
                GenerationConfig(seed + k, p, r, max_steps)
                for k, (p, r) in enumerate(itertools.product(POINT_STRATEGIES, RULE_STRATEGIES))
            ]
            out_dir = tmp_path_factory.mktemp("random") / "out"
            items, files = _written(grammar, grid, configs, out_dir)
            for cfg, item in zip(configs, items):
                design, log = generate(grammar, grid, cfg)
                oracle_grid, oracle_steps = self._run_with_step(grammar, grid, cfg)
                assert design == oracle_grid
                assert list(log.steps) == oracle_steps
                log_text = files[f"log_{cfg.seed}.json"]
                assert log_text == serialize_log(log) + "\n"
                assert verify_log_text(log_text, grammar) == item
                assert (item.design_hash, item.step_count) == (design.hash, len(oracle_steps))


class TestLogTextVerification:
    """``verify_log_text``: one comparison with the canonical re-derivation."""

    def test_genuine_text_gives_the_batch_item(self, demo, genuine, monkeypatch):
        """With or without a newline, and read only as far as its header."""
        log, text = genuine
        (item,) = run_batch(demo, log.grid_config, [log.gen_config])
        assert (item.step_count, item.outcome, item.design_hash) == (
            len(log.steps), log.outcome, log.design_hash
        )
        monkeypatch.setattr(generator, "_document", None)
        for candidate in (text, text + "\n"):
            assert verify_log_text(candidate, demo) == item

    def test_genuine_text_is_derived_once(self, demo, genuine, monkeypatch, cold):
        runs = _count_runs(monkeypatch)
        verify_log_text(genuine[1], demo)
        assert len(runs) == 1

    @pytest.mark.parametrize(
        "edit, verdict",
        [e[1:] for e in log_edits.EDITS],
        ids=[e[0] for e in log_edits.EDITS],
    )
    def test_each_edit_gets_its_kind_and_step(
        self, demo, genuine, edit, verdict, monkeypatch, cold
    ):
        text = edit(genuine[0], demo)
        runs = _count_runs(monkeypatch)
        with pytest.raises(ReplayError) as e:
            verify_log_text(text, demo)
        assert (e.value.kind, e.value.step) == verdict
        # One run, of the configs the log records: the fault is named from it.
        assert runs == [GenerationConfig.from_obj(json.loads(text)["generation_config"])]
        with pytest.raises(ReplayError) as e:
            verify_log(parse_log(text), demo)
        assert (e.value.kind, e.value.step) == verdict

    @pytest.mark.parametrize(
        "render",
        [r for _, r in log_edits.NON_CANONICAL],
        ids=[name for name, _ in log_edits.NON_CANONICAL],
    )
    def test_a_valid_but_non_canonical_text_is_refused(self, demo, genuine, render):
        other = render(genuine[1])
        verify_log(parse_log(other), demo)  # the content is the genuine log's
        with pytest.raises(ReplayError) as e:
            verify_log_text(other, demo)
        assert (e.value.kind, e.value.step) == ("non-canonical", None)

    @pytest.mark.parametrize(
        "edit, verdict",
        [e[1:] for e in log_edits.MISREAD_HEADERS],
        ids=[e[0] for e in log_edits.MISREAD_HEADERS],
    )
    def test_a_misread_header_gets_the_whole_texts_verdict(
        self, demo, genuine, edit, verdict, monkeypatch, cold
    ):
        text = edit(genuine[0], demo)
        runs = _count_runs(monkeypatch)
        if verdict[0] == "format":
            with pytest.raises(LogFormatError) as e:
                verify_log_text(text, demo)
            with pytest.raises(LogFormatError) as whole:
                parse_log(text)
            assert str(e.value) == str(whole.value)
            assert runs == []
            return
        with pytest.raises(ReplayError) as e:
            verify_log_text(text, demo)
        assert (e.value.kind, e.value.step) == verdict
        if verdict[0] != "fingerprint":
            # The last run, which names the fault, is of the configs recorded last.
            assert runs[-1] == GenerationConfig.from_obj(json.loads(text)["generation_config"])
        with pytest.raises(ReplayError) as e:
            verify_log(parse_log(text), demo)
        assert (e.value.kind, e.value.step) == verdict

    def test_malformed_steps_are_refused_before_a_run(self, demo, genuine, monkeypatch, cold):
        """A format error with no run; a grammar that fails lint is still named first."""
        obj = json.loads(genuine[1])
        obj["steps"][0]["extra"] = 0
        runs = _count_runs(monkeypatch)
        with pytest.raises(LogFormatError, match="step keys"):
            verify_log_text(json.dumps(obj), demo)  # spaced: the head does not read
        assert runs == []
        bad = unreachable_rule()
        obj["grammar_fingerprint"] = bad.fingerprint
        with pytest.raises(LintFailedError):
            verify_log_text(json.dumps(obj), bad)

    @pytest.mark.parametrize("name", ["rule", "log_hash"])
    def test_a_rejected_log_builds_one_engine(self, demo, genuine, monkeypatch, cold, name):
        edits = {n: edit for n, edit, _ in log_edits.EDITS}
        built = _count_builds(monkeypatch)
        with pytest.raises(ReplayError):
            verify_log_text(edits[name](genuine[0], demo), demo)
        assert built == [1]
        # A second rejected log of the same grammar and grid builds none.
        other = "log_hash" if name == "rule" else "rule"
        with pytest.raises(ReplayError):
            verify_log_text(edits[other](genuine[0], demo), demo)
        assert built == [1]


class TestSharedEngine:
    """One warm engine per process: the slot changes speed, never results."""

    @staticmethod
    def _warm(grammar, grid_config):
        """Fill the slot's memo with derivations other than the one under test."""
        for s in range(20, 24):
            generate(grammar, grid_config, GenerationConfig(seed=s))

    @pytest.mark.parametrize(
        "edit, verdict",
        [e[1:] for e in log_edits.EDITS],
        ids=[e[0] for e in log_edits.EDITS],
    )
    def test_each_edit_gets_the_same_verdict_cold_and_warm(
        self, demo, genuine, edit, verdict, cold
    ):
        text = edit(genuine[0], demo)
        seen = []
        for _ in range(2):  # cold, then warm with other derivations
            with pytest.raises(ReplayError) as e:
                verify_log_text(text, demo)
            seen.append((e.value.kind, e.value.step))
            self._warm(demo, genuine[0].grid_config)
        assert seen == [verdict, verdict]

    def test_genuine_log_gives_equal_items_cold_and_warm(self, demo, genuine, monkeypatch, cold):
        built = _count_builds(monkeypatch)
        cold_item = verify_log_text(genuine[1], demo)
        self._warm(demo, genuine[0].grid_config)
        assert verify_log_text(genuine[1], demo) == cold_item
        assert built == [1]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_parallel_equals_inline_with_a_cold_or_warm_parent(
        self, demo, monkeypatch, cold, warm
    ):
        grid = GridConfig(1)
        configs = [GenerationConfig(seed=s) for s in range(6)]
        if warm:
            self._warm(demo, grid)
            # Forked workers inherit both the warm engine and this patch, so
            # a worker that built its own engine would fail.
            monkeypatch.setattr(Engine, "__init__", None)
        derived = []  # seeds this process derives; a worker appends to its own copy
        derive = generator._derive

        def recording_derive(grammar, grid_config, slice_, *rest):
            derived.append([cfg.seed for cfg in slice_])
            return derive(grammar, grid_config, slice_, *rest)

        monkeypatch.setattr(generator, "_derive", recording_derive)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        parallel = run_batch(demo, grid, configs)
        assert derived == [[0, 1, 2]]  # the parent derived the first slice itself
        assert list(generator._shared) == [(demo.fingerprint, grid)]
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        assert parallel == run_batch(demo, grid, configs)

    def test_a_foreign_grammar_leaves_a_warm_slot_alone(
        self, demo, genuine, fill, monkeypatch, cold
    ):
        verify_log_text(genuine[1], demo)
        held = dict(generator._shared)
        monkeypatch.setattr(Engine, "__init__", None)
        with pytest.raises(ReplayError) as e:
            verify_log_text(genuine[1], fill)
        assert e.value.kind == "fingerprint"
        assert generator._shared == held

    def test_one_engine_across_grid_sizes(self, demo, monkeypatch, cold):
        built = _count_builds(monkeypatch)
        for n_half in (1, 2, 1):
            _, log = generate(demo, GridConfig(n_half), GenerationConfig(seed=4))
            verify_log_text(serialize_log(log), demo)
            assert list(generator._shared) == [(demo.fingerprint, GridConfig(n_half))]
        assert built == [1, 1, 1]

    def test_a_failed_build_is_not_kept(self, demo, cold):
        generate(demo, GridConfig(1), GenerationConfig(seed=0))
        with pytest.raises(LintFailedError):
            generate(unreachable_rule(), GridConfig(1), GenerationConfig(seed=0))
        assert generator._shared == {}

    def test_engine_never_returns_the_shared_instance(self, demo, cold):
        shared = shared_engine(demo, GridConfig(1))
        shared.run(GenerationConfig(seed=0))
        fresh = Engine(demo, GridConfig(1))
        assert fresh is not shared and fresh._memo == {} and shared._memo
        assert shared_engine(demo, GridConfig(1)) is shared

    def test_the_key_is_the_fingerprint_and_the_whole_grid_config(self, demo, cold):
        shared = shared_engine(demo, GridConfig(1))
        assert shared_engine(parse_grammar(demo_uav_text()), GridConfig(1)) is shared
        assert shared_engine(demo, GridConfig(1, unit="1m")) is not shared


class TestDesignSerialization:
    def test_its_own_encoding_is_not_dumped_again(self, seed13_design, monkeypatch):
        monkeypatch.setattr(generator, "compact_json", None)
        text = seed13_design.serialize()
        assert Design.parse(text) == Design.parse(text + "\n") == seed13_design

    @pytest.mark.parametrize(
        "render",
        [r for _, r in log_edits.NON_CANONICAL],
        ids=[name for name, _ in log_edits.NON_CANONICAL],
    )
    def test_other_renderings_parse_to_the_same_design(self, seed13_design, render):
        # Only the content is checked: the text need not be the canonical one.
        assert Design.parse(render(seed13_design.serialize())) == seed13_design

    def test_cells_text_letters(self):
        canvas = Canvas(GridConfig(1), {(0, 0, 0): Symbol.FUSELAGE})
        text = Design(GridConfig(1), canvas.cells, canvas.edges).cells_text()
        assert len(text) == 27
        assert text[13] == "F"
        assert set(text) == {"F", "U"}


# A fuselage at the origin joined to a connector in front of it.
LINKED_PAIR = (
    {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.CONNECTOR},
    (((0, 0, 0), (1, 0, 0)),),
)


class TestValidateDesign:
    def _design(self, symbols=None, edges=()):
        canvas = Canvas(GridConfig(1), symbols, edges)
        return Design(GridConfig(1), canvas.cells, canvas.edges)

    def test_empty_profile_always_passes(self):
        report = validate_design(self._design(), {})
        assert report.passed and report.checks == ()

    def test_incomplete_fails_complete_check(self):
        report = validate_design(self._design(), {"require_complete": True})
        assert not report.passed
        assert [c.check for c in report.failures()] == ["complete"]

    @pytest.mark.parametrize(
        "flags, failed",
        [
            (["require_connected", "forbid_isolated"], {"connected", "no-isolated"}),
            (["require_connected"], {"connected"}),
        ],
    )
    def test_disconnected_components_fail(self, flags, failed):
        report = validate_design(
            self._design({(-1, -1, -1): Symbol.FUSELAGE, (1, 1, 1): Symbol.ROTOR}),
            dict.fromkeys(flags, True),
        )
        assert {c.check for c in report.failures()} == failed

    def test_no_component_points_are_connected(self):
        report = validate_design(self._design(), {"require_connected": True})
        assert report.checks == (
            CheckResult("connected", True, "0 of 0 component point(s) in one component"),
        )

    def test_single_node_is_connected_and_not_isolated(self):
        report = validate_design(
            self._design({(0, 0, 0): Symbol.FUSELAGE}),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert report.passed

    def test_linked_pair_passes(self):
        report = validate_design(
            self._design(*LINKED_PAIR),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert report.passed

    def test_count_bounds(self):
        d = self._design(*LINKED_PAIR)
        ok = validate_design(
            d, {"counts": {"Fuselage": [1, 1], "Rotor": [None, 0]}}
        )
        assert ok.passed
        bad = validate_design(d, {"counts": {"Rotor": [2, None]}})
        assert not bad.passed
        assert bad.failures()[0].check == "count:Rotor"


class TestRunBatch:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_repeated_seeds_under_out_dir_are_refused(
        self, demo, monkeypatch, tmp_path, workers
    ):
        # Two different designs of seed 5: the second would overwrite the first's files.
        # Seed 4 comes first, so the message must name the seed that repeats.
        configs = [
            GenerationConfig(4), GenerationConfig(5, "scanline", "first-match"),
            GenerationConfig(5),
        ]
        runs = _count_runs(monkeypatch)
        monkeypatch.setenv("GRIDGRAM_THREADS", workers)
        with pytest.raises(ValueError, match="seed 5 repeats"):
            run_batch(demo, GridConfig(2), configs, out_dir=tmp_path)
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    def test_workers_receive_the_grammar_already_hashed(self, monkeypatch):
        grammar = parse_grammar(demo_uav_text())  # fingerprint not read yet
        monkeypatch.setattr(generator, "_batch_worker", _worker_requiring_fingerprint)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        configs = [GenerationConfig(seed=s) for s in range(2)]
        items = run_batch(grammar, GridConfig(1), configs)
        assert [i.seed for i in items] == [0, 1]

    def test_starts_one_process_per_slice(self, demo, monkeypatch):
        started = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recording_pool(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setenv("GRIDGRAM_THREADS", "4")
        configs = [GenerationConfig(seed=s) for s in range(5)]
        items = run_batch(demo, GridConfig(1), configs)
        assert started == [2]  # slices of 2 (this process), 2 and 1 config
        assert [i.seed for i in items] == list(range(5))

    def test_duplicate_seeds_keep_input_order(self, demo, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        configs = [GenerationConfig(seed=s) for s in (5, 5, 3)]
        items = run_batch(demo, GridConfig(1), configs)
        assert [i.seed for i in items] == [5, 5, 3]
        assert items[0] == items[1]

    def test_without_out_dir_no_log_is_encoded_or_written(self, demo, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Engine, "log_text", None)
        items = run_batch(demo, GridConfig(1), [GenerationConfig(seed=1)])
        assert items[0].step_count > 0
        assert list(tmp_path.iterdir()) == []

    def test_empty_batch(self, demo, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "4")
        assert run_batch(demo, GridConfig(1), []) == []

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "5")
        assert resolve_workers() == 5
        monkeypatch.setenv("GRIDGRAM_THREADS", "0")
        assert resolve_workers() == 1
        monkeypatch.setenv("GRIDGRAM_THREADS", "junk")
        assert resolve_workers() == min(os.cpu_count() or 1, MAX_WORKERS)
        monkeypatch.setenv("GRIDGRAM_THREADS", "100000")
        assert resolve_workers() == MAX_WORKERS


class TestBoundedMemory:
    """What a batch keeps does not grow with the number of designs it makes."""

    def test_a_batch_item_carries_no_texts(self, demo):
        assert BatchItem._fields == (
            "seed", "design_hash", "counts", "step_count", "outcome",
        )
        items = run_batch(demo, GridConfig(3), [GenerationConfig(seed=s) for s in range(200)])
        # A design text alone is about 6 KB at n_half 3; the dataclass items were 213.3 B.
        assert sum(len(pickle.dumps(item)) for item in items) / len(items) <= 213.3

    def test_pre_state_fragment_tables_stay_bounded(self, demo, monkeypatch, tmp_path):
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        configs = [GenerationConfig(seed=s) for s in range(200)]
        _, files = _written(demo, GridConfig(3), configs, tmp_path / "out")
        steps = [
            step for name, text in files.items() if name.startswith("log_")
            for step in json.loads(text)["steps"]
        ]
        pre_states = {tuple(step["pre_state"]) for step in steps}
        # More distinct pre-states than the two tables can hold together.
        assert len(pre_states) > 512 + 4096
        head, tail = canon.state_labels()
        assert (len(head), len(tail)) == (512, 4096)

    def test_equal_memo_values_are_one_tuple(self, demo, cold):
        engine = shared_engine(demo, GridConfig(3))
        for seed in range(50):
            engine.run(GenerationConfig(seed=seed))
        values = list(engine._memo.values())
        assert len(values) > 10 * len(set(values))
        assert len({id(v) for v in values}) == len(set(values))


_ODD_UNIT = 'a"b\\c-\u00b5m-\u7ffc'


class TestEncodersMatchOracle:
    """Design and log text, and both hashes, equal the object-based encoding."""

    @pytest.mark.parametrize(
        "n_half, unit", [(0, None), (1, _ODD_UNIT), (2, None), (3, _ODD_UNIT)]
    )
    def test_bytes_equal_the_oracle(self, demo, monkeypatch, tmp_path, n_half, unit):
        grid = GridConfig(n_half, unit)
        # Two configs per (pair, max_steps), each with its own seed, so that
        # no two configs write the same files.
        configs = [
            GenerationConfig(n_half + 1000 * k, point, rule, max_steps)
            for k, (point, rule, max_steps, _) in enumerate(
                itertools.product(POINT_STRATEGIES, RULE_STRATEGIES, (None, 1, 7), range(2))
            )
        ]
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        inline, files = _written(demo, grid, configs, tmp_path / "inline")
        assert len(files) == 2 * len(configs)  # a design and a log per seed, nothing else
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        assert _written(demo, grid, configs, tmp_path / "parallel") == (inline, files)
        for cfg, item in zip(configs, inline):
            design, log = generate(demo, grid, cfg)
            expected_design = encode_oracle.design_text(design)
            expected_log = encode_oracle.log_text(log)
            assert log.log_hash == encode_oracle.log_hash(log)
            assert log.design_hash == encode_oracle.design_hash(design)
            assert design.serialize() == expected_design
            assert design.hash == encode_oracle.design_hash(design)
            assert serialize_log(log) == expected_log
            design_text = files[f"design_{cfg.seed}.json"]
            assert Design.parse(design_text) == design
            assert design_text == expected_design + "\n"
            assert files[f"log_{cfg.seed}.json"] == expected_log + "\n"
            assert item.design_hash == log.design_hash
            assert item.counts == {s.label: n for s, n in design.counts().items()}

    def test_log_hash_is_computed_only_when_not_given(self, seed7_run):
        _, _, log = seed7_run
        obj = encode_oracle.log_obj(log)
        # Step k's point and rule are entry k of the two lists.
        fields = (
            log.grammar_fingerprint, log.grid_config, obj["generation_config"],
            log.outcome, log.design_hash,
            [(s.index, (k, k, s.pre_state.key)) for k, s in enumerate(log.steps)],
            [",".join(map(str, s["point"])) for s in obj["steps"]],
            [json.dumps(s["rule"]) for s in obj["steps"]],
        )
        assert encode_log(*fields) == encode_oracle.log_text(log)
        recorded = replace(log, log_hash="f" * 64)
        assert encode_log(*fields, recorded.log_hash) == encode_oracle.log_text(recorded)

    def test_recorded_strings_are_escaped_like_the_oracle(self, small_log_text):
        log = replace(
            parse_log(small_log_text),
            grammar_fingerprint=_ODD_UNIT,
            log_hash=(_ODD_UNIT * 8)[:64],
        )
        assert serialize_log(log) == encode_oracle.log_text(log)


class TestGoldens:
    """Frozen artifacts: the demo's seed-42 derivation and the strategy-pair hashes."""

    @pytest.mark.parametrize("name", list(byte_checks.CHECKS))
    def test_golden_bytes_and_hashes_are_stable(self, monkeypatch, name):
        """The seed-42 goldens and the ``strategy_pairs.json`` hashes (``byte_checks``)."""
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        got, want = byte_checks.CHECKS[name]()
        assert got == want

    def test_golden_log_verifies_against_golden_design(self, demo):
        log = parse_log((GOLDEN / "demo_seed42_log.json").read_text())
        design = Design.parse((GOLDEN / "demo_seed42_design.json").read_text())
        assert verify_log(log, demo) == design
