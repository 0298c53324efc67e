"""Derivation engine tests: stepping, logs, replay, validation, batches."""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgram import generator
from gridgram.canon import canonical_json, encode_log, sha256_hex
from gridgram.core import Direction, Grid, GridConfig, State, Symbol, neighbor
from gridgram.generator import (
    MAX_WORKERS,
    POINT_STRATEGIES,
    RULE_STRATEGIES,
    Design,
    DesignFormatError,
    DerivationLog,
    DerivationStep,
    Engine,
    GenerationConfig,
    LintFailedError,
    LogFormatError,
    ProfileFormatError,
    ReplayError,
    generate,
    parse_log,
    replay,
    resolve_workers,
    run_batch,
    serialize_log,
    shared_engine,
    validate_design,
    verify_log,
    verify_log_text,
)
from gridgram.grammar import lint_errors, lint_grammar, parse_grammar
from gridgram.rng import SplitMix64
from gridgram.rulesets import demo_profile_obj, demo_uav_text
import encode_oracle
import log_edits
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
def demo():
    return parse_grammar(demo_uav_text())


@pytest.fixture(scope="module")
def weighted_demo(demo):
    """The demo rules with unequal weights, so ``weighted`` draws are not uniform."""
    return replace(
        demo,
        rules=tuple(replace(r, weight=1 + (7 * i) % 5) for i, r in enumerate(demo.rules)),
    )


@pytest.fixture(scope="module")
def fill():
    return parse_grammar(FILL_GRAMMAR)


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


def _reconfigured(log, **changes):
    return replace(log, gen_config=replace(log.gen_config, **changes))


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


def _to_float(values, i):
    values[i] = float(values[i])


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

    def test_same_config_is_byte_identical(self, demo):
        cfg = GenerationConfig(seed=42)
        d1, l1 = generate(demo, GridConfig(2), cfg)
        d2, l2 = generate(demo, GridConfig(2), cfg)
        assert serialize_log(l1) == serialize_log(l2)
        assert d1 == d2 and d1.hash == d2.hash

    def test_different_seeds_differ(self, demo):
        _, l1 = generate(demo, GridConfig(2), GenerationConfig(seed=0))
        _, l2 = generate(demo, GridConfig(2), GenerationConfig(seed=1))
        assert l1.steps != l2.steps

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

    def test_demo_run_is_complete_valid_and_sound(self, demo):
        design, log = generate(demo, GridConfig(2), GenerationConfig(seed=42))
        assert log.outcome == "complete"
        assert design.counts()[Symbol.FUSELAGE] == 1
        assert validate_design(design, demo_profile_obj()).passed
        assert design.audit() == []
        assert log.steps[0].rule_name == "seed_fuselage"
        assert log.steps[0].point == (-2, -2, -2)

    def test_lint_errors_block_generation(self):
        text = json.dumps(
            {
                "name": "bad",
                "version": "1",
                "rules": [
                    {
                        "name": "no_context",
                        "contexts": [],
                        "produce": {"symbol": "Empty", "connect": "ego"},
                    }
                ],
            }
        )
        g = parse_grammar(text)
        with pytest.raises(LintFailedError) as e:
            generate(g, GridConfig(1), GenerationConfig(seed=0))
        assert any(d.code == "unreachable-rule" for d in e.value.diagnostics)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_any_seed_obeys_step_bound_and_monotonicity(self, demo, seed):
        cfg = GridConfig(1)
        design, log = generate(demo, cfg, GenerationConfig(seed=seed))
        assert len(log.steps) <= cfg.point_count
        remaining = cfg.point_count
        for s in log.steps:
            assert s.pre_state.ego is Symbol.UNOCCUPIED
            remaining -= 1
        assert design.counts()[Symbol.UNOCCUPIED] == cfg.point_count - len(log.steps)


# sha256 of `gridgram lint` on the demo grammar: 170 lines, no errors.
DEMO_LINT_SHA256 = "2b7d824f0fd67a0af3202fd07ab4d694000649d8872efe8220ecda8d76d4441a"


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

    def test_demo_lint_findings_are_unchanged(self, demo):
        text = "".join(canonical_json(d.to_obj()) + "\n" for d in lint_grammar(demo))
        assert sha256_hex(text) == DEMO_LINT_SHA256


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 42, 10**12])
    def test_demo_engine_equals_step_loop(self, demo, seed):
        gcfg = GenerationConfig(seed=seed)
        design, log = generate(demo, GridConfig(2), gcfg)
        grid, steps = self._run_with_step(demo, GridConfig(2), gcfg)
        assert isinstance(design, Grid) and design == grid
        assert steps == list(log.steps)

    @pytest.mark.parametrize("rule_strategy", ["uniform-random", "weighted"])
    def test_strategies_agree_too(self, demo, rule_strategy):
        gcfg = GenerationConfig(seed=9, rule_strategy=rule_strategy, max_steps=40)
        design, log = generate(demo, GridConfig(2), gcfg)
        grid, steps = self._run_with_step(demo, GridConfig(2), gcfg)
        assert isinstance(design, Grid) and design == grid
        assert steps == list(log.steps)

    def test_rejected_point_draw_is_redrawn(self, fill):
        # This seed's first output, 2**64 - 1, is rejected by below(27); the
        # first point is the second draw mod 27 (cell 22), not cell 24.
        gcfg = GenerationConfig(seed=0x31628AF67B2131AB)
        design, log = generate(fill, GridConfig(1), gcfg)
        assert log.steps[0].point == GridConfig(1).points()[22]
        grid, steps = self._run_with_step(fill, GridConfig(1), gcfg)
        assert design == grid
        assert steps == list(log.steps)

    # Rule weights are read only by the weighted strategy, so the weighted
    # copy of the demo grammar is run with that strategy alone.
    @pytest.mark.parametrize("max_steps", [None, 1, 40])
    @pytest.mark.parametrize("n_half", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "grammar_name, point_strategy, rule_strategy",
        [("demo", p, r) for p in POINT_STRATEGIES for r in RULE_STRATEGIES]
        + [("weighted_demo", p, "weighted") for p in POINT_STRATEGIES],
    )
    def test_every_strategy_pair_agrees(
        self, request, grammar_name, point_strategy, rule_strategy, n_half, max_steps
    ):
        grammar = request.getfixturevalue(grammar_name)
        gcfg = GenerationConfig(
            seed=11, point_strategy=point_strategy, rule_strategy=rule_strategy,
            max_steps=max_steps,
        )
        design, log = generate(grammar, GridConfig(n_half), gcfg)
        grid, steps = self._run_with_step(grammar, GridConfig(n_half), gcfg)
        assert isinstance(design, Grid) and design == grid
        assert steps == list(log.steps)


class TestReplayAndVerify:
    def test_verify_round_trip_through_text(self, seed7_run):
        demo, design, log = seed7_run
        again = parse_log(serialize_log(log))
        assert verify_log(again, demo) == design

    def test_wrong_grammar_is_a_fingerprint_error(self, seed7_run, fill):
        _, _, log = seed7_run
        with pytest.raises(ReplayError) as e:
            replay(log, fill)
        assert e.value.kind == "fingerprint"

    @staticmethod
    def _tamper_step(log, i, **kw):
        steps = list(log.steps)
        steps[i] = replace(steps[i], **kw)
        return replace(log, steps=tuple(steps))

    def test_index_tamper_reports_the_step(self, seed7_run):
        demo, _, log = seed7_run
        bad = self._tamper_step(log, 3, index=5)
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("index", 3)

    def test_out_of_grid_point_tamper(self, seed7_run):
        demo, _, log = seed7_run
        bad = self._tamper_step(log, 2, point=(9, 9, 9))
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("point", 2)

    def test_moved_point_fails_the_pre_state_check(self, seed7_run):
        demo, _, log = seed7_run
        bad = self._tamper_step(log, 0, point=(0, 0, 0))
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("pre-state", 0)

    def test_pre_state_tamper(self, seed7_run):
        demo, _, log = seed7_run
        entries = list(log.steps[0].pre_state.symbols)
        entries[1] = Symbol.EMPTY if entries[1] != Symbol.EMPTY else Symbol.ROTOR
        bad = self._tamper_step(log, 0, pre_state=State(tuple(entries)))
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("pre-state", 0)

    def test_unknown_rule_name_tamper(self, seed7_run):
        demo, _, log = seed7_run
        bad = self._tamper_step(log, 1, rule_name="nonexistent_rule")
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("rule-missing", 1)

    def test_swapped_rule_name_fails_to_match(self, seed7_run):
        demo, _, log = seed7_run
        # cap_front needs a Rotor or Wing in front; the seed corner has none.
        bad = self._tamper_step(log, 0, rule_name="cap_front")
        with pytest.raises(ReplayError) as e:
            replay(bad, demo)
        assert (e.value.kind, e.value.step) == ("no-match", 0)

    def test_design_hash_tamper(self, seed7_run):
        demo, _, log = seed7_run
        bad = replace(log, design_hash="0" * 64)
        with pytest.raises(ReplayError) as e:
            verify_log(bad, demo)
        assert e.value.kind == "design-hash"

    def test_outcome_tamper(self, seed7_run):
        demo, _, log = seed7_run
        bad = replace(log, outcome="stuck")
        with pytest.raises(ReplayError) as e:
            verify_log(bad, demo)
        assert e.value.kind == "outcome"

    def test_log_hash_tamper(self, seed7_run):
        demo, _, log = seed7_run
        bad = replace(log, log_hash="f" * 64)
        with pytest.raises(ReplayError) as e:
            verify_log(bad, demo)
        assert e.value.kind == "log-hash"

    def test_truncated_log_fails_verification(self, seed7_run):
        demo, _, log = seed7_run
        bad = replace(log, steps=log.steps[:-1])
        with pytest.raises(ReplayError):
            verify_log(bad, demo)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda log, g: _reconfigured(log, seed=log.gen_config.seed + 1),
            lambda log, g: _reconfigured(log, point_strategy="scanline"),
            lambda log, g: _reconfigured(log, max_steps=3),
            # The honest 10-step log, relabelled as an uncapped run.
            lambda log, g: replace(
                generate(g, log.grid_config, replace(log.gen_config, max_steps=10))[1],
                gen_config=log.gen_config,
            ),
        ],
        ids=["seed", "point-strategy", "max-steps", "truncated-step-limit"],
    )
    def test_forged_and_rehashed_log_diverges(self, seed7_run, forge):
        demo, _, log = seed7_run
        forged = forge(log, demo)
        forged = replace(forged, log_hash=encode_oracle.log_hash(forged))
        with pytest.raises(ReplayError) as e:
            verify_log(forged, demo)
        assert e.value.kind == "divergence"


class TestLogTextVerification:
    """``verify_log_text``: one comparison with the canonical re-derivation."""

    def test_genuine_text_verifies_with_or_without_a_newline(self, demo, genuine):
        log, text = genuine
        for candidate in (text, text + "\n"):
            item = verify_log_text(candidate, demo)
            assert (item.step_count, item.outcome, item.design_hash, item.log_text) == (
                len(log.steps), log.outcome, log.design_hash, text
            )
            assert Design.parse(item.design_text).hash == item.design_hash

    def test_genuine_text_gives_the_batch_item(self, demo, genuine):
        log, text = genuine
        batch = run_batch(demo, log.grid_config, [log.gen_config])
        assert verify_log_text(text, demo) == batch[0]

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

    def test_a_foreign_grammar_builds_no_engine(self, genuine, fill, monkeypatch, cold):
        monkeypatch.setattr(Engine, "__init__", None)
        with pytest.raises(ReplayError) as e:
            verify_log_text(genuine[1], fill)
        assert e.value.kind == "fingerprint"
        assert generator._shared == {}

    def test_malformed_steps_are_a_format_error(self, demo, genuine):
        obj = json.loads(genuine[1])
        obj["steps"][0].pop("rule")
        with pytest.raises(LogFormatError):
            verify_log_text(json.dumps(obj), demo)


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
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        parallel = run_batch(demo, grid, configs)
        assert bool(generator._shared) == warm  # the parent derives nothing itself
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
        bad = parse_grammar(json.dumps({"name": "bad", "version": "1", "rules": [
            {"name": "r", "contexts": [], "produce": {"symbol": "Empty", "connect": "ego"}}
        ]}))
        with pytest.raises(LintFailedError):
            generate(bad, GridConfig(1), GenerationConfig(seed=0))
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


class TestLogParsing:
    def test_parse_back_equals_original(self, demo, small_log_text):
        log = parse_log(small_log_text)
        assert serialize_log(log) == small_log_text

    def test_not_json(self):
        with pytest.raises(LogFormatError):
            parse_log("not json {")

    def test_wrong_format_marker(self, small_log_text):
        obj = json.loads(small_log_text)
        obj["format"] = "something-else"
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    def test_missing_key(self, small_log_text):
        obj = json.loads(small_log_text)
        del obj["outcome"]
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    def test_extra_key(self, small_log_text):
        obj = json.loads(small_log_text)
        obj["comment"] = "hi"
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    def test_unknown_outcome(self, small_log_text):
        obj = json.loads(small_log_text)
        obj["outcome"] = "done"
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    def test_bad_step_keys(self, small_log_text):
        obj = json.loads(small_log_text)
        obj["steps"][0].pop("rule")
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    def test_bad_hash_shape(self, small_log_text):
        obj = json.loads(small_log_text)
        obj["design_hash"] = "abc"
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda o: _to_float(o["steps"][0]["point"], 0),
            lambda o: o["steps"][0]["point"].__setitem__(0, str(o["steps"][0]["point"][0])),
            lambda o: o["steps"][1].__setitem__("index", True),
            lambda o: o["steps"][1].__setitem__("index", 1.0),
            lambda o: o["steps"].__setitem__(0, list(o["steps"][0].values())),
            lambda o: o["generation_config"].__setitem__("seed", True),
            lambda o: o["generation_config"].__setitem__("max_steps", 50.0),
            lambda o: o["grid_config"].__setitem__("n_half", 1.0),
            lambda o: o["grid_config"].__setitem__("n_half", True),
            lambda o: o["grid_config"].__setitem__("n_half", 17),
            lambda o: o["grid_config"].__setitem__("unit", 1.5),
            lambda o: o.__setitem__("steps", {}),
            lambda o: o.__setitem__("steps", ""),
            lambda o: o["steps"][0].__setitem__("point", dict.fromkeys("xyz", 0)),
            lambda o: o["steps"][0].__setitem__(
                "pre_state", dict.fromkeys(log_edits.SEVEN_LABELS)
            ),
        ],
        ids=[
            "float-coordinate", "str-coordinate", "bool-index", "float-index",
            "step-not-object", "bool-seed", "float-max-steps",
            "float-n-half", "bool-n-half", "n-half-over-max", "float-unit",
            "steps-object", "steps-string", "point-object", "pre-state-object",
        ],
    )
    def test_wrong_types_are_rejected_not_coerced(self, small_log_text, doctor):
        obj = json.loads(small_log_text)
        doctor(obj)
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda o: o.__setitem__("grammar_fingerprint", 5),
            lambda o: o.__setitem__("grammar_fingerprint", "AB" * 32),
            lambda o: o.__setitem__("design_hash", "g" * 64),
            lambda o: o.__setitem__("log_hash", "0123456789ABCDEF" * 4),
            lambda o: o["grid_config"].__setitem__("spacing", 1),
            lambda o: o["generation_config"].__setitem__("note", None),
        ],
        ids=[
            "int-fingerprint", "upper-case-fingerprint", "non-hex-design-hash",
            "upper-case-log-hash", "extra-grid-config-key", "extra-generation-config-key",
        ],
    )
    def test_header_is_read_strictly(self, small_log_text, doctor):
        obj = json.loads(small_log_text)
        doctor(obj)
        with pytest.raises(LogFormatError):
            parse_log(json.dumps(obj))


class TestDesignSerialization:
    def test_parse_back_equals_original(self, seed13_design):
        again = Design.parse(seed13_design.serialize())
        assert again == seed13_design
        assert again.hash == seed13_design.hash

    def test_cells_text_letters(self):
        canvas = Canvas(GridConfig(1), {(0, 0, 0): Symbol.FUSELAGE})
        text = Design(GridConfig(1), canvas.cells, canvas.edges).cells_text()
        assert len(text) == 27
        assert text[13] == "F"
        assert set(text) == {"F", "U"}

    def test_not_json(self):
        with pytest.raises(DesignFormatError):
            Design.parse("[")

    def test_wrong_format_marker(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["format"] = "nope"
        with pytest.raises(DesignFormatError):
            Design.parse(json.dumps(obj))

    def test_wrong_cells_length(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["cells"] = obj["cells"][:-1]
        with pytest.raises(DesignFormatError):
            Design.parse(json.dumps(obj))

    def test_unknown_cell_letter(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["cells"] = "X" + obj["cells"][1:]
        with pytest.raises(DesignFormatError, match="^unknown cell letter 'X'$"):
            Design.parse(json.dumps(obj))

    def test_tampered_counts_rejected(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["counts"]["Rotor"] += 1
        with pytest.raises(DesignFormatError):
            Design.parse(json.dumps(obj))

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda o: _to_float(o["components"]["edges"][0][0], 0),
            lambda o: _to_float(o["components"]["edges"][-1][1], 2),
            lambda o: o["grid_config"].__setitem__("unit", 1.5),
        ],
        ids=["float-first-end", "float-second-end", "float-unit"],
    )
    def test_wrong_types_are_rejected_not_coerced(self, seed13_design, doctor):
        obj = json.loads(seed13_design.serialize())
        doctor(obj)
        with pytest.raises(DesignFormatError):
            Design.parse(json.dumps(obj))

    @pytest.mark.parametrize("extra", [{"spacing": 1}, {"note": None}])
    def test_grid_config_is_read_strictly(self, seed13_design, extra):
        obj = json.loads(seed13_design.serialize())
        obj["grid_config"].update(extra)
        with pytest.raises(DesignFormatError, match="grid_config must have exactly the keys"):
            Design.parse(json.dumps(obj))

    @pytest.mark.parametrize(
        "end_a, end_b, problem",
        [
            ([0, 0, 1], [0, 1, -1], "joins non-adjacent points"),  # cells 14-15, a row wrap
            ([0, 1, 0], [1, -1, 0], "joins non-adjacent points"),  # cells 16-19, a plane wrap
            # The index formula maps these ends onto cell 15, (0, 1, -1), and
            # onto cell 31, past the last; they are refused before any index is taken.
            ([0, 0, 1], [0, 0, 2], "leaves the grid"),
            ([0, 0, 1], [2, 0, 0], "leaves the grid"),
            ([0, 0], [0, 0, 1], "edge ends must be integer points"),
            ([0, 0, 1], [0, 0, 0, 0], "edge ends must be integer points"),
        ],
    )
    def test_bad_edge_rejected(self, end_a, end_b, problem):
        symbols = {
            p: Symbol.ROTOR for p in [(0, 0, 1), (0, 1, -1), (0, 1, 0), (1, -1, 0)]
        }
        canvas = Canvas(GridConfig(1), {(0, 0, 0): Symbol.FUSELAGE, **symbols})
        obj = json.loads(Design(GridConfig(1), canvas.cells, canvas.edges).serialize())
        obj["components"]["edges"].append([end_a, end_b])
        with pytest.raises(DesignFormatError, match=problem):
            Design.parse(json.dumps(obj))

    def test_edge_to_non_component_rejected(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        empties = [
            i for i, c in enumerate(obj["cells"]) if c == "E"
        ]
        cfg = GridConfig(obj["grid_config"]["n_half"])
        pts = list(cfg.points())
        p = pts[empties[0]]
        q = next(
            n for n in pts if sum(abs(a - b) for a, b in zip(n, p)) == 1
        )
        obj["components"]["edges"].append([list(p), list(q)])
        with pytest.raises(DesignFormatError):
            Design.parse(json.dumps(obj))


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

    def test_disconnected_components_fail(self):
        report = validate_design(
            self._design({(-1, -1, -1): Symbol.FUSELAGE, (1, 1, 1): Symbol.ROTOR}),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert {c.check for c in report.failures()} == {"connected", "no-isolated"}

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

    @pytest.mark.parametrize("bounds", [[5, 2], [-3, None], [None, -1], [-2, -1]])
    def test_impossible_or_negative_count_bounds_rejected(self, bounds):
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": {"Rotor": bounds}})

    def test_unknown_profile_key_rejected(self):
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"requires_complete": True})

    def test_bad_counts_entry_rejected(self):
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": {"Engine": [1, 1]}})
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": {"Rotor": [1, 2, 3]}})
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": {"Rotor": ["1", 2]}})
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": {"Rotor": [1.5, None]}})
        for counts in ([["Rotor", 1, 2]], [], 0, False, "", None, {"Rotor": None}):
            with pytest.raises(ProfileFormatError):
                validate_design(self._design(), {"counts": counts})
        with pytest.raises(ProfileFormatError, match="never stored"):
            validate_design(self._design(), {"counts": {"Boundary": [0, None]}})

    @pytest.mark.parametrize(
        "profile",
        [
            {"require_complete": "no", "require_connected": 0},
            {"require_connected": 1},
            {"forbid_isolated": None},
            {"name": 5},
        ],
        ids=["str-and-int-flags", "int-flag", "null-flag", "int-name"],
    )
    def test_flags_must_be_booleans_and_name_a_string(self, profile):
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), profile)

    def test_report_to_obj_shape(self):
        report = validate_design(self._design(), {"require_complete": True})
        obj = report.to_obj()
        assert obj["passed"] is False
        assert obj["checks"][0]["check"] == "complete"


class TestRunBatch:
    def test_parallel_equals_inline(self, demo, monkeypatch):
        configs = [GenerationConfig(seed=s) for s in range(6)]
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        inline = run_batch(demo, GridConfig(1), configs)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        parallel = run_batch(demo, GridConfig(1), configs)
        assert len(inline) == len(parallel) == 6
        for a, b in zip(inline, parallel):
            assert a.seed == b.seed
            assert a.outcome == b.outcome
            assert a.design_text == b.design_text
            assert a.log_text == b.log_text

    def test_workers_receive_the_grammar_already_hashed(self, monkeypatch):
        grammar = parse_grammar(demo_uav_text())  # fingerprint not read yet
        monkeypatch.setattr(generator, "_batch_worker", _worker_requiring_fingerprint)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        configs = [GenerationConfig(seed=s) for s in range(2)]
        items = run_batch(grammar, GridConfig(1), configs)
        assert [i.seed for i in items] == [0, 1]

    def test_starts_one_process_per_slice(self, demo, monkeypatch):
        started = []
        pool = generator.ProcessPoolExecutor

        def recording_pool(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(generator, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setenv("GRIDGRAM_THREADS", "4")
        configs = [GenerationConfig(seed=s) for s in range(5)]
        items = run_batch(demo, GridConfig(1), configs)
        assert started == [3]  # slices of 2, 2 and 1 config
        assert [i.seed for i in items] == list(range(5))

    def test_duplicate_seeds_keep_input_order(self, demo, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        configs = [GenerationConfig(seed=s) for s in (5, 5, 3)]
        items = run_batch(demo, GridConfig(1), configs)
        assert [i.seed for i in items] == [5, 5, 3]
        assert items[0].design_text == items[1].design_text

    def test_want_logs_false(self, demo):
        items = run_batch(demo, GridConfig(1), [GenerationConfig(seed=1)], want_logs=False)
        assert items[0].log_text is None
        assert items[0].step_count > 0

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

    def test_resolve_workers_is_capped(self, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "100000")
        assert resolve_workers() == MAX_WORKERS


_ODD_UNIT = 'a"b\\c-\u00b5m-\u7ffc'


class TestEncodersMatchOracle:
    """Design and log text, and both hashes, equal the object-based encoding."""

    @pytest.mark.parametrize(
        "n_half, unit", [(0, None), (1, _ODD_UNIT), (2, None), (3, _ODD_UNIT)]
    )
    def test_bytes_equal_the_oracle(self, demo, monkeypatch, n_half, unit):
        grid = GridConfig(n_half, unit)
        configs = [
            GenerationConfig(seed, point, rule, max_steps)
            for point in POINT_STRATEGIES
            for rule in RULE_STRATEGIES
            for max_steps in (None, 1, 7)
            for seed in (n_half, 1000 + n_half)
        ]
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        inline = run_batch(demo, grid, configs)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        parallel = run_batch(demo, grid, configs)
        for cfg, a, b in zip(configs, inline, parallel):
            design, log = generate(demo, grid, cfg)
            expected_design = encode_oracle.design_text(design)
            expected_log = encode_oracle.log_text(log)
            assert log.log_hash == encode_oracle.log_hash(log)
            assert log.design_hash == encode_oracle.design_hash(design)
            assert design.serialize() == expected_design
            assert design.hash == encode_oracle.design_hash(design)
            assert serialize_log(log) == expected_log
            for item in (a, b):
                assert Design.parse(item.design_text) == design
                assert item.design_text == expected_design
                assert item.design_hash == log.design_hash
                assert item.log_text == expected_log
                assert item.counts == {s.label: n for s, n in design.counts().items()}

    def test_log_hash_is_computed_only_when_not_given(self, seed7_run):
        _, _, log = seed7_run
        obj = encode_oracle.log_obj(log)
        fields = (
            log.grammar_fingerprint, log.grid_config, obj["generation_config"],
            log.outcome, log.design_hash, [canonical_json(s) for s in obj["steps"]],
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
    """Frozen artifacts for one published demo derivation (seed 42, n_half 2)."""

    def test_design_bytes_are_stable(self, demo):
        design, _ = generate(demo, GridConfig(2), GenerationConfig(seed=42))
        frozen = (GOLDEN / "demo_seed42_design.json").read_text()
        assert design.serialize() == frozen.rstrip("\n")

    def test_log_bytes_are_stable(self, demo):
        _, log = generate(demo, GridConfig(2), GenerationConfig(seed=42))
        frozen = (GOLDEN / "demo_seed42_log.json").read_text()
        assert serialize_log(log) == frozen.rstrip("\n")

    def test_golden_log_verifies_against_golden_design(self, demo):
        log = parse_log((GOLDEN / "demo_seed42_log.json").read_text())
        design = Design.parse((GOLDEN / "demo_seed42_design.json").read_text())
        assert verify_log(log, demo) == design

    @pytest.mark.parametrize("n_half", [3, 5])
    @pytest.mark.parametrize("grammar_name", ["demo", "weighted_demo"])
    def test_strategy_pair_hashes_are_stable(self, request, monkeypatch, grammar_name, n_half):
        """Design and log hashes of every strategy pair, frozen for 3 seeds."""
        frozen = json.loads((GOLDEN / "strategy_pairs.json").read_text())
        grammar = request.getfixturevalue(grammar_name)
        if grammar_name == "weighted_demo":
            assert [r.weight for r in grammar.rules] == frozen["weighted_demo rule weights"]
        configs = [
            GenerationConfig(seed=seed, point_strategy=p, rule_strategy=r)
            for p in POINT_STRATEGIES for r in RULE_STRATEGIES for seed in frozen["seeds"]
        ]
        monkeypatch.setenv("GRIDGRAM_THREADS", "1")
        items = run_batch(grammar, GridConfig(n_half), configs)
        got = {
            f"{n_half}/{c.point_strategy}/{c.rule_strategy}/{c.seed}": {
                "design": item.design_hash, "log": sha256_hex(item.log_text),
            }
            for c, item in zip(configs, items)
        }
        want = {
            k: v for k, v in frozen["grammars"][grammar_name].items()
            if k.startswith(f"{n_half}/")
        }
        assert len(want) == 27
        assert got == want
