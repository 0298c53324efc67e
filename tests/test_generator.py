"""Derivation engine tests: stepping, logs, replay, validation, batches."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgram.canon import canonical_hash
from gridgram.core import Direction, Grid, GridConfig, State, Symbol
from gridgram.generator import (
    MAX_WORKERS,
    POINT_STRATEGIES,
    RULE_STRATEGIES,
    BatchItem,
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
    validate_design,
    verify_log,
)
from gridgram.grammar import parse_grammar
from gridgram.rng import SplitMix64
from gridgram.rulesets import demo_profile_obj, demo_uav_text
import encode_oracle
from step_oracle import frontier, step

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
def seed13_design(demo):
    design, _ = generate(demo, GridConfig(2), GenerationConfig(seed=13))
    return design


def _reconfigured(log, **changes):
    return replace(log, gen_config=replace(log.gen_config, **changes))


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
        grid = Grid.empty(GridConfig(1))
        assert frontier(g, grid) == []

    def test_fill_grammar_frontier_is_every_point(self, fill):
        cfg = GridConfig(1)
        grid = Grid.empty(cfg)
        assert frontier(fill, grid) == list(cfg.points())

    def test_demo_initial_frontier_is_the_seed_corner(self, demo):
        grid = Grid.empty(GridConfig(2))
        assert frontier(demo, grid) == [(-2, -2, -2)]

    def test_terminal_points_leave_the_frontier(self, fill):
        cfg = GridConfig(1)
        grid = Grid.empty(cfg)
        grid.set_symbol((0, 0, 0), Symbol.EMPTY)
        pts = frontier(fill, grid)
        assert (0, 0, 0) not in pts
        assert len(pts) == cfg.point_count - 1


class TestStep:
    def test_none_on_empty_frontier(self):
        g = parse_grammar(EMPTY_GRAMMAR)
        grid = Grid.empty(GridConfig(1))
        assert step(g, grid, GenerationConfig(seed=0), SplitMix64(0)) is None

    def test_forced_choice_is_seed_independent(self):
        g = parse_grammar(CORNER_ONLY_GRAMMAR)
        for seed in (0, 1, 999):
            grid = Grid.empty(GridConfig(1))
            s = step(g, grid, GenerationConfig(seed=seed), SplitMix64(seed))
            assert s is not None
            assert s.point == (-1, -1, -1)
            assert s.rule_name == "mark_corner"
            assert grid.symbol_at((-1, -1, -1)) is Symbol.FUSELAGE
            assert step(g, grid, GenerationConfig(seed=seed), SplitMix64(seed)) is None

    def test_scanline_first_match_visits_lexicographic_order(self, fill):
        cfg = GridConfig(1)
        grid = Grid.empty(cfg)
        gcfg = GenerationConfig(
            seed=5, point_strategy="scanline", rule_strategy="first-match"
        )
        rng = SplitMix64(5)
        visited = []
        i = 0
        while (s := step(fill, grid, gcfg, rng, index=i)) is not None:
            visited.append(s.point)
            i += 1
        assert visited == list(cfg.points())

    def test_nearest_to_origin_starts_at_center(self, fill):
        grid = Grid.empty(GridConfig(1))
        gcfg = GenerationConfig(seed=0, point_strategy="nearest-to-origin")
        s = step(fill, grid, gcfg, SplitMix64(0))
        assert s.point == (0, 0, 0)


class TestGenerate:
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
        assert [s.to_obj() for s in l1.steps] != [s.to_obj() for s in l2.steps]

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
        assert [s.to_obj() for s in logs[0].steps] == [s.to_obj() for s in logs[1].steps]
        assert logs[0].design_hash == logs[1].design_hash

    def test_demo_run_is_complete_valid_and_sound(self, demo):
        design, log = generate(demo, GridConfig(2), GenerationConfig(seed=42))
        assert log.outcome == "complete"
        assert design.counts()[Symbol.FUSELAGE] == 1
        assert validate_design(design, demo_profile_obj()).passed
        assert design.grid.audit() == []
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


class TestEngineMatchesStepLoop:
    """generate() must be observably identical to folding the public step()."""

    def _run_with_step(self, grammar, grid_config, gen_config):
        grid = Grid.empty(grid_config)
        rng = SplitMix64(gen_config.seed)
        steps = []
        while gen_config.max_steps is None or len(steps) < gen_config.max_steps:
            s = step(grammar, grid, gen_config, rng, index=len(steps))
            if s is None:
                break
            steps.append(s)
        return grid, steps

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 42, 10**12])
    def test_demo_engine_equals_step_loop(self, demo, seed):
        gcfg = GenerationConfig(seed=seed)
        design, log = generate(demo, GridConfig(2), gcfg)
        grid, steps = self._run_with_step(demo, GridConfig(2), gcfg)
        assert Design(grid) == design
        assert [s.to_obj() for s in steps] == [s.to_obj() for s in log.steps]

    @pytest.mark.parametrize("rule_strategy", ["uniform-random", "weighted"])
    def test_strategies_agree_too(self, demo, rule_strategy):
        gcfg = GenerationConfig(seed=9, rule_strategy=rule_strategy, max_steps=40)
        design, log = generate(demo, GridConfig(2), gcfg)
        grid, steps = self._run_with_step(demo, GridConfig(2), gcfg)
        assert Design(grid) == design
        assert [s.to_obj() for s in steps] == [s.to_obj() for s in log.steps]


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
        forged = replace(forged, log_hash=canonical_hash(forged.core_obj()))
        with pytest.raises(ReplayError) as e:
            verify_log(forged, demo)
        assert e.value.kind == "divergence"


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
        ],
        ids=[
            "float-coordinate", "str-coordinate", "bool-index", "float-index",
            "step-not-object", "bool-seed", "float-max-steps",
            "float-n-half", "bool-n-half", "n-half-over-max", "float-unit",
        ],
    )
    def test_wrong_types_are_rejected_not_coerced(self, small_log_text, doctor):
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
        grid = Grid.empty(GridConfig(1))
        grid.set_symbol((0, 0, 0), Symbol.FUSELAGE)
        text = Design(grid).cells_text()
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
            Design.from_obj(obj)

    def test_wrong_cells_length(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["cells"] = obj["cells"][:-1]
        with pytest.raises(DesignFormatError):
            Design.from_obj(obj)

    def test_unknown_cell_letter(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["cells"] = "X" + obj["cells"][1:]
        with pytest.raises(DesignFormatError):
            Design.from_obj(obj)

    def test_tampered_counts_rejected(self, seed13_design):
        obj = json.loads(seed13_design.serialize())
        obj["counts"]["Rotor"] += 1
        with pytest.raises(DesignFormatError):
            Design.from_obj(obj)

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
            Design.from_obj(obj)

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
            Design.from_obj(obj)


class TestValidateDesign:
    def _design(self, builder=None, n_half=1):
        grid = Grid.empty(GridConfig(n_half))
        if builder:
            builder(grid)
        return Design(grid)

    def test_empty_profile_always_passes(self):
        report = validate_design(self._design(), {})
        assert report.passed and report.checks == ()

    def test_incomplete_fails_complete_check(self):
        report = validate_design(self._design(), {"require_complete": True})
        assert not report.passed
        assert [c.check for c in report.failures()] == ["complete"]

    def test_disconnected_components_fail(self):
        def build(grid):
            grid.set_symbol((-1, -1, -1), Symbol.FUSELAGE)
            grid.set_symbol((1, 1, 1), Symbol.ROTOR)

        report = validate_design(
            self._design(build),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert {c.check for c in report.failures()} == {"connected", "no-isolated"}

    def test_single_node_is_connected_and_not_isolated(self):
        def build(grid):
            grid.set_symbol((0, 0, 0), Symbol.FUSELAGE)

        report = validate_design(
            self._design(build),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert report.passed

    def test_linked_pair_passes(self):
        def build(grid):
            grid.set_symbol((0, 0, 0), Symbol.FUSELAGE)
            grid.set_symbol((1, 0, 0), Symbol.CONNECTOR)
            grid.add_edge((0, 0, 0), Direction.FRONT)

        report = validate_design(
            self._design(build),
            {"require_connected": True, "forbid_isolated": True},
        )
        assert report.passed

    def test_count_bounds(self):
        def build(grid):
            grid.set_symbol((0, 0, 0), Symbol.FUSELAGE)
            grid.set_symbol((1, 0, 0), Symbol.CONNECTOR)
            grid.add_edge((0, 0, 0), Direction.FRONT)

        d = self._design(build)
        ok = validate_design(
            d, {"counts": {"Fuselage": [1, 1], "Rotor": [None, 0]}}
        )
        assert ok.passed
        bad = validate_design(d, {"counts": {"Rotor": [2, None]}})
        assert not bad.passed
        assert bad.failures()[0].check == "count:Rotor"

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
        with pytest.raises(ProfileFormatError):
            validate_design(self._design(), {"counts": [["Rotor", 1, 2]]})

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
    def test_parallel_equals_inline(self, demo):
        configs = [GenerationConfig(seed=s) for s in range(6)]
        inline = run_batch(demo, GridConfig(1), configs, workers=1)
        parallel = run_batch(demo, GridConfig(1), configs, workers=2)
        assert len(inline) == len(parallel) == 6
        for a, b in zip(inline, parallel):
            assert a.seed == b.seed
            assert a.outcome == b.outcome
            assert a.design == b.design
            assert a.log_text == b.log_text

    def test_duplicate_seeds_keep_input_order(self, demo):
        configs = [GenerationConfig(seed=s) for s in (5, 5, 3)]
        items = run_batch(demo, GridConfig(1), configs, workers=2)
        assert [i.seed for i in items] == [5, 5, 3]
        assert items[0].design == items[1].design

    def test_want_logs_false(self, demo):
        items = run_batch(
            demo, GridConfig(1), [GenerationConfig(seed=1)], workers=1, want_logs=False
        )
        assert items[0].log_text is None
        assert items[0].step_count > 0

    def test_empty_batch(self, demo):
        assert run_batch(demo, GridConfig(1), [], workers=4) == []

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        monkeypatch.setenv("GRIDGRAM_THREADS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2
        monkeypatch.setenv("GRIDGRAM_THREADS", "junk")
        assert resolve_workers() >= 1

    def test_resolve_workers_is_capped(self, monkeypatch):
        monkeypatch.setenv("GRIDGRAM_THREADS", "100000")
        assert resolve_workers() == MAX_WORKERS
        assert resolve_workers(100000) == MAX_WORKERS


_ODD_UNIT = 'a"b\\c-\u00b5m-\u7ffc'


class TestEncodersMatchOracle:
    """Design and log text, and both hashes, equal the object-based encoding."""

    @pytest.mark.parametrize(
        "n_half, unit", [(0, None), (1, _ODD_UNIT), (2, None), (3, _ODD_UNIT)]
    )
    def test_bytes_equal_the_oracle(self, demo, n_half, unit):
        grid = GridConfig(n_half, unit)
        configs = [
            GenerationConfig(seed, point, rule, max_steps)
            for point in POINT_STRATEGIES
            for rule in RULE_STRATEGIES
            for max_steps in (None, 1, 7)
            for seed in (n_half, 1000 + n_half)
        ]
        inline = run_batch(demo, grid, configs, workers=1)
        parallel = run_batch(demo, grid, configs, workers=2)
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
                assert item.design == design
                assert item.design_text == expected_design
                assert item.design_hash == log.design_hash
                assert item.log_text == expected_log
                assert item.counts == {s.label: n for s, n in design.counts().items()}

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
