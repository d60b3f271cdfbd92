import dataclasses
import itertools
import json
import math
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan.config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)
from blockplan.errors import ConfigError
from blockplan.executor import ExecutionConfig
from blockplan.planner import Planner, PlannerConfig
from blockplan.runs import episode_records, plan_records
from blockplan.submodels import FaultConfig, ModelConfig
from blockplan.tracing import (
    canonical_json,
    digest,
    first_divergence,
    plan_to_dict,
    read_trace,
    round9,
    state_digest,
    state_from_dict,
    state_to_dict,
    write_trace,
)
from blockplan.world import (
    SENTINEL_POS,
    Color,
    GoalKind,
    WorldConfig,
    WorldState,
    group_by_color,
    make_line,
    sample_initial_state,
)

# (config class, field, a value just outside its range, the exact message).
RANGE_CASES = [
    (WorldConfig, "width", 0.0, "width must be > 0, got 0.0"),
    (WorldConfig, "height", 0.0, "height must be > 0, got 0.0"),
    (WorldConfig, "block_radius", 0.0, "block_radius must be > 0, got 0.0"),
    (WorldConfig, "u_max", 0.0, "u_max must be > 0, got 0.0"),
    (WorldConfig, "sigma_env", -1e-9, "sigma_env must be >= 0, got -1e-09"),
    (WorldConfig, "group_dist", -1e-9, "group_dist must be >= 0, got -1e-09"),
    (WorldConfig, "area_dx", -1e-9, "area_dx must be >= 0, got -1e-09"),
    (WorldConfig, "area_dy", -1e-9, "area_dy must be >= 0, got -1e-09"),
    (WorldConfig, "line_dist", -1e-9, "line_dist must be >= 0, got -1e-09"),
    (WorldConfig, "collision_iters", 0, "collision_iters must be >= 1, got 0"),
    (ModelConfig, "push_reach", 0.0, "push_reach must be > 0, got 0.0"),
    (ModelConfig, "sigma_model", -1e-9, "sigma_model must be >= 0, got -1e-09"),
    (ModelConfig, "goal_eps", -1e-9, "goal_eps must be >= 0, got -1e-09"),
    (ModelConfig, "frames_per_rollout", 1, "frames_per_rollout must be >= 2, got 1"),
    (FaultConfig, "p_teleport", -1e-9, "p_teleport must be >= 0, got -1e-09"),
    (FaultConfig, "p_teleport", 1.000000001, "p_teleport must be <= 1, got 1.000000001"),
    (FaultConfig, "p_vanish", -1e-9, "p_vanish must be >= 0, got -1e-09"),
    (FaultConfig, "p_vanish", 1.000000001, "p_vanish must be <= 1, got 1.000000001"),
    (PlannerConfig, "beams", 0, "beams must be >= 1, got 0"),
    (PlannerConfig, "text_branch", 0, "text_branch must be >= 1, got 0"),
    (PlannerConfig, "video_branch", 0, "video_branch must be >= 1, got 0"),
    (PlannerConfig, "horizon", 0, "horizon must be >= 1, got 0"),
    (PlannerConfig, "replace_period", 0, "replace_period must be >= 1, got 0"),
    (PlannerConfig, "guard_threshold", 0.0, "guard_threshold must be > 0, got 0.0"),
    (PlannerConfig, "policy_temperature", -1e-9, "policy_temperature must be >= 0, got -1e-09"),
    (PlannerConfig, "root_seed", -1, "root_seed must be >= 0, got -1"),
    (ExecutionConfig, "controls_per_frame", 0, "controls_per_frame must be >= 1, got 0"),
    (ExecutionConfig, "frames_per_plan", 0, "frames_per_plan must be >= 1, got 0"),
    (ExecutionConfig, "total_budget", 0, "total_budget must be >= 1, got 0"),
    (ExecutionConfig, "env_seed", -1, "env_seed must be >= 0, got -1"),
    (RunConfig, "n_blocks", 0, "n_blocks must be >= 1, got 0"),
]


class TestRound9:
    def test_truncates_to_nine_significant_digits(self):
        assert round9(0.123456789123) == 0.123456789
        assert round9(123456789.123) == 123456789.0

    def test_short_values_unchanged(self):
        assert round9(0.25) == 0.25
        assert round9(-3.0) == -3.0


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_stable(self):
        assert digest({"a": 1}) == digest({"a": 1})
        assert digest({"a": 1}) != digest({"a": 2})
        assert len(digest({"a": 1})) == 16


DIGEST_PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
# A coordinate on the board, -0.0, or one of a wide board whose count of
# 1e-9 units passes 2**63; a block is also lost at the sentinel.
COORD = st.floats(0.0, 1.0) | st.just(-0.0) | st.floats(9.3e9, 1e154)
POINT = st.tuples(COORD, COORD) | st.just(SENTINEL_POS)


@st.composite
def states(draw):
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
    colors = draw(st.lists(st.sampled_from(Color), min_size=n, max_size=n))
    positions = draw(st.lists(POINT, min_size=n, max_size=n))
    return WorldState(tuple(ids), tuple(colors), np.array(positions))


class TestStateSerialization:
    def test_round_trip(self):
        s = sample_initial_state(6, seed=7)
        back = state_from_dict(state_to_dict(s))
        assert back.ids == s.ids
        assert back.colors == s.colors
        assert np.allclose(back.positions, s.positions, atol=1e-8)
        assert state_digest(back) == state_digest(s)

    def test_digest_sensitive_to_positions(self):
        s = sample_initial_state(3, seed=0)
        moved = s.with_positions(s.positions + 0.001)
        assert state_digest(moved) != state_digest(s)

    @DIGEST_PROPERTY
    @given(st.lists(states(), min_size=2, max_size=2))
    def test_digest_equals_digest_of_dict(self, pair):
        """`state_digest` encodes a block set's ids and colors once: hashing
        two states of any block sets in turn gives each the digest of its
        `state_to_dict`, as a head shared across block sets would not."""
        for s in [*pair, *pair]:
            assert state_digest(s) == digest(state_to_dict(s))

    def test_digest_of_every_color_mix(self):
        """Every color tuple of one to three blocks, one after another."""
        for n in (1, 2, 3):
            for colors in itertools.product(Color, repeat=n):
                s = WorldState(tuple(range(n)), colors, np.full((n, 2), 0.125))
                assert state_digest(s) == digest(state_to_dict(s))


class TestPlanSerialization:
    def test_fields_and_action_text(self):
        # Eight blocks, so that no beam finishes in three steps.
        s = sample_initial_state(8, seed=2)
        plan = Planner().plan(s, group_by_color(), PlannerConfig(beams=1, horizon=3))
        d = plan_to_dict(plan)
        assert len(d["actions"]) == 3
        assert all(t.startswith("push ") for t in d["actions"])
        assert len(d["frames"]) == len(plan.frames())
        x0 = state_to_dict(s)
        assert (d["ids"], d["colors"]) == (x0["ids"], x0["colors"])
        assert d["frames"][0] == x0["positions"]
        assert len(d["heuristic_trace"]) == 3


def _nodes(node):
    """``node`` and every value below it."""
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else []
    for child in children:
        yield from _nodes(child)


class TestRoundOnce:
    """`canonical_json` writes floats as given, so every record is built at
    the wire precision, from plain Python values only."""

    RUNS = {
        "plan": (plan_records, 0, ["n_blocks=6"]),
        "plan_teleport": (
            plan_records,
            10,
            ["n_blocks=5", "planner.horizon=4", "planner.replace_period=2", "faults.p_teleport=1.0"],
        ),
        "execute": (episode_records, 1, ["n_blocks=3", "planner.horizon=2", "task.kind=make_line"]),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_records_are_plain_and_rounded(self, run):
        build, seed, overrides = self.RUNS[run]
        records = build(apply_overrides(RunConfig(), overrides), seed)
        nodes = list(_nodes(records))
        assert {type(x) for x in nodes} <= {bool, int, float, str, list, dict}
        assert all(round9(x) == x for x in nodes if type(x) is float)
        if run == "plan_teleport":  # the fallback event is built here too
            assert any(r["kind"] == "GuardFallback" for r in records)


class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        records = [{"kind": "A", "x": 1.5}, {"kind": "B", "y": [1, 2]}]
        write_trace(path, {"run": {}, "mode": "plan"}, records)
        back = read_trace(path)
        assert back[0]["kind"] == "Header"
        assert back[0]["schema_version"] == 9
        assert "config_hash" in back[0]
        assert [r["ordinal"] for r in back] == [0, 1, 2]
        assert back[1]["x"] == 1.5

    def test_missing_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind":"A","ordinal":0}\n')
        with pytest.raises(ValueError):
            read_trace(path)

    def test_broken_ordinals_rejected(self, tmp_path):
        path = str(tmp_path / "bad2.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind":"Header","ordinal":0}\n{"kind":"A","ordinal":2}\n')
        with pytest.raises(ValueError):
            read_trace(path)

    def test_first_divergence(self):
        a = [{"x": 1}, {"x": 2}]
        assert first_divergence(a, [{"x": 1}, {"x": 2}]) is None
        assert first_divergence(a, [{"x": 1}, {"x": 3}]) == 1
        assert first_divergence(a, [{"x": 1}]) == 1
        assert first_divergence(a, [{"x": 1}, {"x": 2}, {"x": 9}]) == 2


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_every_field_type_is_one_the_loader_checks(self):
        # `config._typed` checks ints, floats, enums, optional enums, int
        # tuples and sections, and refuses what is left as "expected int": a
        # str or bool field must fail here first.
        def kind(hint):
            args = get_args(hint)
            if get_origin(hint) is tuple:
                return "int tuple" if args == (int, ...) else None
            if type(None) in args:
                (hint,) = [t for t in args if t is not type(None)]
                return "optional enum" if kind(hint) == "enum" else None
            if hint in (int, float):
                return hint.__name__
            if dataclasses.is_dataclass(hint):
                return "section"
            return "enum" if isinstance(hint, type) and issubclass(hint, Enum) else None

        def fields(cls, prefix=""):
            for name, hint in get_type_hints(cls).items():
                yield prefix + name, hint
                if dataclasses.is_dataclass(hint):
                    yield from fields(hint, f"{prefix}{name}.")

        assert kind(str) is kind(bool) is kind(str | None) is kind(tuple[str, ...]) is None
        unchecked = {path: hint for path, hint in fields(RunConfig) if kind(hint) is None}
        assert unchecked == {}

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"planner": {"beams": 3}, "n_blocks": 6}))
        cfg = load_config(str(path))
        assert cfg.planner.beams == 3
        assert cfg.n_blocks == 6
        assert cfg.planner.horizon == 16  # untouched defaults preserved

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"plannner": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"planner": {"beamz": 2}})

    def test_invalid_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"planner": {"beams": 0}})

    def test_enum_coercion(self):
        cfg = config_from_dict(
            {
                "task": {"kind": "move_to_area", "corner": "top_left"},
                "execution": {"extractor": "inverse_dynamics"},
            }
        )
        assert cfg.task.kind is GoalKind.MOVE_TO_AREA
        goal = cfg.task
        assert goal.kind is GoalKind.MOVE_TO_AREA

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError):
            config_from_dict({"task": {"kind": "sort_by_size"}})

    def test_partial_task_section(self):
        assert config_from_dict({"task": {}}).task == group_by_color()
        assert config_from_dict({"task": {"kind": "make_line"}}).task == make_line()
        with pytest.raises(ConfigError):  # a corner needs kind move_to_area
            config_from_dict({"task": {"corner": "top_left"}})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"planner": {,}}')
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(str(path))

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["planner.beams=4", "n_blocks=7", "seeds=[3,4]"])
        assert cfg.planner.beams == 4
        assert cfg.n_blocks == 7
        assert cfg.seeds == (3, 4)

    def test_repeated_seed_refused(self):
        with pytest.raises(ConfigError, match=r"seeds must not repeat, got \[1, 2, 1\]"):
            RunConfig(seeds=(1, 2, 1))

    def test_override_unknown_path(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["planner.nope=1"])
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["planner_beams"])

    @pytest.mark.parametrize(
        "cls,name,value,message",
        [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}") for case in RANGE_CASES],
    )
    def test_range_message(self, cls, name, value, message):
        with pytest.raises(ConfigError) as info:
            cls(**{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls,name,value,message",
        [
            (PlannerConfig, "guard_threshold", math.inf, "guard_threshold must be finite, got inf"),
            (PlannerConfig, "policy_temperature", math.nan, "policy_temperature must be finite, got nan"),
            (WorldConfig, "width", math.inf, "width must be finite, got inf"),
        ],
    )
    def test_non_finite_message(self, cls, name, value, message):
        with pytest.raises(ConfigError) as info:
            cls(**{name: value})
        assert str(info.value) == message

    def test_int_for_float_field_stored_as_float(self):
        cfg = config_from_dict({"world": {"width": 1}, "model": {"push_reach": 1}})
        assert type(cfg.world.width) is float and cfg.world.width == 1.0
        assert config_to_dict(cfg)["model"]["push_reach"] == 1.0

    def test_hash_changes_with_semantic_change(self):
        a = digest(config_to_dict(RunConfig()))
        b = digest(config_to_dict(apply_overrides(RunConfig(), ["planner.beams=4"])))
        assert a != b
        c = digest(config_to_dict(RunConfig()))
        assert a == c

    def test_header_hash_sees_past_the_wire_precision(self, tmp_path):
        path, hashes = str(tmp_path / "t.jsonl"), set()
        for sigma in ("0.0031234567891", "0.0031234567894"):
            cfg = apply_overrides(RunConfig(), [f"model.sigma_model={sigma}"])
            write_trace(path, config_to_dict(cfg), [])
            hashes.add(read_trace(path)[0]["config_hash"])
        assert len(hashes) == 2
