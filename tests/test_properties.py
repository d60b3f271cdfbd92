"""Property tests over generated states: the grammar's parse round-trip, the
agreement of the batched proposal outcomes and heuristic with their one-at-a-
time forms, the agreement of the goal predicate, the reward and the
heuristic, their agreement with a scalar oracle of the array region geometry,
that the degenerate search is the greedy chain over drawn configs, that the
search and the greedy chain stop at a complete frame, what the
true dynamics keep and the controls they refuse, the serialization
round-trips of configs and states, that the CLI runs every config it loads
or refuses it with exit 2, and that ``replay`` of a mutated copy of each
golden trace verifies, refuses or reports a divergence."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from blockplan.cli import main
from blockplan.config import RunConfig, config_from_dict, config_to_dict
from blockplan.errors import ConfigError, InvalidActionError
from blockplan.executor import ExecutionConfig, Extractor
from blockplan.planner import Planner, PlannerConfig
from blockplan.seeding import derive, rng_from
from blockplan.submodels import (
    FaultConfig,
    ModelConfig,
    action_grammar,
    heuristic,
    idealized_outcome,
    idealized_outcomes,
    parse_action,
    proposal_scores,
    rollout_dynamics,
    simulator_submodels,
)
from blockplan.tracing import (
    canonical_json,
    plan_to_dict,
    read_trace,
    state_from_dict,
    state_to_dict,
    write_trace,
)
from blockplan.world import (
    GOAL_TOL,
    SENTINEL_POS,
    Color,
    ControlAction,
    Corner,
    GoalKind,
    TaskGoal,
    WorldConfig,
    WorldState,
    goal_distance,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    reward,
    sample_initial_state,
    step_true,
)

from helpers import greedy_chain

WCFG = WorldConfig()
GOALS = [move_to_area(c) for c in Corner] + [group_by_color(), make_line()]
FAULTS = FaultConfig(p_teleport=0.5, p_vanish=0.5)
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
MAX_BLOCKS = 12  # sampling a state is O(n_blocks**2)


@st.composite
def drawn_states(draw):
    """1-8 blocks with any distinct ids and colors, each at the off-board
    sentinel of a vanished block or in a box on the board. A small box lies
    inside some goal regions, so that complete states are drawn often."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
    colors = draw(st.lists(st.sampled_from(Color), min_size=n, max_size=n))
    size = draw(st.sampled_from([0.05, 0.2, WCFG.width]))
    x0 = draw(st.floats(0.0, max(0.0, WCFG.width - size)))
    y0 = draw(st.floats(0.0, max(0.0, WCFG.height - size)))
    on_board = st.tuples(
        st.floats(x0, min(x0 + size, WCFG.width)), st.floats(y0, min(y0 + size, WCFG.height))
    )
    positions = draw(
        st.lists(st.one_of(on_board, st.just(SENTINEL_POS)), min_size=n, max_size=n)
    )
    return WorldState(tuple(ids), tuple(colors), np.array(positions, dtype=float))


@st.composite
def model_rollouts(draw):
    """The frames of a dynamics-model rollout that may teleport or vanish a block."""
    s = sample_initial_state(draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1)), WCFG)
    action = draw(st.sampled_from(action_grammar(s)))
    return rollout_dynamics(s, action, rng_from(draw(st.integers(0, 2**32 - 1))), FAULTS).frames


@st.composite
def model_frames(draw):
    """A frame of a dynamics-model rollout that may teleport or vanish a block."""
    return draw(st.sampled_from(draw(model_rollouts())))


states = st.one_of(drawn_states(), model_frames())


@settings(PROPERTY, max_examples=100)  # each example parses up to 128 texts
@given(states)
def test_grammar_round_trips(s):
    for a in action_grammar(s):
        assert parse_action(a.text(s), s) == a


@settings(PROPERTY, max_examples=100)  # each example scores up to 128 actions per goal
@given(states)
def test_proposal_scores_equal_full_heuristic(s):
    for goal in GOALS:
        scores = proposal_scores(s, goal, WCFG)
        full = [
            heuristic([idealized_outcome(s, a, WCFG)], goal, WCFG)[0] for a in action_grammar(s)
        ]
        assert scores.tolist() == full


@st.composite
def states_with_a_reached_target(draw):
    """A drawn state, half the time with one grammar action's subject moved
    onto that action's target, so that the action's outcome moves it by 0."""
    s = draw(drawn_states())
    if draw(st.booleans()):
        a = draw(st.sampled_from(action_grammar(s)))
        p = s.positions.copy()
        p[s.index_of(a.subject)] = a.target.point(s, a.subject, WCFG)
        s = s.with_positions(p)
    return s


@settings(PROPERTY, max_examples=200)
@given(
    st.one_of(states_with_a_reached_target(), model_frames()),
    st.sampled_from([ModelConfig(), ModelConfig(push_reach=0.35)]),
)
def test_idealized_outcomes_equal_one_outcome_per_action(s, mcfg):
    # 1-8 blocks, vanished ones, colors with a single block (a centroid
    # with no peer), subjects on their target, and reaches that cap or not.
    outcomes = idealized_outcomes(s, WCFG, mcfg)
    each = np.stack([idealized_outcome(s, a, WCFG, mcfg).positions for a in action_grammar(s)])
    assert outcomes.shape == each.shape
    assert outcomes.tobytes() == each.tobytes()


@PROPERTY
@given(model_rollouts())
def test_batched_heuristic_equals_one_call_per_frame(frames):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python float.
    for goal in GOALS:
        assert repr(heuristic(frames, goal, WCFG)) == repr(
            [heuristic([f], goal, WCFG)[0] for f in frames]
        )


@PROPERTY
@given(states, st.sampled_from(GOALS))
def test_complete_iff_full_reward(s, goal):
    assert is_complete(s, goal, WCFG) == (reward(s, goal, WCFG) == 100.0)


@PROPERTY
@given(states, st.sampled_from(GOALS))
def test_complete_iff_zero_heuristic(s, goal):
    # Vanished blocks included: the predicate and the heuristic measure a
    # lost block by the same rule.
    assert is_complete(s, goal, WCFG) == (heuristic([s], goal, WCFG)[0] == 0.0)


def oracle_region_distance(state, goal, i, p, cfg):
    """The scalar region distance of block ``i`` at ``p`` that the array
    geometry replaced, kept as its oracle."""
    if goal.kind is GoalKind.MOVE_TO_AREA:
        c = cfg.corner_xy(goal.corner)
        dx = max(0.0, abs(p[0] - c[0]) - cfg.area_dx)
        dy = max(0.0, abs(p[1] - c[1]) - cfg.area_dy)
        return math.sqrt(dx * dx + dy * dy)
    if goal.kind is GoalKind.MAKE_LINE:
        return max(0.0, abs(p[0] - cfg.width / 2.0) - cfg.line_dist)
    peers = [j for j in range(state.n_blocks) if j != i and state.colors[j] == state.colors[i]]
    if not peers:
        return 0.0
    d = np.linalg.norm(state.positions[peers] - p, axis=1)
    return max(0.0, float(np.max(d)) - cfg.group_dist)


def oracle_steps_needed(distance, push_reach):
    if distance <= 1e-9:
        return 0
    return int(math.ceil(distance / push_reach - 1e-9))


def oracle_goal_distances(state, goal, cfg):
    """Per block: project an off-board position onto the board, then measure
    its region distance; its peers keep their own positions."""
    distances = []
    for i, p in enumerate(state.positions):
        if p[0] < 0.0 or p[1] < 0.0:
            p = np.clip(p, 0.0, cfg.board)
        distances.append(oracle_region_distance(state, goal, i, p, cfg))
    return distances


def oracle_heuristic(state, goal, wcfg, mcfg):
    """Per block, the push_reach steps to its region."""
    distances = oracle_goal_distances(state, goal, wcfg)
    return -float(sum(oracle_steps_needed(d, mcfg.push_reach) for d in distances))


@PROPERTY
@given(states)
def test_array_geometry_equals_the_scalar_oracle(s):
    mcfg = ModelConfig()
    for goal in GOALS:
        distances = oracle_goal_distances(s, goal, WCFG)
        assert goal_distance(s.positions, s.colors, goal, WCFG).tolist() == distances
        satisfied = [d <= GOAL_TOL for d in distances]
        assert repr(heuristic([s], goal, WCFG, mcfg)[0]) == repr(
            oracle_heuristic(s, goal, WCFG, mcfg)
        )
        assert reward(s, goal, WCFG) == 100.0 * sum(satisfied) / s.n_blocks
        assert is_complete(s, goal, WCFG) == all(satisfied)


@st.composite
def degenerate_searches(draw):
    """A bundle over drawn world, model and fault configs, teleports and
    vanishes on; a start state, a goal, and a one-beam, one-proposal,
    one-rollout search config with a guard that never binds."""
    threshold = st.floats(0.0, 0.3)
    wcfg = WorldConfig(
        width=draw(st.floats(0.3, 1.0)),
        height=draw(st.floats(0.2, 0.6)),
        block_radius=draw(st.floats(0.005, 0.03)),
        group_dist=draw(threshold),
        area_dx=draw(threshold),
        area_dy=draw(threshold),
        line_dist=draw(threshold),
    )
    mcfg = ModelConfig(
        push_reach=draw(st.floats(0.01, 0.5)),
        frames_per_rollout=draw(st.integers(2, 16)),
        sigma_model=draw(st.floats(0.0, 0.01)),
    )
    faults = FaultConfig(p_teleport=draw(st.floats(0.1, 1.0)), p_vanish=draw(st.floats(0.1, 1.0)))
    x0 = sample_initial_state(draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1)), wcfg)
    cfg = PlannerConfig(
        beams=1,
        text_branch=1,
        video_branch=1,
        horizon=draw(st.integers(1, 6)),
        guard_threshold=1e9,
        policy_temperature=draw(st.floats(0.0, 1.0)),
        root_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return simulator_submodels(wcfg, mcfg, faults), x0, draw(st.sampled_from(GOALS)), cfg


@settings(PROPERTY, max_examples=100)
@given(degenerate_searches())
def test_degenerate_search_is_the_greedy_chain(example):
    # Criterion 7's reduction, beyond the default world and model.
    sm, x0, goal, cfg = example
    a = Planner(sm).plan(x0, goal, cfg)
    b = greedy_chain(sm, x0, goal, cfg)
    assert canonical_json(plan_to_dict(a)) == canonical_json(plan_to_dict(b))


@st.composite
def searches(draw):
    """A search over a drawn or sampled start, often complete: 1-3 beams,
    ``replace_period`` 1-3, any goal, with and without faults."""
    sampled = st.builds(sample_initial_state, st.integers(1, 8), st.integers(0, 2**32 - 1))
    x0 = draw(states | sampled)
    cfg = PlannerConfig(
        beams=draw(st.integers(1, 3)),
        text_branch=draw(st.integers(1, 3)),
        video_branch=draw(st.integers(1, 3)),
        horizon=draw(st.integers(1, 6)),
        guard_threshold=draw(st.sampled_from([0.5, 3.0, 1e9])),
        replace_period=draw(st.integers(1, 3)),
        root_seed=draw(st.integers(0, 2**32 - 1)),
    )
    faults = draw(st.sampled_from([FaultConfig(), FAULTS]))
    return simulator_submodels(WCFG, faults=faults), x0, draw(st.sampled_from(GOALS)), cfg


def assert_stops_at_a_complete_frame(sm, x0, goal, cfg, plan):
    """No segment starts from a frame of value 0, a plan that does not end
    on one has H segments, and a complete start gives no segment."""
    starts = [x0, *(seg.last for seg in plan.segments)]
    values = sm.value(starts, goal)
    assert 0 not in values[:-1]
    assert values[-1] == plan.final_value
    if plan.final_value != 0:
        assert len(plan.segments) == cfg.horizon
    if values[0] == 0:
        assert plan.segments == []


@settings(PROPERTY, max_examples=150)
@given(searches())
def test_search_stops_at_a_complete_frame(example):
    sm, x0, goal, cfg = example
    assert_stops_at_a_complete_frame(sm, x0, goal, cfg, Planner(sm).plan(x0, goal, cfg))


@settings(PROPERTY, max_examples=150)
@given(searches())
def test_greedy_chain_stops_at_a_complete_frame(example):
    sm, x0, goal, cfg = example
    cfg = replace(cfg, beams=1, text_branch=1, video_branch=1)
    assert_stops_at_a_complete_frame(sm, x0, goal, cfg, greedy_chain(sm, x0, goal, cfg))


@st.composite
def control_chains(draw):
    """A state of 1-12 sampled blocks and a chain of up to 20 controls, each
    within u_max, with the seed its true steps derive from."""
    s = sample_initial_state(draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1)), WCFG)
    component = st.floats(-WCFG.u_max, WCFG.u_max)
    controls = draw(
        st.lists(st.tuples(st.sampled_from(s.ids), component, component), min_size=1, max_size=20)
    )
    chain = [
        ControlAction.bounded(b, dx, dy, float(np.hypot(dx, dy)), WCFG.u_max)
        for b, dx, dy in controls
    ]
    return s, chain, draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY, max_examples=100)
@given(control_chains())
def test_step_true_keeps_blocks_on_the_board(example):
    s, chain, seed = example
    for k, u in enumerate(chain):
        nxt = step_true(s, u, rng_from(derive(seed, k)), WCFG)
        assert nxt.ids == s.ids and nxt.colors == s.colors
        assert np.all(nxt.positions >= 0.0) and np.all(nxt.positions <= WCFG.board)
        s = nxt


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(PROPERTY, max_examples=100)
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    non_finite,
    st.one_of(st.floats(-1.0, 1.0), non_finite),
    st.booleans(),
    st.data(),
)
def test_step_true_refuses_a_non_finite_control(n, seed, bad, other, bad_first, data):
    # A NaN magnitude is not greater than u_max either, and unrefused it
    # spreads through the collision pass to every block.
    s = sample_initial_state(n, seed, WCFG)
    u = ControlAction(data.draw(st.sampled_from(s.ids)), (bad, other) if bad_first else (other, bad))
    with pytest.raises(InvalidActionError):
        step_true(s, u, rng_from(seed), WCFG)


nonneg = st.floats(0.0, allow_infinity=False)
positive = st.floats(0.0, allow_infinity=False, exclude_min=True)
counts = st.integers(1, 10**6)
seeds = st.integers(0, 2**63)


@st.composite
def run_configs(draw, n_blocks=counts):
    """A valid run configuration, every section drawn; a corner exactly when
    the task kind is move_to_area."""
    kind = draw(st.sampled_from(GoalKind))
    corner = draw(st.sampled_from(Corner)) if kind is GoalKind.MOVE_TO_AREA else None
    world = st.builds(
        WorldConfig,
        width=positive,
        height=positive,
        block_radius=positive,
        u_max=positive,
        sigma_env=nonneg,
        group_dist=nonneg,
        area_dx=nonneg,
        area_dy=nonneg,
        line_dist=nonneg,
        collision_iters=counts,
    )
    model = st.builds(
        ModelConfig,
        push_reach=positive,
        frames_per_rollout=st.integers(2, 10**6),
        sigma_model=nonneg,
        goal_eps=nonneg,
    )
    faults = st.builds(FaultConfig, p_teleport=st.floats(0.0, 1.0), p_vanish=st.floats(0.0, 1.0))
    planner = st.builds(
        PlannerConfig,
        beams=counts,
        text_branch=counts,
        video_branch=counts,
        horizon=counts,
        guard_threshold=positive,
        replace_period=counts,
        policy_temperature=nonneg,
        root_seed=seeds,
    )
    execution = st.builds(
        ExecutionConfig,
        controls_per_frame=counts,
        frames_per_plan=counts,
        total_budget=counts,
        extractor=st.sampled_from(Extractor),
        env_seed=seeds,
    )
    try:
        return RunConfig(
            world=draw(world),
            model=draw(model),
            faults=draw(faults),
            planner=draw(planner),
            execution=draw(execution),
            task=TaskGoal(kind, corner),
            n_blocks=draw(n_blocks),
            seeds=tuple(draw(st.lists(seeds, min_size=1, max_size=4, unique=True))),
        )
    except ConfigError:  # a board too large for the heuristic to measure
        assume(False)


@PROPERTY
@given(run_configs())
def test_config_round_trips(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


@PROPERTY
@given(run_configs())
def test_config_round_trips_through_a_trace_header(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(path, config_to_dict(cfg), [])
        assert config_from_dict(read_trace(path)[0]["config"]) == cfg


def assert_runs_or_exits_two(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# Without the explain phase, which on a failing run took gigabytes of memory
# tracing the lines it ran.
@settings(PROPERTY, max_examples=200, phases=set(Phase) - {Phase.explain})
@given(run_configs(n_blocks=st.integers(1, MAX_BLOCKS)))
def test_every_loadable_config_runs_or_exits_two(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(config_to_dict(cfg), fh)
        assert_runs_or_exits_two(["oracle", "--horizon", "0", "--config", path])


def leaf_paths(node, prefix=""):
    """The dotted path of every leaf of a config dict."""
    paths = []
    for key, value in node.items():
        if isinstance(value, dict):
            paths += leaf_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


CONFIG_PATHS = leaf_paths(config_to_dict(RunConfig()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
# A value as JSON (floats include NaN and +-inf) or as a bare string, with
# enough small numbers and enum values that some overrides are valid.
ENUM_VALUES = [e.value for enum in (GoalKind, Corner, Extractor) for e in enum]
override_values = (
    json_values.map(json.dumps)
    | st.text()
    | st.integers(0, 20).map(str)
    | st.floats(0.0, 1.0).map(json.dumps)
    | st.sampled_from(ENUM_VALUES)
)


def decodes_to_int_above(text, bound):
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        return False
    return type(value) is int and value > bound


@st.composite
def overrides(draw):
    """One ``--set`` argument: a config leaf or an unknown path, and any value.
    n_blocks stays within 1-MAX_BLOCKS or is invalid."""
    name = st.text(st.characters(exclude_characters="="))
    known = st.sampled_from(CONFIG_PATHS)
    unknown = name | st.builds("{}.{}".format, known, name)
    path = draw(known if draw(st.integers(0, 3)) else unknown)  # known 3 times in 4
    if path == "n_blocks":
        small = st.integers(1, MAX_BLOCKS).map(str)
        other = override_values.filter(lambda v: not decodes_to_int_above(v, MAX_BLOCKS))
        value = draw(small | other)
    else:
        value = draw(override_values)
    return f"{path}={value}"


# oracle --horizon 0 samples one state and plans nothing, so no drawn search
# budget is ever spent. "--set=" keeps argparse from reading an override that
# starts with "-" as an option. No explain phase, as above.
@settings(PROPERTY, max_examples=200, phases=set(Phase) - {Phase.explain})
@given(st.lists(overrides(), min_size=1, max_size=3))
def test_every_override_runs_or_exits_two(items):
    assert_runs_or_exits_two(["oracle", "--horizon", "0", *(f"--set={o}" for o in items)])


# Ints run from -3 to 3, positive half the time, so a valid cell stays tiny
# and is drawn often. Some are padded with a sign, zeros or a space. A spec
# that starts with "-" and holds no space reads as an option: a usage error.
small_ints = st.integers(1, 3) | st.integers(-3, 3)
padding = st.sampled_from(["{}", "{:+d}", "{:02d}", " {}"])
cell_tokens = st.builds(str.format, padding, small_ints) | st.sampled_from(["", "x", "1.5"])
cells = st.lists(cell_tokens, min_size=3, max_size=4) | st.lists(cell_tokens, max_size=5)
# An ``--cells`` argument: tokens joined by "," within a cell and ";" between.
cell_specs = st.lists(cells.map(",".join), min_size=1, max_size=3).map(";".join)


@settings(PROPERTY, max_examples=200)
@given(cell_specs)
def test_every_cell_spec_runs_or_exits_two(spec):
    argv = ["ablate", "--cells", spec, "--episodes", "1"]
    argv += ["--set", "n_blocks=5", "--set", "planner.horizon=1"]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, BLOCKPLAN_OUT=tmp):
        assert_runs_or_exits_two(argv)


@PROPERTY
@given(drawn_states())
def test_state_dict_round_trips(s):
    d = state_to_dict(s)
    assert state_to_dict(state_from_dict(d)) == d


GOLDEN_NAMES = [
    "golden_plan_move_to_area.jsonl",
    "golden_episode_make_line.jsonl",
    "golden_plan_guard_fallback.jsonl",
    "golden_plan_group_by_color.jsonl",
]


def golden_lines(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        return fh.read().splitlines()


GOLDEN_LINES = {name: golden_lines(name) for name in GOLDEN_NAMES}


def node_paths(node, path=()):
    """The key or index path of every node below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths += [path + (key,), *node_paths(child, path + (key,))]
    return paths


# Per trace and record, the path of the record and of every node in it.
GOLDEN_PATHS = {
    name: [[(i,), *node_paths(json.loads(line), (i,))] for i, line in enumerate(lines)]
    for name, lines in GOLDEN_LINES.items()
}
# Small values only: a valid header value such as planner.horizon=10**20
# makes the replayed plan run effectively forever.
small_values = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-2.0, 2.0)
    | st.text(max_size=3)
    | st.sampled_from(ENUM_VALUES)
)


@st.composite
def mutated_traces(draw, name):
    """The records of golden trace ``name`` with one change: a dropped key, a
    replaced value or a dropped list item, in the header about half the time,
    else in any record. The record itself may be the value replaced or the
    item dropped."""
    records = [json.loads(line) for line in GOLDEN_LINES[name]]
    index = draw(st.just(0) | st.integers(0, len(records) - 1))
    *path, key = draw(st.sampled_from(GOLDEN_PATHS[name][index]))
    parent = records
    for k in path:
        parent = parent[k]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(small_values)
    return records


@pytest.mark.parametrize("name", GOLDEN_NAMES)
@settings(PROPERTY, max_examples=100)
@given(data=st.data())
def test_every_mutated_trace_replays_or_exits_two_or_three(name, data):
    records = data.draw(mutated_traces(name))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["replay", path])
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
