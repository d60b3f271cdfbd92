"""Property tests over generated states: the grammar's parse round-trip, the
agreement of the goal predicate, the reward and the heuristic, and what the
true dynamics keep."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockplan.seeding import derive
from blockplan.submodels import FaultConfig, action_grammar, heuristic, parse_action, rollout_dynamics
from blockplan.world import (
    SENTINEL_POS,
    Color,
    ControlAction,
    Corner,
    WorldConfig,
    WorldState,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    reward,
    sample_initial_state,
    step_true,
)

WCFG = WorldConfig()
GOALS = [move_to_area(c) for c in Corner] + [group_by_color(), make_line()]
FAULTS = FaultConfig(p_teleport=0.5, p_vanish=0.5)
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


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
    return WorldState(tuple(ids), tuple(colors), np.array(positions, dtype=float), WCFG.board)


@st.composite
def model_frames(draw):
    """A frame of a dynamics-model rollout that may teleport or vanish a block."""
    s = sample_initial_state(draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1)), WCFG)
    action = draw(st.sampled_from(action_grammar(s)))
    rollout = rollout_dynamics(s, action, FAULTS, seed=draw(st.integers(0, 2**32 - 1)))
    return draw(st.sampled_from(rollout.frames))


states = st.one_of(drawn_states(), model_frames())


@settings(PROPERTY, max_examples=100)  # each example parses up to 128 texts
@given(states)
def test_grammar_round_trips(s):
    for a in action_grammar(s):
        assert parse_action(a.text(s), s) == a


@PROPERTY
@given(states, st.sampled_from(GOALS))
def test_complete_iff_full_reward(s, goal):
    assert is_complete(s, goal, WCFG) == (reward(s, goal, WCFG) == 100.0)


@PROPERTY
@given(states, st.sampled_from(GOALS))
def test_complete_implies_zero_heuristic(s, goal):
    # The predicate reads raw positions and the heuristic projects a vanished
    # block onto the board, so a color whose blocks (two or more) have all
    # vanished is grouped for the predicate but not for the heuristic.
    vanished = np.all(s.positions == SENTINEL_POS, axis=1)
    for color in set(s.colors):
        mine = [i for i, c in enumerate(s.colors) if c == color]
        assume(len(mine) < 2 or not vanished[mine].all())
    if is_complete(s, goal, WCFG):
        assert heuristic(s, goal, WCFG) == 0.0


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
        ControlAction.bounded(b, np.array([dx, dy]), np.hypot(dx, dy), WCFG.u_max)
        for b, dx, dy in controls
    ]
    return s, chain, draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY, max_examples=100)
@given(control_chains())
def test_step_true_keeps_blocks_on_the_board(example):
    s, chain, seed = example
    for k, u in enumerate(chain):
        nxt = step_true(s, u, derive(seed, k), WCFG)
        assert nxt.ids == s.ids and nxt.colors == s.colors
        assert nxt.step_count == s.step_count + 1
        assert np.all(nxt.positions >= 0.0) and np.all(nxt.positions <= WCFG.board)
        s = nxt
