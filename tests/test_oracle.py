"""Oracle test of `harness.brute_force_oracle`, which expands one whole depth
at a time through `idealized_outcomes`. The node-by-node recursion it
replaced is kept here as `recursive_oracle`, and the oracle must return the
same value and the same actions. The largest instances the enumeration cap
admits are pinned to the output the recursion printed for them."""

import contextlib
import io
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockplan.cli import main
from blockplan.harness import brute_force_oracle
from blockplan.submodels import ModelConfig, action_grammar, heuristic, idealized_outcome
from blockplan.world import (
    Color,
    Corner,
    WorldConfig,
    WorldState,
    group_by_color,
    make_line,
    move_to_area,
)

from helpers import EXACT_MODEL, EXACT_WORLD

PROPERTY = settings(derandomize=True, database=None, max_examples=120, deadline=None)
GOALS = [move_to_area(c) for c in Corner] + [group_by_color(), make_line()]
CONFIGS = [(WorldConfig(), ModelConfig()), (EXACT_WORLD, EXACT_MODEL)]
MAX_NODES = 5_000
W, H = WorldConfig().board
# Board edges, the line's center column and points in no goal region: drawn
# often, they make coincident blocks, complete starts and tied leaves.
POINTS = [(x, y) for x in (0.0, 0.05, W / 2, 0.55, W) for y in (0.0, 0.15, H)]


def recursive_oracle(x0, goal, horizon, wcfg, mcfg):
    """Depth-first over the grammar tree: one `idealized_outcome` per node,
    one `heuristic` per leaf, and the first strictly better action kept."""
    grammar = action_grammar(x0)

    def recurse(state, depth):
        if depth == horizon:
            return heuristic([state], goal, wcfg, mcfg)[0], []
        best_val = -math.inf
        best_seq = []
        for action in grammar:
            val, seq = recurse(idealized_outcome(state, action, wcfg, mcfg), depth + 1)
            if val > best_val:
                best_val = val
                best_seq = [action] + seq
        return best_val, best_seq

    return recurse(x0, 0)


@st.composite
def instances(draw):
    """1-3 blocks with any colors, half the time all on one
    point, and a horizon of 0-3 whose tree has at most `MAX_NODES` nodes."""
    n = draw(st.integers(1, 3))
    colors = draw(st.lists(st.sampled_from(Color), min_size=n, max_size=n))
    point = st.one_of(st.sampled_from(POINTS), st.tuples(st.floats(0.0, W), st.floats(0.0, H)))
    positions = draw(st.lists(point, min_size=n, max_size=n))
    if draw(st.booleans()):
        positions = positions[:1] * n
    x0 = WorldState(tuple(colors), np.array(positions, dtype=float))
    horizon = draw(st.integers(0, 3))
    g = len(action_grammar(x0))
    assume(sum(g**h for h in range(1, horizon + 1)) <= MAX_NODES)
    return x0, horizon


@PROPERTY
@given(instances(), st.sampled_from(GOALS), st.sampled_from(CONFIGS))
def test_oracle_equals_the_recursion(instance, goal, configs):
    x0, horizon = instance
    value, actions = brute_force_oracle(x0, goal, horizon, *configs)
    expected_value, expected_actions = recursive_oracle(x0, goal, horizon, *configs)
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python float.
    assert repr(value) == repr(expected_value)
    assert actions == expected_actions


def _oracle_stdout(*overrides):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oracle", "--horizon", "3", "--set", "n_blocks=5", *overrides])
    return code, out.getvalue()


def test_group_by_color_at_the_cap():
    # 65 actions over horizon 3: 274,625 leaves, the most the cap admits.
    assert _oracle_stdout() == (
        0,
        "oracle value over horizon 3: -0.0\n"
        "  push red0 to top_left\n"
        "  push red0 to top_left\n"
        "  push red0 to top_right\n",
    )


def test_make_line_at_the_cap():
    assert _oracle_stdout("--set", "task.kind=make_line") == (
        0,
        "oracle value over horizon 3: -4.0\n"
        "  push red0 to top_left\n"
        "  push blue1 to top_right\n"
        "  push blue1 to top_right\n",
    )
