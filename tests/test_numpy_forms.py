"""Oracle tests of the forms that stand in for numpy's Python-level wrappers
on the per-call paths: the proposal draw for ``Generator.choice``, the
centroid sum for ``.mean``, the two-column `world.norms` for
``np.linalg.norm`` and the 2-wide ``np.add.reduce``, and the one-pass
rounding of lengths to the wire. Each oracle is the wrapper the form
replaced, and each form must equal it byte for byte; the scalar norm's
oracle is `world.norms`, and the rounding's is Python's per-element
``round``."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockplan import submodels
from blockplan.errors import InvalidActionError
from blockplan.planner import Plan, Planner, PlannerConfig
from blockplan.seeding import rng_from
from blockplan.submodels import (
    FaultConfig,
    ModelConfig,
    Rollout,
    Target,
    _fixed_targets,
    _goal_discrepancies,
    _grammar,
    action_grammar,
    idealized_outcomes,
    propose_actions,
    simulator_submodels,
)
from blockplan.tracing import canonical_json, plan_to_dict, state_to_dict, wire_positions
from blockplan.world import (
    SENTINEL_POS,
    Color,
    Corner,
    WorldConfig,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    norms,
    sample_initial_state,
    satisfied,
)

from helpers import make_state, reference_resolve

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
GOALS = [move_to_area(Corner.TOP_LEFT), group_by_color(), make_line()]
WCFG = WorldConfig()

# Components a norm must survive: zeros of both signs, subnormals, squares
# that underflow or overflow, infinities and NaN.
EDGE_COMPONENTS = [0.0, -0.0, 5e-324, -2.2e-308, 1e-200, 0.3, -0.6, 1e154, 1e200, -1.7e308]
EDGE_COMPONENTS += [math.inf, -math.inf, math.nan]
EDGE_VECTORS = [(x, y) for x in EDGE_COMPONENTS for y in EDGE_COMPONENTS]


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# --- The proposal draw ---------------------------------------------------------


def choice_proposals(scores, A, temperature, rng):
    """The indices `propose_actions` drew through ``Generator.choice``."""
    remaining = list(range(len(scores)))
    picks = []
    with np.errstate(over="ignore"):
        for _ in range(min(A, len(scores))):
            s = scores[remaining]
            w = np.exp((s - s.max()) / temperature)
            w = w / w.sum()
            picks.append(remaining.pop(int(rng.choice(len(remaining), p=w))))
    return picks


# Six blocks of two colors give a grammar of 66 actions, whose scores are drawn.
STATE = sample_initial_state(6, 3)
GRAMMAR = action_grammar(STATE)
FINITE_SCORE = st.one_of(st.integers(-40, 0).map(float), st.floats(-1e6, 0.0))
SCORE = st.one_of(FINITE_SCORE, st.sampled_from([-math.inf, math.inf, math.nan]))
TEMPERATURE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 0.3, 1.0, 1e300, math.inf]),
    st.floats(1e-3, 1e3),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(
    st.lists(SCORE, min_size=len(GRAMMAR), max_size=len(GRAMMAR)),
    st.integers(1, 8),
    TEMPERATURE,
    st.integers(0, 2**32 - 1),
)
def test_draw_equals_generator_choice(scores, A, temperature, seed):
    """The draws, and the generator state they leave, are those of
    ``rng.choice(len(w), p=w)``; a weight vector ``choice`` refuses raises
    ``ValueError`` in both."""
    scores = np.array(scores)
    want_rng = rng_from(seed)
    try:
        want = [GRAMMAR[i] for i in choice_proposals(scores, A, temperature, want_rng)]
    except ValueError:
        want = ValueError
    generators = []

    def recording_rng_from(s):
        generators.append(rng_from(s))
        return generators[-1]

    with (
        mock.patch.object(submodels, "steps_to_go", return_value=scores),
        mock.patch.object(submodels, "rng_from", recording_rng_from),
    ):
        if want is ValueError:
            with pytest.raises(ValueError, match="proposal weights must be finite"):
                propose_actions(STATE, make_line(), A, temperature, seed)
            return
        got = propose_actions(STATE, make_line(), A, temperature, seed)
    assert got == want
    assert generators[0].bit_generator.state == want_rng.bit_generator.state


class FixedUniform(np.random.Generator):
    """A generator whose every uniform draw is ``u``; ``choice`` draws
    through it too."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


@settings(PROPERTY, max_examples=60)  # each example draws up to 132 times
@given(st.lists(FINITE_SCORE, min_size=len(GRAMMAR), max_size=len(GRAMMAR)), TEMPERATURE)
def test_draw_at_each_boundary_equals_generator_choice(scores, temperature):
    """A uniform draw at a cumulative weight, or just below it, picks what
    ``choice`` picks: the two cumulative sums agree to the last bit."""
    scores = np.array(scores)
    with np.errstate(over="ignore"):
        w = np.exp((scores - scores.max()) / temperature)
    p = w / w.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for u in {u for u in [*cdf.tolist(), *np.nextafter(cdf, -1.0).tolist()] if u < 1.0}:
        want = GRAMMAR[FixedUniform(u).choice(len(p), p=p)]
        with (
            mock.patch.object(submodels, "steps_to_go", return_value=scores),
            mock.patch.object(submodels, "rng_from", lambda seed: FixedUniform(u)),
        ):
            assert propose_actions(STATE, make_line(), 1, temperature, 0) == [want], u


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_raises(bad):
    scores = np.zeros(len(GRAMMAR))
    scores[5] = bad
    with mock.patch.object(submodels, "steps_to_go", return_value=scores):
        with pytest.raises(ValueError, match="proposal weights must be finite"):
            propose_actions(STATE, make_line(), 2, 0.3, 0)


def test_nan_state_raises_value_error():
    """A NaN position scores NaN, whose weights the draw refuses."""
    s = make_state([(0.1, 0.1), (math.nan, 0.2), (0.3, 0.3)], [Color.RED] * 3)
    with pytest.raises(ValueError, match="proposal weights must be finite"):
        propose_actions(s, group_by_color(), 2, 0.3, 0)


# --- Centroids -----------------------------------------------------------------

COORD = st.one_of(
    st.floats(0.0, 0.6),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, math.nan]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8), st.data())
def test_centroids_equal_mean(positions, data):
    """`Target.point` and the centroid rows of `idealized_outcomes` equal
    ``.mean`` of the peers' positions. The outcomes are read through a reach
    that takes every subject to its target, where the distance is finite."""
    colors = data.draw(
        st.lists(st.sampled_from(Color), min_size=len(positions), max_size=len(positions))
    )
    s = make_state(positions, colors)
    outcomes = idealized_outcomes(s, mcfg=ModelConfig(push_reach=1e308))
    reachable = bool((np.abs(s.positions) < 1e150).all())
    for g, action in enumerate(action_grammar(s)):
        if action.target.kind != "color_centroid":
            continue
        i = s.index_of(action.subject)
        peers = [j for j, c in enumerate(colors) if c == action.target.color and j != i]
        if not peers:
            continue
        want = s.positions[peers].mean(axis=0)
        assert same_bytes(action.target.point(s, action.subject, WorldConfig()), want)
        if reachable:
            assert same_bytes(outcomes[g, i], want)


# Coordinates a target point must survive: zeros of both signs, the smallest
# subnormal, a huge finite value, an infinity, NaN and the lost-block sentinel.
POINT_COORD = st.one_of(
    st.floats(0.0, 0.6), st.sampled_from([0.0, -0.0, 5e-324, 1e300, math.inf, math.nan])
)
POINT_ROW = st.one_of(st.tuples(POINT_COORD, POINT_COORD), st.just(SENTINEL_POS))


@st.composite
def point_states(draw):
    """1-40 blocks of up to four colors, so that a color can have 8 or more
    peers, past the block size of numpy's pairwise sum."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(POINT_ROW, min_size=n, max_size=n))
    colors = draw(st.lists(st.sampled_from(Color), min_size=n, max_size=n))
    return make_state(rows, colors)


def stacked_targets(s, wcfg):
    """Every grammar action's target row as `idealized_outcomes` stacks it,
    each centroid ``np.add.reduce(p[peers], 1) / k``."""
    _, _, target_rows, peer_groups, _ = _grammar(s.colors)
    p = s.positions
    centroids = (np.add.reduce(p[peers], 1) / peers.shape[1] for peers in peer_groups)
    return np.concatenate([p, _fixed_targets(wcfg), *centroids])[target_rows]


# A lone -0.0 peer: the sum starts from +0.0, so the centroid is +0.0.
LONE_NEGATIVE_ZERO = make_state([(0.3, 0.2), (-0.0, -0.0)], [Color.RED] * 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY, max_examples=150)
@given(point_states())
@example(LONE_NEGATIVE_ZERO)
@example(make_state([(0.05 * i, 0.3 - 0.02 * i) for i in range(12)], [Color.BLUE] * 12))
def test_point_equals_the_stacked_row_and_the_array_rule(s):
    """``np.array(point)`` of every grammar action is byte-equal to the row
    `idealized_outcomes` stacks for its target and to `reference_resolve`."""
    for action, row in zip(action_grammar(s), stacked_targets(s, WCFG)):
        got = np.array(action.target.point(s, action.subject, WCFG))
        assert got.tobytes() == row.tobytes(), action
        want = reference_resolve(action.target, s, action.subject, WCFG)
        assert got.tobytes() == want.tobytes(), action


def test_a_lone_negative_zero_peer_is_positive_zero():
    x, y = Target("color_centroid", color=Color.RED).point(LONE_NEGATIVE_ZERO, 0, WCFG)
    assert (math.copysign(1.0, x), math.copysign(1.0, y)) == (1.0, 1.0)


@pytest.mark.parametrize(
    "target, subject",
    [
        (Target("color_centroid", color=Color.YELLOW), 0),
        (Target("color_centroid", color=Color.RED), 99),
        (Target("color_centroid", color=Color.RED), -1),
        (Target("block", block=99), 0),
        (Target("block", block=-1), 0),
    ],
    ids=["absent-color", "absent-subject", "negative-subject", "absent-block", "negative-block"],
)
def test_point_refuses_what_the_state_lacks(target, subject):
    s = make_state([(0.1, 0.1), (0.3, 0.1)], [Color.RED, Color.BLUE])
    for rule in (target.point, lambda *args: reference_resolve(target, *args)):
        with pytest.raises(InvalidActionError):
            rule(s, subject, WCFG)


# --- Norms ---------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scalar_norm_equals_array_norm():
    """``math.sqrt(dx * dx + dy * dy)`` on Python floats, the form of the
    rollout loop, `step_true`, the collision pass, `sample_initial_state`,
    `replay_plan` and `_goal_discrepancies`, equals `world.norms`, the array
    norm of `idealized_outcomes` and `goal_distance`, on 5,000 seeded vectors whose components span
    eight decades and on every pair of edge components."""
    rng = np.random.default_rng(22)
    panel = 10.0 ** rng.uniform(-6.0, 2.0, (5000, 2)) * rng.choice([-1.0, 1.0], (5000, 2))
    d = np.concatenate([panel, EDGE_VECTORS])
    want = norms(d).tolist()
    got = [math.sqrt(dx * dx + dy * dy) for dx, dy in d.tolist()]
    bad = [v for v, g, w in zip(d.tolist(), got, want) if not same_bytes(g, w)]
    assert not bad, bad


# The shapes `world.norms` takes in the program: the subject deltas of an
# outcome stack (G, 2), the same-color gaps of a group-by-color stack
# (G, n, k, 2) and the move-to-area gaps of R frames (R, n, 2).
NORM_SHAPES = [(66, 2), (84, 6, 1, 2), (84, 12, 3, 2), (512, 6, 2)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [None, *NORM_SHAPES], ids=str)
def test_column_norm_equals_reduce_and_scalar_norm(shape):
    """`world.norms` equals the 2-wide ``np.sqrt(np.add.reduce(d * d,
    -1))`` it replaced, and the scalar norm, byte for byte: on the edge
    vectors (``None``), one at a time as well, and on a seeded stack of each
    shape, whose components span eight decades."""
    if shape is None:
        d = np.array(EDGE_VECTORS)
        for v in d:
            assert same_bytes(norms(v), np.sqrt(np.add.reduce(v * v, -1)))
    else:
        rng = np.random.default_rng(37)
        d = 10.0 ** rng.uniform(-6.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    got = norms(d)
    assert got.shape == d.shape[:-1]
    assert same_bytes(got, np.sqrt(np.add.reduce(d * d, -1)))
    scalar = [math.sqrt(dx * dx + dy * dy) for dx, dy in d.reshape(-1, 2).tolist()]
    assert same_bytes(got.ravel(), scalar)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_norms_equal_linalg_norm():
    """`world.norms`, and the Python-float norms of `_goal_discrepancies`
    checked through it, equal ``np.linalg.norm(d, axis=1)`` on displacements
    made of the edge components."""
    d = np.array(EDGE_VECTORS)
    assert same_bytes(norms(d), np.linalg.norm(d, axis=1))
    start = make_state(np.zeros_like(d))
    # No coordinate is negative, so no block is lost and every delta counts.
    goal_frame = start.with_positions(np.abs(d))
    _, lengths = _goal_discrepancies(start, goal_frame)
    assert same_bytes(lengths, np.linalg.norm(goal_frame.positions - start.positions, axis=1))


# --- Tracing -------------------------------------------------------------------


# Lengths up to the widest board a run accepts, whose squared diagonal is
# finite, and values near a half count of 1e-9.
LENGTH = st.floats(-1e154, 1e154) | st.sampled_from([-0.0, 5e-324, 5e-10, 1.5e-9, -2.5e-9])


@PROPERTY
@given(st.lists(st.tuples(LENGTH, LENGTH), min_size=1, max_size=8))
def test_wire_positions_equal_per_element_round(positions):
    """Python ints, so a count past int64 (9.2e9 board units) stays exact."""
    got = wire_positions(np.array(positions))
    assert got == [[round(x * 1e9), round(y * 1e9)] for x, y in positions]
    assert {type(v) for row in got for v in row} == {int}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_length_refused(bad):
    """A NaN or infinite coordinate has no count of 1e-9 units, so it cannot
    reach a trace as a non-JSON ``NaN`` or ``Infinity``."""
    s = make_state([(0.1, 0.2), (bad, 0.3)])
    with pytest.raises((ValueError, OverflowError)):
        state_to_dict(s)
    with pytest.raises((ValueError, OverflowError)):
        plan_to_dict(Plan(s))


def plans():
    for seed, goal in enumerate(GOALS):
        for faults in (FaultConfig(), FaultConfig(p_teleport=0.5, p_vanish=0.5)):
            x0 = sample_initial_state(2 + 2 * seed, seed)
            planner = Planner(simulator_submodels(faults=faults))
            yield planner.plan(x0, goal, PlannerConfig(beams=1, horizon=3), seed)
    # Edge values a search does not produce: -0.0, NaN, infinities, 9+ digits.
    s = make_state([(-0.0, 0.1234567891), (math.nan, 1e300), (math.inf, 5e-324)])
    frames = np.array([s.positions, s.positions[::-1], -s.positions])
    yield Plan(s, [Rollout(s, frames, action_grammar(s)[0])])
    yield Plan(s)


PLANS = list(plans())


@pytest.mark.parametrize("plan", PLANS)
def test_plan_frames_equal_per_frame_positions(plan):
    frames = [f.positions.tolist() for f in plan.frames()]
    if not np.isfinite(frames).all():  # the two edge plans
        # numpy reports 1e300 * 1e9 overflowing before `round` refuses it.
        with np.errstate(over="ignore"), pytest.raises((ValueError, OverflowError)):
            plan_to_dict(plan)
        return
    got = plan_to_dict(plan)["frames"]
    # The per-element rounding that the one pass replaced.
    want = [[[round(x * 1e9), round(y * 1e9)] for x, y in f] for f in frames]
    assert canonical_json(got) == canonical_json(want)
    assert {type(x) for frame in got for row in frame for x in row} <= {int}


@pytest.mark.parametrize("plan", PLANS[:-2])
def test_one_pass_completion_equals_per_frame_is_complete(plan):
    """The harness's naive score, one `satisfied` over `Plan.positions`."""
    colors = plan.start.colors
    for goal in GOALS:
        got = satisfied(plan.positions(), colors, goal, WorldConfig()).all(axis=-1)
        assert got.tolist() == [is_complete(f, goal) for f in plan.frames()]
