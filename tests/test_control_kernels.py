"""Oracle tests of the per-control kernels, which run on Python floats: the
goal predicate `satisfied_rows` behind `is_complete` and `reward`, the
lost-block test `lost_rows`, and the controllers `goal_policy` and
`inverse_dynamics` with `ControlAction.bounded`. Each oracle is the numpy
form the kernel replaced, kept here, and each kernel must equal it bit for
bit, on non-finite coordinates too."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan.errors import InvalidGoalError
from blockplan.submodels import ModelConfig, goal_policy, inverse_dynamics, simulator_submodels
from blockplan.world import (
    GOAL_TOL,
    SENTINEL_POS,
    Color,
    ControlAction,
    Corner,
    WorldConfig,
    WorldState,
    group_by_color,
    is_complete,
    is_lost,
    lost_rows,
    make_line,
    move_to_area,
    reward,
    satisfied,
    satisfied_rows,
)

from helpers import make_state

PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)
WCFG = WorldConfig()
MCFG = ModelConfig()
W, H = WCFG.board
GOALS = [*(move_to_area(c) for c in Corner), group_by_color(), make_line()]
GOAL_IDS = [*(c.value for c in Corner), "group_by_color", "make_line"]
RED, BLUE = Color.RED, Color.BLUE
NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]
# Coordinates where a predicate or the lost test turns: signed zeros, the
# sentinel, the board's bounds and the smallest subnormals either side of 0.
EDGE_COORDS = [0.0, -0.0, SENTINEL_POS[0], 5e-324, -5e-324, W, H, W / 2, 0.2, 0.27]


# --- The numpy forms -------------------------------------------------------------


def numpy_goal_discrepancies(state, goal_state):
    """`_goal_discrepancies` on numpy arrays."""
    if state.ids != goal_state.ids:
        raise InvalidGoalError(f"block id sets differ: {state.ids} vs {goal_state.ids}")
    lost = is_lost(state.positions) | is_lost(goal_state.positions)
    deltas = np.where(lost[:, None], 0.0, goal_state.positions - state.positions)
    return deltas, np.sqrt(np.add.reduce(deltas * deltas, 1))


def numpy_bounded(block, delta, norm, u_max):
    """`ControlAction.bounded` of a displacement array."""
    d = delta / norm * u_max if norm > u_max else delta
    return ControlAction(block, (float(d[0]), float(d[1])))


def numpy_goal_policy(state, goal_state, wcfg, mcfg):
    deltas, norms = numpy_goal_discrepancies(state, goal_state)
    idx = int(np.argmax(norms))
    if norms[idx] <= mcfg.goal_eps:
        return ControlAction(target_block=state.ids[idx], displacement=(0.0, 0.0))
    return numpy_bounded(state.ids[idx], deltas[idx], norms[idx], wcfg.u_max)


def numpy_inverse_dynamics(frame_a, frame_b, wcfg):
    deltas, norms = numpy_goal_discrepancies(frame_a, frame_b)
    idx = int(np.argmax(norms))
    return numpy_bounded(frame_a.ids[idx], deltas[idx], norms[idx], wcfg.u_max)


def numpy_controller(state, goal_state, wcfg, mcfg):
    """The controller of `simulator_submodels` on numpy arrays."""
    if numpy_goal_discrepancies(state, goal_state)[1].max() > mcfg.controller_reach:
        return None
    return numpy_goal_policy(state, goal_state, wcfg, mcfg)


# --- Comparison ------------------------------------------------------------------


def control_bits(u):
    """A control as its block and the bytes of its displacement, so that NaN
    components compare by their bits; each component must be a float."""
    if u is None:
        return None
    assert {type(x) for x in u.displacement} == {float}, u
    return u.target_block, np.array(u.displacement).tobytes()


def assert_controls_like_numpy(a, b, wcfg=WCFG, mcfg=MCFG):
    """`goal_policy`, `inverse_dynamics` and the simulator controller of the
    frames ``a`` and ``b`` equal their numpy forms."""
    with np.errstate(all="ignore"):
        want = [
            numpy_goal_policy(a, b, wcfg, mcfg),
            numpy_inverse_dynamics(a, b, wcfg),
            numpy_controller(a, b, wcfg, mcfg),
        ]
    got = [
        goal_policy(a, b, wcfg, mcfg),
        inverse_dynamics(a, b, wcfg),
        simulator_submodels(wcfg, mcfg).controller(a, b),
    ]
    assert list(map(control_bits, got)) == list(map(control_bits, want)), (
        a.positions.tolist(),
        b.positions.tolist(),
    )
    return got


def assert_predicate_like_numpy(positions, colors, goal, cfg=WCFG):
    """`satisfied_rows`, `is_complete` and `reward` equal `satisfied` per
    block; returns its flags."""
    positions = np.array(positions, dtype=float)
    with np.errstate(all="ignore"):
        want = satisfied(positions, colors, goal, cfg).tolist()
    assert satisfied_rows(positions.tolist(), colors, goal, cfg) == want, (
        positions.tolist(),
        colors,
        goal,
    )
    state = WorldState(tuple(range(len(colors))), tuple(colors), positions)
    assert is_complete(state, goal, cfg) is all(want)
    assert reward(state, goal, cfg) == 100.0 * np.count_nonzero(want) / len(want)
    return want


# --- The lost test ---------------------------------------------------------------


def test_lost_rows_equals_is_lost():
    coords = EDGE_COORDS + NON_FINITE
    pos = np.array([(x, y) for x in coords for y in coords])
    assert lost_rows(pos.tolist()) == is_lost(pos).tolist()


# --- The goal predicate ----------------------------------------------------------


def last_inside(inside, lo, hi):
    """The largest float t in [lo, hi) with ``inside(t)``, where ``inside``
    holds at ``lo``, fails at ``hi`` and turns once in between."""
    assert inside(lo) and not inside(hi)
    while math.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def around(t):
    return [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]


# Families of states with one parameter t, the distance of block 0 past a
# region's edge (its offset from the region's middle for make_line and
# group-by-color), each with the t of its geometric edge under ``cfg``.
# Block 1 stays inside, so that block 0 alone decides completion.
def line_family(cfg, sign):
    mid = cfg.width / 2
    return make_line(), lambda t: [(mid + sign * t, 0.2), (mid, 0.1)], (RED, BLUE), cfg.line_dist


def group_family(cfg, ux, uy, x0=0.2):
    def positions(t):
        return [(x0 + ux * t, 0.15 + uy * t), (x0, 0.15)]

    return group_by_color(), positions, (RED, RED), cfg.group_dist


def area_family(cfg, corner, ux, uy):
    cx, cy = cfg.corner_xy(corner)
    # Inward from the corner: the edge of the area sits at area_dx, area_dy.
    sx, sy = (1.0 if cx == 0.0 else -1.0), (1.0 if cy == 0.0 else -1.0)
    inside = (cx + sx * cfg.area_dx / 2, cy + sy * cfg.area_dy / 2)

    def positions(t):
        x = cx + sx * (cfg.area_dx + ux * t) if ux else inside[0]
        y = cy + sy * (cfg.area_dy + uy * t) if uy else inside[1]
        return [(x, y), inside]

    return move_to_area(corner), positions, (RED, BLUE), 0.0


FAMILIES = {
    "line_right": lambda cfg: line_family(cfg, 1.0),
    "line_left": lambda cfg: line_family(cfg, -1.0),
    "group_along_x": lambda cfg: group_family(cfg, 1.0, 0.0),
    "group_diagonal": lambda cfg: group_family(cfg, 0.6, 0.8),
    # From x = 0 a gap is t itself, so a distance of exactly `GOAL_TOL` past
    # the reach is met.
    "group_from_the_board_edge": lambda cfg: group_family(cfg, 1.0, 0.0, x0=0.0),
    **{
        f"area_{corner.value}_{axis}": lambda cfg, corner=corner, unit=unit: area_family(
            cfg, corner, *unit
        )
        for corner in Corner
        for axis, unit in (("x", (1.0, 0.0)), ("y", (0.0, 1.0)), ("xy", (1.0, 1.0)))
    },
}
# Thresholds other than the defaults: each float edge rounds its own way.
CONFIGS = {
    "default": WCFG,
    "zero_reach": dataclasses.replace(WCFG, group_dist=0.0, line_dist=0.0),
    "other": dataclasses.replace(WCFG, group_dist=0.07, line_dist=0.03, area_dx=0.15, area_dy=0.11),
}

CFGS = list(CONFIGS.values())


@pytest.mark.parametrize("lost", [False, True], ids=["on_board", "with_a_lost_block"])
@pytest.mark.parametrize("cfg", CFGS, ids=list(CONFIGS))
@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_predicate_at_each_edge_and_one_ulp_either_side(family, cfg, lost):
    """At the region's geometric edge, at `GOAL_TOL` past it, and at the
    last t inside, each with the float either side. A lost block, one not
    counted in any group, makes the other blocks be measured from the board
    point nearest to them."""
    goal, positions, colors, edge = family(cfg)
    extra = [SENTINEL_POS] if lost else []
    colors = (*colors, Color.GREEN) if lost else colors

    def inside(t):
        return all(assert_predicate_like_numpy(positions(t) + extra, colors, goal, cfg)[:2])

    tol_edge = last_inside(inside, edge, edge + 1e-6)
    for t in around(edge) + around(edge + GOAL_TOL) + around(tol_edge):
        assert_predicate_like_numpy(positions(t) + extra, colors, goal, cfg)
    assert not inside(math.nextafter(tol_edge, math.inf))


@pytest.mark.parametrize("goal", GOALS, ids=GOAL_IDS)
def test_predicate_with_no_peer_and_all_blocks_lost(goal):
    assert_predicate_like_numpy([(0.1, 0.1)], (RED,), goal)
    assert_predicate_like_numpy([SENTINEL_POS, SENTINEL_POS, (0.1, 0.1)], (RED, RED, BLUE), goal)
    assert_predicate_like_numpy([SENTINEL_POS] * 3, (RED, RED, BLUE), goal)


# Near-edge values of each goal: the line band, the area bounds of every
# corner and a group's reach from the board's middle, exactly and past the
# tolerance.
NEAR_EDGE = sorted(
    {
        *(W / 2 + s * WCFG.line_dist for s in (-1, 1)),
        WCFG.area_dx,
        W - WCFG.area_dx,
        WCFG.area_dy,
        H - WCFG.area_dy,
        W / 2 + WCFG.group_dist,
        H / 2 + WCFG.group_dist,
    }
)
COORD = st.one_of(
    st.floats(-0.05, W + 0.05),
    st.sampled_from(EDGE_COORDS),
    st.sampled_from(NEAR_EDGE).flatmap(lambda v: st.sampled_from(around(v))),
)


@st.composite
def predicate_cases(draw, coord=COORD):
    """1-12 blocks of up to four colors, some sharing a point, a goal and
    one of `CONFIGS`."""
    n = draw(st.integers(1, 12))
    positions = [[draw(coord), draw(coord)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        positions[draw(st.integers(0, n - 1))] = list(positions[draw(st.integers(0, n - 1))])
    colors = draw(st.lists(st.sampled_from(Color), min_size=n, max_size=n))
    return positions, tuple(colors), draw(st.sampled_from(GOALS)), draw(st.sampled_from(CFGS))


@PROPERTY
@given(predicate_cases())
def test_predicate_equals_satisfied(case):
    assert_predicate_like_numpy(*case)


@PROPERTY
@given(predicate_cases(st.one_of(COORD, st.sampled_from(NON_FINITE))))
def test_predicate_equals_satisfied_on_non_finite_coordinates(case):
    """NaN and infinite coordinates: no run makes one, as configs and the
    true step refuse non-finite values, yet the forms agree on them too."""
    assert_predicate_like_numpy(*case)


# --- The controllers ---------------------------------------------------------------


def test_bounded_equals_the_array_form():
    """Every pair of edge components, at u_max and at a larger and a smaller
    one, its norm the square root of the sum of two rounded squares."""
    parts = [0.0, -0.0, 5e-324, 1e-200, 0.01, -0.03, 0.3, 1e154, 1e200, -1.7e308, *NON_FINITE]
    for u_max in (WCFG.u_max, 1.0, 5e-324):
        for dx in parts:
            for dy in parts:
                norm = math.sqrt(dx * dx + dy * dy)
                got = ControlAction.bounded(3, dx, dy, norm, u_max)
                with np.errstate(all="ignore"):
                    want = numpy_bounded(3, np.array([dx, dy]), norm, u_max)
                assert control_bits(got) == control_bits(want), (dx, dy, u_max)


def dyadic(k):
    return k / 256


def test_ties_in_the_largest_norm_go_to_the_first_block():
    """Three pushes of one exact length 5/256, in each order: the first
    block wins, as it does under `np.argmax`."""
    starts = [(0.125, 0.125), (0.25, 0.125), (0.375, 0.125)]
    pushes = [(dyadic(3), dyadic(4)), (dyadic(-4), dyadic(3)), (dyadic(5), 0.0)]
    for r in range(3):
        order = pushes[r:] + pushes[:r]
        a = make_state(starts)
        b = make_state([(x + dx, y + dy) for (x, y), (dx, dy) in zip(starts, order)])
        for u in assert_controls_like_numpy(a, b)[:2]:
            assert u == ControlAction(0, order[0])


def test_nan_and_infinite_norms():
    """A NaN norm wins over any other, as under `np.argmax`: the simulator
    controller does not abstain, and the push is not bounded. An infinite
    push is bounded to a NaN component. `step_true` refuses both."""
    a = make_state([(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)])
    for far in ((0.4, 0.1), (math.inf, 0.1)):
        for bad in ((math.nan, 0.1), (0.1, -math.nan), (math.inf, 0.1), (-math.inf, 0.1)):
            for i in range(3):
                b = make_state([(0.1, 0.1), far, (0.3, 0.1)])
                b = b.with_positions(np.where(np.arange(3)[:, None] == i, bad, b.positions))
                assert_controls_like_numpy(a, b)
                assert_controls_like_numpy(b, a)


# Offsets on a 1/1024 grid: coordinates on it subtract exactly, so equal
# norms, and so ties, are common.
STEP = st.integers(-40, 40).map(lambda k: k / 1024)
GRID = st.integers(-64, 640).map(lambda k: k / 1024)


@st.composite
def frame_pairs(draw, coord):
    """Two frames of the same 1-12 blocks: each block stays, steps on the
    grid, goes anywhere or is lost in the second; the reach, ``goal_eps``
    and ``u_max`` vary around their defaults."""
    n = draw(st.integers(1, 12))
    a = [(draw(coord), draw(coord)) for _ in range(n)]
    b = []
    for x, y in a:
        kind = draw(st.sampled_from(["stay", "step", "anywhere", "lost"]))
        if kind == "stay":
            b.append((x, y))
        elif kind == "step":
            b.append((x + draw(STEP), y + draw(STEP)))
        elif kind == "anywhere":
            b.append((draw(coord), draw(coord)))
        else:
            b.append(SENTINEL_POS)
    if draw(st.booleans()):
        a, b = b, a
    wcfg = dataclasses.replace(WCFG, u_max=draw(st.sampled_from([WCFG.u_max, 0.01, 1.0])))
    mcfg = dataclasses.replace(
        MCFG,
        push_reach=draw(st.sampled_from([MCFG.push_reach, 0.02, 2.0])),
        goal_eps=draw(st.sampled_from([MCFG.goal_eps, 0.0, 0.05])),
    )
    return make_state(a), make_state(b), wcfg, mcfg


CONTROL_COORD = st.one_of(GRID, st.floats(-0.05, W + 0.05), st.sampled_from(EDGE_COORDS))


@PROPERTY
@given(frame_pairs(CONTROL_COORD))
def test_controllers_equal_the_numpy_forms(case):
    assert_controls_like_numpy(*case)


@PROPERTY
@given(frame_pairs(st.one_of(CONTROL_COORD, st.sampled_from(NON_FINITE + [1e200, -1e200]))))
def test_controllers_equal_the_numpy_forms_on_non_finite_coordinates(case):
    """NaN, infinite and overflowing coordinates: no run makes one, yet the
    forms agree on them too."""
    assert_controls_like_numpy(*case)


def test_controllers_refuse_frames_of_other_blocks():
    a, b = make_state([(0.1, 0.1)]), make_state([(0.1, 0.1), (0.2, 0.2)])
    for control in (goal_policy, inverse_dynamics, simulator_submodels().controller):
        with pytest.raises(InvalidGoalError):
            control(a, b)
