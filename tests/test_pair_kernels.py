"""Oracle tests of the block-pair kernels of `blockplan.world`: the true
step `step_true` with its collision pass, which run on Python floats, and the
group-by-color `goal_distance`, which measures only same-color pairs. Each
oracle is a numpy form the kernel replaced, kept here, and each kernel must
equal it byte for byte."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan.errors import InvalidActionError
from blockplan.seeding import rng_from
from blockplan.world import (
    SENTINEL_POS,
    Color,
    ControlAction,
    WorldConfig,
    WorldState,
    _clamp,
    _resolve_collisions,
    goal_distance,
    group_by_color,
    step_true,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)
WCFG = WorldConfig()
W, H = WCFG.board


def full_gauss_seidel(positions, cfg):
    """Collision resolution measuring every pair on every pass."""
    pos = positions.copy()
    n = pos.shape[0]
    min_d = 2.0 * cfg.block_radius
    for _ in range(cfg.collision_iters):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                delta = pos[j] - pos[i]
                d = float(np.sqrt(np.add.reduce(delta * delta)))
                if d >= min_d:
                    continue
                if d < 1e-12:
                    normal = np.array([1.0, 0.0])
                else:
                    normal = delta / d
                shift = 0.5 * (min_d - d)
                pos[i] -= shift * normal
                pos[j] += shift * normal
                moved = True
        pos = np.clip(pos, 0.0, cfg.board)
        if not moved:
            break
    return pos


def numpy_step_true(state, u, rng, cfg):
    """`step_true` on numpy arrays, with `full_gauss_seidel` as its
    collision pass."""
    idx = state.index_of(u.target_block)
    vec = np.array(u.displacement, dtype=float)
    dx, dy = vec.tolist()
    magnitude = math.sqrt(dx * dx + dy * dy)
    if not magnitude <= cfg.u_max + 1e-9:
        raise InvalidActionError(f"control magnitude {magnitude:.6f} exceeds u_max {cfg.u_max}")
    noise = rng.normal(0.0, cfg.sigma_env, 2)
    pos = state.positions.copy()
    pos[idx] = pos[idx] + vec + noise
    pos = np.clip(pos, 0.0, cfg.board)
    return state.with_view(full_gauss_seidel(pos, cfg))


def all_pairs_goal_distance(positions, colors, cfg):
    """Group-by-color `goal_distance` over every ordered pair of blocks."""
    own = positions
    if (positions < 0.0).any():
        own = np.clip(positions, 0.0, cfg.board)
    diff = positions[..., None, :, :] - own[..., :, None, :]
    d = np.sqrt(np.add.reduce(diff * diff, -1))
    c = np.array([color.value for color in colors])
    peer = (c[:, None] == c) & ~np.eye(len(colors), dtype=bool)
    farthest = np.where(peer, d, -np.inf).max(axis=-1, initial=-np.inf)
    return np.maximum(0.0, farthest - cfg.group_dist)


def assert_resolves_like_the_full_pass(positions, cfg):
    positions = np.array(positions, dtype=float)
    got = np.array(_resolve_collisions(positions.tolist(), cfg))
    want = full_gauss_seidel(positions, cfg)
    assert got.tobytes() == want.tobytes(), (positions.tolist(), cfg.block_radius)
    return got


def at_distance(d):
    """A world whose blocks touch at centre distance ``d`` exactly."""
    return dataclasses.replace(WCFG, block_radius=d / 2)


def test_squares_underflowing_to_zero_still_separate():
    """Two blocks at one point with radius 1e-200: their squared gap and
    min_d**2 both underflow to 0, yet the full pass separates them."""
    cfg = dataclasses.replace(WCFG, block_radius=1e-200)
    got = assert_resolves_like_the_full_pass([(0.0, 0.0), (0.0, 0.0)], cfg)
    assert got.tolist() == [[0.0, 0.0], [8e-200, 0.0]]


@pytest.mark.parametrize("radius", [5e-324, 1e-200, 0.02])
def test_coincident_centres(radius):
    cfg = dataclasses.replace(WCFG, block_radius=radius)
    assert_resolves_like_the_full_pass([(0.3, 0.2)] * 3 + [(0.0, 0.0)] * 2, cfg)


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("a, b", [((0.1, 0.1), (0.14, 0.1)), ((0.2, 0.15), (0.23, 0.19))])
def test_pair_at_min_d_and_one_ulp_either_side(a, b, shift):
    d = float(np.linalg.norm(np.subtract(b, a)))
    d = {-1: math.nextafter(d, 0.0), 0: d, 1: math.nextafter(d, math.inf)}[shift]
    assert_resolves_like_the_full_pass([a, b, (0.5, 0.3)], at_distance(d))


@pytest.mark.parametrize(
    "edge", [(0.0, 0.2), (W, 0.2), (0.3, 0.0), (0.3, H), (0.0, 0.0), (W, H)]
)
def test_blocks_pinned_at_each_board_edge(edge):
    """An overlapping pair with one block on the edge: the re-clamp undoes
    half of each separation, so several passes run."""
    inward = np.sign(np.subtract((W / 2, H / 2), edge))
    near = np.add(edge, 0.01 * inward)
    assert_resolves_like_the_full_pass([edge, near, np.add(near, 0.03 * inward)], WCFG)


# Radii down to the smallest subnormal, and radii whose squares underflow.
RADII = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-200, 2.0**-501, 2.0**-500, 2.0**-499, 1e-100, 0.02, 0.05]),
    st.floats(5e-324, 0.1),
)
# Cluster centres: the corners, an edge midpoint and the board centre. Offsets
# too small to move a centre leave coincident blocks there, and clipping pins
# blocks at the edges.
CENTRES = st.sampled_from([(0.0, 0.0), (W, 0.0), (0.0, H), (W, H), (W / 2, 0.0), (W / 2, H / 2)])


@st.composite
def collision_cases(draw):
    """1-12 blocks on the board, scattered or clustered a few diameters
    around a centre, some made coincident, and sometimes one pair set at
    min_d or one ulp either side of it."""
    n = draw(st.integers(1, 12))
    cfg = dataclasses.replace(
        WCFG, block_radius=draw(RADII), collision_iters=draw(st.integers(1, 8))
    )
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        cx, cy = draw(CENTRES)
        spread = 6.0 * cfg.block_radius
        points = [(cx + spread * draw(unit), cy + spread * draw(unit)) for _ in range(n)]
    else:
        points = [(W * draw(st.floats(0.0, 1.0)), H * draw(st.floats(0.0, 1.0))) for _ in range(n)]
    pos = np.clip(np.array(points), 0.0, cfg.board)
    block = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2))):
        pos[draw(block)] = pos[draw(block)]
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(block, min_size=2, max_size=2, unique=True))
        d = float(np.linalg.norm(pos[b] - pos[a]))
        d = draw(st.sampled_from([d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)]))
        if d / 2 > 0.0:
            cfg = dataclasses.replace(cfg, block_radius=d / 2)
    return pos, cfg


@PROPERTY
@given(collision_cases())
def test_resolve_collisions_equals_the_full_pass(case):
    assert_resolves_like_the_full_pass(*case)


@st.composite
def step_cases(draw):
    """A `collision_cases` board, some coordinates set to -0.0, one control
    within ``u_max`` on a drawn block (its components possibly -0.0 or along
    an axis), a noise scale and a generator seed."""
    pos, cfg = draw(collision_cases())
    n = len(pos)
    for _ in range(draw(st.integers(0, 3))):
        pos[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = -0.0
    cfg = dataclasses.replace(cfg, sigma_env=draw(st.sampled_from([0.0, 0.002, 0.05])))
    part = st.one_of(st.sampled_from([0.0, -0.0, 0.02, -0.02]), st.floats(-0.02, 0.02))
    u = ControlAction(draw(st.integers(0, n - 1)), (draw(part), draw(part)))
    state = WorldState((Color.RED,) * n, pos)
    return state, u, draw(st.integers(0, 2**32 - 1)), cfg


@PROPERTY
@given(step_cases())
def test_step_true_equals_the_numpy_step(case):
    state, u, seed, cfg = case
    got = step_true(state, u, rng_from(seed), cfg).positions
    want = numpy_step_true(state, u, rng_from(seed), cfg).positions
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (state.positions.tolist(), u, seed, cfg)


def test_clamp_equals_np_clip():
    """Every pair of edge coordinates: signed zeros, NaNs, infinities, the
    board's own bounds and the subnormals either side of 0."""
    edge = [-0.0, 0.0, math.nan, -math.nan, -1.0, 5e-324, -5e-324, W, H, 0.5, math.inf, -math.inf]
    pos = [[x, y] for x in edge for y in edge]
    want = np.clip(np.array(pos), 0.0, WCFG.board)
    _clamp(pos, WCFG)
    assert np.array(pos).tobytes() == want.tobytes()


def assert_measures_like_all_pairs(positions, colors):
    positions = np.array(positions, dtype=float)
    got = goal_distance(positions, colors, group_by_color(), WCFG)
    want = all_pairs_goal_distance(positions, colors, WCFG)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (positions.tolist(), colors)


RED, BLUE, GREEN = Color.RED, Color.BLUE, Color.GREEN


@pytest.mark.parametrize(
    "colors",
    [(RED,), (RED, RED, RED, RED), (RED, BLUE, RED), (RED, BLUE, GREEN), (RED, RED, BLUE, BLUE)],
)
def test_goal_distance_cases(colors):
    """All blocks of one color, a color with no peer, and lost blocks."""
    rng = np.random.default_rng(len(colors))
    stack = rng.uniform(0.0, 1.0, (3, len(colors), 2)) * WCFG.board
    stack[1, 0] = SENTINEL_POS
    stack[2] = SENTINEL_POS
    assert_measures_like_all_pairs(stack, colors)
    assert_measures_like_all_pairs(stack[0], colors)


@st.composite
def goal_stacks(draw):
    """An ``(R, n, 2)`` stack (or one ``(n, 2)`` set) of 1-12 blocks whose
    colors come from a drawn palette of one to four, some blocks lost at the
    sentinel or just off the board."""
    n = draw(st.integers(1, 12))
    palette = draw(st.lists(st.sampled_from(Color), min_size=1, max_size=4, unique=True))
    colors = tuple(draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    point = st.one_of(
        st.tuples(st.floats(0.0, W), st.floats(0.0, H)),
        st.just(SENTINEL_POS),
        st.tuples(st.floats(-0.1, 0.0, exclude_max=True), st.floats(0.0, H)),
    )
    sets = st.lists(point, min_size=n, max_size=n)
    if draw(st.booleans()):
        return draw(sets), colors
    return draw(st.lists(sets, min_size=1, max_size=4)), colors


@PROPERTY
@given(goal_stacks())
def test_goal_distance_equals_all_pairs(case):
    assert_measures_like_all_pairs(*case)
