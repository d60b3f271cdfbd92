import numpy as np
import pytest

from blockplan.errors import CapacityError, InvalidActionError
from blockplan.seeding import rng_from
from blockplan.submodels import heuristic
from blockplan.world import (
    GOAL_TOL,
    SENTINEL_POS,
    Color,
    ControlAction,
    Corner,
    EPS_GEOM,
    TaskGoal,
    GoalKind,
    WorldConfig,
    WorldState,
    goal_distance,
    group_by_color,
    is_complete,
    is_lost,
    make_line,
    move_to_area,
    reward,
    sample_initial_state,
    step_true,
)

from helpers import make_state

NOISE_FREE = WorldConfig(sigma_env=0.0)


class TestStepTrue:
    def test_noise_free_translation(self):
        s = make_state([(0.30, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), rng_from(0), cfg=NOISE_FREE)
        assert np.allclose(out.positions[0], (0.32, 0.20))

    def test_disk_separation_hand_solved(self):
        # A pushed to x=0.32, B at 0.33: gap 0.01 < 0.04, so each moves
        # 0.015 along the +x contact normal -> 0.305 and 0.345.
        s = make_state([(0.30, 0.20), (0.33, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), rng_from(0), cfg=NOISE_FREE)
        assert np.allclose(out.positions[0], (0.305, 0.20))
        assert np.allclose(out.positions[1], (0.345, 0.20))
        d = np.linalg.norm(out.positions[0] - out.positions[1])
        assert d == pytest.approx(2 * NOISE_FREE.block_radius)

    def test_coincident_centers_separate_along_x(self):
        # Coincident centres have no contact normal; they are pushed apart
        # along +x by half the overlap each, leaving y untouched.
        s = make_state([(0.3, 0.175), (0.3, 0.175)])
        out = step_true(s, ControlAction(0, (0.0, 0.0)), rng_from(0), cfg=NOISE_FREE)
        assert out.positions[0][0] == pytest.approx(0.28, abs=EPS_GEOM)
        assert out.positions[1][0] == pytest.approx(0.32, abs=EPS_GEOM)
        assert out.positions[0][1] == out.positions[1][1] == 0.175
        d = out.positions[1][0] - out.positions[0][0]
        assert d == pytest.approx(2 * NOISE_FREE.block_radius, abs=EPS_GEOM)

    def test_clamp_at_board_edge(self):
        s = make_state([(0.59, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), rng_from(0), cfg=NOISE_FREE)
        assert out.positions[0][0] == pytest.approx(0.6)

    def test_unknown_block_rejected(self):
        s = make_state([(0.30, 0.20)])
        with pytest.raises(InvalidActionError):
            step_true(s, ControlAction(5, (0.01, 0.0)), rng_from(0), cfg=NOISE_FREE)

    def test_oversized_control_rejected(self):
        s = make_state([(0.30, 0.20)])
        with pytest.raises(InvalidActionError):
            step_true(s, ControlAction(0, (0.05, 0.0)), rng_from(0), cfg=NOISE_FREE)

    def test_deterministic_in_seed(self):
        s = sample_initial_state(5, seed=3)
        u = ControlAction(2, (0.01, -0.01))
        a = step_true(s, u, rng_from(11))
        b = step_true(s, u, rng_from(11))
        assert np.array_equal(a.positions, b.positions)

    def test_block_conservation_and_non_overlap(self):
        cfg = WorldConfig()
        s = sample_initial_state(8, seed=5, cfg=cfg)
        rng = np.random.default_rng(0)
        for step in range(50):
            bid = int(rng.integers(0, 8))
            vec = rng.normal(0, 0.01, 2)
            m = np.linalg.norm(vec)
            if m > cfg.u_max:
                vec = vec / m * cfg.u_max
            s = step_true(s, ControlAction(bid, (vec[0], vec[1])), rng_from(step), cfg=cfg)
            assert s.ids == tuple(range(8))
            assert len(s.colors) == 8
            for i in range(8):
                for j in range(i + 1, 8):
                    d = np.linalg.norm(s.positions[i] - s.positions[j])
                    assert d >= 2 * cfg.block_radius - EPS_GEOM
            assert np.all(s.positions[:, 0] >= 0) and np.all(s.positions[:, 0] <= cfg.width)
            assert np.all(s.positions[:, 1] >= 0) and np.all(s.positions[:, 1] <= cfg.height)


class TestReward:
    def test_grouped_pairs_full_score(self):
        s = make_state(
            [(0.1, 0.1), (0.15, 0.12), (0.4, 0.3), (0.45, 0.28)],
            colors=[Color.RED, Color.RED, Color.BLUE, Color.BLUE],
        )
        assert reward(s, group_by_color()) == 100.0

    def test_no_pair_close_zero_score(self):
        s = make_state(
            [(0.05, 0.05), (0.55, 0.30), (0.05, 0.30), (0.55, 0.05)],
            colors=[Color.RED, Color.RED, Color.BLUE, Color.BLUE],
        )
        assert reward(s, group_by_color()) == 0.0

    def test_half_grouped_half_score(self):
        s = make_state(
            [(0.1, 0.1), (0.15, 0.12), (0.4, 0.3), (0.55, 0.05)],
            colors=[Color.RED, Color.RED, Color.BLUE, Color.BLUE],
        )
        assert reward(s, group_by_color()) == 50.0

    def test_move_to_area_thresholds(self):
        cfg = WorldConfig()
        # 0.2 x-units and 0.27 y-units of the top-right corner (0.6, 0.35).
        inside = make_state([(0.41, 0.09)])
        outside = make_state([(0.39, 0.09)])
        goal = move_to_area(Corner.TOP_RIGHT)
        assert reward(inside, goal, cfg) == 100.0
        assert reward(outside, goal, cfg) == 0.0

    def test_make_line_band(self):
        goal = make_line()
        on = make_state([(0.26, 0.1), (0.34, 0.3)])
        off = make_state([(0.26, 0.1), (0.36, 0.3)])
        assert reward(on, goal) == 100.0
        assert reward(off, goal) == 50.0

    def test_reward_bounds_random_states(self):
        for seed in range(30):
            s = sample_initial_state(7, seed=seed)
            for goal in (move_to_area(Corner.BOTTOM_LEFT), group_by_color(), make_line()):
                r = reward(s, goal)
                assert 0.0 <= r <= 100.0
                assert (r == 100.0) == is_complete(s, goal)


class TestIsComplete:
    def test_complete_iff_full_reward(self):
        s = make_state(
            [(0.1, 0.1), (0.15, 0.12)], colors=[Color.RED, Color.RED]
        )
        assert is_complete(s, group_by_color())

    def test_partial_not_complete(self):
        s = make_state(
            [(0.1, 0.1), (0.15, 0.12), (0.4, 0.3), (0.55, 0.05)],
            colors=[Color.RED, Color.RED, Color.BLUE, Color.BLUE],
        )
        assert not is_complete(s, group_by_color())

    def test_seeded_random_scatter_incomplete(self):
        s = sample_initial_state(8, seed=123)
        assert reward(s, group_by_color()) < 100.0
        assert not is_complete(s, group_by_color())


class TestLostBlocks:
    """One rule for a lost block, shared by the goal predicate and the heuristic."""

    def test_is_lost_is_off_the_board(self):
        p = np.array([SENTINEL_POS, (0.0, 0.0), (-1e-12, 0.2), (0.3, 0.35)])
        assert is_lost(p).tolist() == [True, False, True, False]

    def test_all_vanished_color_is_not_complete(self):
        # Each red block is measured from the board corner nearest to it, and
        # its peer still sits at the sentinel, farther than group_dist away.
        s = make_state(
            [SENTINEL_POS, SENTINEL_POS, (0.3, 0.2)], colors=[Color.RED, Color.RED, Color.BLUE]
        )
        goal = group_by_color()
        assert heuristic([s], goal)[0] == -28.0
        assert not is_complete(s, goal)
        assert reward(s, goal) == pytest.approx(100.0 / 3)

    def test_vanished_block_in_the_corner_area_is_complete(self):
        # The board point nearest to the sentinel is the bottom-left corner.
        s = make_state([SENTINEL_POS])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        assert heuristic([s], goal)[0] == 0.0
        assert is_complete(s, goal)
        assert reward(s, goal) == 100.0

    def test_block_within_tolerance_of_its_region_is_satisfied(self):
        cfg = WorldConfig()
        goal = make_line()
        for dx, inside in ((GOAL_TOL / 2, True), (1e-6, False)):
            s = make_state([(cfg.width / 2 + cfg.line_dist + dx, 0.2)])
            assert (goal_distance(s.positions, s.colors, goal, cfg)[0] <= GOAL_TOL) == inside
            assert is_complete(s, goal, cfg) == inside == (heuristic([s], goal, cfg)[0] == 0.0)


class TestSampleInitialState:
    def test_same_seed_identical(self):
        a = sample_initial_state(6, seed=9)
        b = sample_initial_state(6, seed=9)
        assert np.array_equal(a.positions, b.positions)
        assert a.colors == b.colors

    def test_eight_blocks_non_overlapping(self):
        cfg = WorldConfig()
        s = sample_initial_state(8, seed=1, cfg=cfg)
        assert s.n_blocks == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(s.positions[i] - s.positions[j]) >= 2 * cfg.block_radius

    def test_colors_cycle(self):
        s = sample_initial_state(6, seed=0)
        assert s.colors[:4] == (Color.RED, Color.BLUE, Color.GREEN, Color.YELLOW)
        assert s.colors[4] == Color.RED

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sample_initial_state(100000, seed=0)
        with pytest.raises(CapacityError):  # a block wider than the board
            sample_initial_state(3, seed=0, cfg=WorldConfig(block_radius=1e300))
        with pytest.raises(CapacityError):  # one block, but taller than the board
            sample_initial_state(1, seed=0, cfg=WorldConfig(width=10, block_radius=0.2))

    def test_block_area_underflowing_to_zero_sets_no_bound(self):
        s = sample_initial_state(2, seed=0, cfg=WorldConfig(block_radius=1e-200))
        assert s.n_blocks == 2


class TestWithPositions:
    def test_keeps_everything_but_positions(self):
        s = WorldState((3, 7), (Color.RED, Color.BLUE), np.zeros((2, 2)))
        moved = s.with_positions([(0.1, 0.2), (0.3, 0.4)])
        assert (moved.ids, moved.colors) == (s.ids, s.colors)
        assert moved.positions.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_copies_its_input(self):
        s = make_state([(0.1, 0.1), (0.5, 0.3)])
        pos = np.array([(0.2, 0.2), (0.4, 0.1)])
        moved = s.with_positions(pos)
        pos[0] = (0.0, 0.0)
        assert moved.positions.tolist() == [[0.2, 0.2], [0.4, 0.1]]

    def test_rejects_wrong_shape(self):
        s = make_state([(0.1, 0.1), (0.5, 0.3)])
        for bad in (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(ValueError):
                s.with_positions(bad)


class TestTaskGoal:
    def test_text_unique_per_kind(self):
        texts = {g.text for g in (move_to_area(Corner.TOP_LEFT), move_to_area(Corner.TOP_RIGHT), group_by_color(), make_line())}
        assert len(texts) == 4

    def test_corner_required(self):
        with pytest.raises(ValueError):
            TaskGoal(GoalKind.MOVE_TO_AREA)
        with pytest.raises(ValueError):
            TaskGoal(GoalKind.MAKE_LINE, corner=Corner.TOP_LEFT)
