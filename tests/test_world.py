import numpy as np
import pytest

from blockplan.errors import CapacityError, InvalidActionError
from blockplan.world import (
    Color,
    ControlAction,
    Corner,
    EPS_GEOM,
    TaskGoal,
    GoalKind,
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

NOISE_FREE = WorldConfig(sigma_env=0.0)


def make_state(positions, colors=None):
    n = len(positions)
    if colors is None:
        colors = [list(Color)[i % 4] for i in range(n)]
    return WorldState(
        ids=tuple(range(n)),
        colors=tuple(colors),
        positions=np.array(positions, dtype=float),
        board=(0.6, 0.35),
    )


class TestStepTrue:
    def test_noise_free_translation(self):
        s = make_state([(0.30, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), seed=0, cfg=NOISE_FREE)
        assert np.allclose(out.positions[0], (0.32, 0.20))
        assert out.step_count == 1

    def test_disk_separation_hand_solved(self):
        # A pushed to x=0.32, B at 0.33: gap 0.01 < 0.04, so each moves
        # 0.015 along the +x contact normal -> 0.305 and 0.345.
        s = make_state([(0.30, 0.20), (0.33, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), seed=0, cfg=NOISE_FREE)
        assert np.allclose(out.positions[0], (0.305, 0.20))
        assert np.allclose(out.positions[1], (0.345, 0.20))
        d = np.linalg.norm(out.positions[0] - out.positions[1])
        assert d == pytest.approx(2 * NOISE_FREE.block_radius)

    def test_coincident_centers_separate_along_x(self):
        # Coincident centres have no contact normal; they are pushed apart
        # along +x by half the overlap each, leaving y untouched.
        s = make_state([(0.3, 0.175), (0.3, 0.175)])
        out = step_true(s, ControlAction(0, (0.0, 0.0)), seed=0, cfg=NOISE_FREE)
        assert out.positions[0][0] == pytest.approx(0.28, abs=EPS_GEOM)
        assert out.positions[1][0] == pytest.approx(0.32, abs=EPS_GEOM)
        assert out.positions[0][1] == out.positions[1][1] == 0.175
        d = out.positions[1][0] - out.positions[0][0]
        assert d == pytest.approx(2 * NOISE_FREE.block_radius, abs=EPS_GEOM)

    def test_clamp_at_board_edge(self):
        s = make_state([(0.59, 0.20)])
        out = step_true(s, ControlAction(0, (0.02, 0.0)), seed=0, cfg=NOISE_FREE)
        assert out.positions[0][0] == pytest.approx(0.6)

    def test_unknown_block_rejected(self):
        s = make_state([(0.30, 0.20)])
        with pytest.raises(InvalidActionError):
            step_true(s, ControlAction(5, (0.01, 0.0)), seed=0, cfg=NOISE_FREE)

    def test_oversized_control_rejected(self):
        s = make_state([(0.30, 0.20)])
        with pytest.raises(InvalidActionError):
            step_true(s, ControlAction(0, (0.05, 0.0)), seed=0, cfg=NOISE_FREE)

    def test_deterministic_in_seed(self):
        s = sample_initial_state(5, seed=3)
        u = ControlAction(2, (0.01, -0.01))
        a = step_true(s, u, seed=11)
        b = step_true(s, u, seed=11)
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
            s = step_true(s, ControlAction(bid, (vec[0], vec[1])), seed=step, cfg=cfg)
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


class TestTaskGoal:
    def test_text_unique_per_kind(self):
        texts = {g.text for g in (move_to_area(Corner.TOP_LEFT), move_to_area(Corner.TOP_RIGHT), group_by_color(), make_line())}
        assert len(texts) == 4

    def test_corner_required(self):
        with pytest.raises(ValueError):
            TaskGoal(GoalKind.MOVE_TO_AREA)
        with pytest.raises(ValueError):
            TaskGoal(GoalKind.MAKE_LINE, corner=Corner.TOP_LEFT)
