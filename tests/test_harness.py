import numpy as np
import pytest

from blockplan.errors import CapacityError, InvalidActionError
from blockplan.harness import (
    AblationGrid,
    brute_force_oracle,
    execution_suite,
    plan_accuracy_suite,
    replay_plan,
    scaling_suite,
)
from blockplan.executor import ExecutionConfig
from blockplan.planner import Plan, Planner, PlannerConfig
from blockplan.submodels import (
    AbstractAction,
    FaultConfig,
    ModelConfig,
    Rollout,
    Target,
    heuristic,
    simulator_submodels,
)
from blockplan.world import (
    Color,
    Corner,
    WorldConfig,
    WorldState,
    group_by_color,
    make_line,
    move_to_area,
)

EXACT_WORLD = WorldConfig(sigma_env=0.0)
EXACT_MODEL = ModelConfig(sigma_model=0.0)


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


class TestOracle:
    def test_zero_horizon_returns_start_value(self):
        s = make_state([(0.05, 0.15), (0.35, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        v, seq = brute_force_oracle(s, goal, 0)
        assert v == heuristic(s, goal)
        assert seq == []

    def test_complete_start(self):
        s = make_state([(0.1, 0.1), (0.13, 0.1)], colors=[Color.RED, Color.RED])
        v, _ = brute_force_oracle(s, group_by_color(), 2)
        assert v == 0.0

    def test_hand_solved_two_block_group(self):
        # Red blocks 0.4 apart: pairwise slack 0.3, so pushing one block a
        # push_reach per action closes it in 3 actions and the two-action
        # oracle still owes one step.
        s = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        assert heuristic(s, goal, EXACT_WORLD, EXACT_MODEL) == -6.0
        v2, _ = brute_force_oracle(s, goal, 2, EXACT_WORLD, EXACT_MODEL)
        v3, seq3 = brute_force_oracle(s, goal, 3, EXACT_WORLD, EXACT_MODEL)
        assert v2 == -2.0
        assert v3 == 0.0
        assert len(seq3) == 3

    def test_capacity_error(self):
        s = make_state([(0.05, 0.15), (0.45, 0.15)])
        with pytest.raises(CapacityError):
            brute_force_oracle(s, make_line(), 4, enumeration_cap=100)

    def test_deterministic_tie_break(self):
        s = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        _, a = brute_force_oracle(s, goal, 2, EXACT_WORLD, EXACT_MODEL)
        _, b = brute_force_oracle(s, goal, 2, EXACT_WORLD, EXACT_MODEL)
        assert a == b


class TestReplayPlan:
    def _plan_with_actions(self, x0, actions):
        sm = simulator_submodels(EXACT_WORLD, EXACT_MODEL)
        segments = []
        state = x0
        for a in actions:
            r = sm.rollout(state, a, seed=0)
            segments.append(r)
            state = r.last
        return Plan(
            start=x0, segments=segments, heuristic_trace=[], final_value=0.0, beam_index=0
        )

    def test_honest_plan_verifies(self):
        x0 = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        a = AbstractAction(0, Target("color_centroid", color=Color.RED))
        plan = self._plan_with_actions(x0, [a, a, a])
        assert replay_plan(x0, plan, goal, seed=0, wcfg=EXACT_WORLD, mcfg=EXACT_MODEL)

    def test_teleport_plan_fails_replay(self):
        # A plan whose frames jump a block across the board cannot be
        # reproduced with the per-action control budget.
        x0 = make_state([(0.02, 0.02), (0.58, 0.33)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        sm = simulator_submodels(
            EXACT_WORLD, EXACT_MODEL, FaultConfig(p_teleport=1.0)
        )
        a = AbstractAction(0, Target("color_centroid", color=Color.RED))
        r = sm.rollout(x0, a, seed=0)
        plan = Plan(start=x0, segments=[r], heuristic_trace=[], final_value=0.0, beam_index=0)
        from blockplan.world import is_complete

        assert is_complete(r.last, goal)  # the model claims success
        assert not replay_plan(x0, plan, goal, seed=0, wcfg=EXACT_WORLD, mcfg=EXACT_MODEL)

    def test_complete_start_trivially_true(self):
        x0 = make_state([(0.1, 0.1), (0.13, 0.1)], colors=[Color.RED, Color.RED])
        plan = Plan(start=x0, segments=[], heuristic_trace=[], final_value=0.0, beam_index=0)
        assert replay_plan(x0, plan, group_by_color())

    def test_absent_block_rejected(self):
        # The planner never names a block the state lacks; a hand-built plan
        # that does is an error, not an action to skip.
        x0 = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        ghost = AbstractAction(7, Target("corner", corner=Corner.TOP_LEFT))
        seg = Rollout(frames=[x0], action=ghost)
        plan = Plan(start=x0, segments=[seg], heuristic_trace=[], final_value=0.0, beam_index=0)
        with pytest.raises(InvalidActionError):
            replay_plan(x0, plan, group_by_color())


class TestSuites:
    CFG = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=4, root_seed=0)

    def test_plan_accuracy_deterministic(self):
        tasks = [group_by_color()]
        a = plan_accuracy_suite(tasks, self.CFG, n=5, n_blocks=5, seed_base=1)
        b = plan_accuracy_suite(tasks, self.CFG, n=5, n_blocks=5, seed_base=1)
        assert a.rows[0].naive_success == b.rows[0].naive_success
        assert a.rows[0].replay_success == b.rows[0].replay_success

    def test_replay_never_exceeds_naive(self):
        tasks = [make_line(), group_by_color()]
        s = plan_accuracy_suite(tasks, self.CFG, n=8, n_blocks=5, seed_base=3)
        for row in s.rows:
            assert 0.0 <= row.replay_success <= row.naive_success <= 1.0

    def test_scaling_suite_labels_and_shape(self):
        grid = AblationGrid(cells=((1, 1, 1, 3), (1, 2, 2, 3)), episodes_per_cell=4, seed_base=2)
        s = scaling_suite(grid, make_line(), n_blocks=5)
        assert [r.label for r in s.rows] == ["B1_A1_D1_H3", "B1_A2_D2_H3"]
        assert all(r.episodes == 4 for r in s.rows)
        lines = s.csv_lines()
        assert lines[0].startswith("label,")
        assert len(lines) == 3

    def test_execution_suite_runs(self):
        pcfg = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=2, root_seed=0)
        s = execution_suite(
            group_by_color(), pcfg, ExecutionConfig(total_budget=300), n=3, n_blocks=5, seed_base=4
        )
        row = s.rows[0]
        assert row.label == "goal_policy_every_frame"
        assert 0.0 <= row.completion_rate <= 1.0
        assert 0.0 <= row.mean_reward <= 100.0

    def test_open_loop_label(self):
        pcfg = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=2, root_seed=0)
        s = execution_suite(
            group_by_color(),
            pcfg,
            ExecutionConfig(total_budget=300),
            n=2,
            n_blocks=5,
            seed_base=4,
            open_loop=True,
        )
        assert s.rows[0].label == "open_loop"

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            AblationGrid(cells=())
        with pytest.raises(ValueError):
            AblationGrid(cells=((1, 1, 1, 1),), episodes_per_cell=0)
