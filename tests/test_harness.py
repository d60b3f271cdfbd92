from dataclasses import replace

import pytest

from blockplan.config import RunConfig
from blockplan.errors import CapacityError, ConfigError, InvalidActionError
from blockplan.harness import (
    brute_force_oracle,
    execution_suite,
    plan_accuracy_suite,
    replay_plan,
    scaling_suite,
)
from blockplan.executor import ExecutionConfig
from blockplan.planner import Plan, Planner, PlannerConfig
from blockplan.seeding import rng_from
from blockplan.submodels import (
    AbstractAction,
    FaultConfig,
    Rollout,
    Target,
    heuristic,
    simulator_submodels,
)
from blockplan.world import (
    Color,
    Corner,
    group_by_color,
    make_line,
    move_to_area,
)

from helpers import EXACT_MODEL, EXACT_WORLD, make_state


class TestOracle:
    def test_zero_horizon_returns_start_value(self):
        s = make_state([(0.05, 0.15), (0.35, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        v, seq = brute_force_oracle(s, goal, 0)
        assert v == heuristic([s], goal)[0]
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
        assert heuristic([s], goal, EXACT_WORLD, EXACT_MODEL)[0] == -6.0
        v2, _ = brute_force_oracle(s, goal, 2, EXACT_WORLD, EXACT_MODEL)
        v3, seq3 = brute_force_oracle(s, goal, 3, EXACT_WORLD, EXACT_MODEL)
        assert v2 == -2.0
        assert v3 == 0.0
        assert len(seq3) == 3

    def test_capacity_error(self):
        # 16 actions over horizon 5 exceed the cap; the check runs before any node.
        s = make_state([(0.05, 0.15), (0.45, 0.15)])
        with pytest.raises(CapacityError):
            brute_force_oracle(s, make_line(), 5)

    def test_negative_horizon_is_a_config_error(self):
        s = make_state([(0.05, 0.15), (0.45, 0.15)])
        with pytest.raises(ConfigError, match="horizon must be >= 0, got -1"):
            brute_force_oracle(s, group_by_color(), -1)

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
            r = sm.rollout(state, a, rng_from(0))
            segments.append(r)
            state = r.last
        return Plan(start=x0, segments=segments, final_value=0.0, beam_index=0)

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
        r = sm.rollout(x0, a, rng_from(0))
        plan = Plan(start=x0, segments=[r], final_value=0.0, beam_index=0)
        from blockplan.world import is_complete

        assert is_complete(r.last, goal)  # the model claims success
        assert not replay_plan(x0, plan, goal, seed=0, wcfg=EXACT_WORLD, mcfg=EXACT_MODEL)

    def test_complete_start_trivially_true(self):
        x0 = make_state([(0.1, 0.1), (0.13, 0.1)], colors=[Color.RED, Color.RED])
        plan = Plan(start=x0, segments=[], final_value=0.0, beam_index=0)
        assert replay_plan(x0, plan, group_by_color())

    def test_absent_block_rejected(self):
        # The planner never names a block the state lacks; a hand-built plan
        # that does is an error, not an action to skip.
        x0 = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        ghost = AbstractAction(7, Target("corner", corner=Corner.TOP_LEFT))
        seg = Rollout(start=x0, positions=x0.positions[None], action=ghost)
        plan = Plan(start=x0, segments=[seg], final_value=0.0, beam_index=0)
        with pytest.raises(InvalidActionError):
            replay_plan(x0, plan, group_by_color())

    def test_centroid_of_an_absent_color_rejected(self):
        # The two red blocks are apart, so the start is not complete and the
        # push to a yellow centroid, which no block has, is resolved.
        x0 = make_state(
            [(0.05, 0.15), (0.45, 0.15), (0.3, 0.3)], colors=[Color.RED, Color.RED, Color.BLUE]
        )
        to_yellow = AbstractAction(0, Target("color_centroid", color=Color.YELLOW))
        seg = Rollout(start=x0, positions=x0.positions[None], action=to_yellow)
        plan = Plan(start=x0, segments=[seg], final_value=0.0, beam_index=0)
        with pytest.raises(InvalidActionError):
            replay_plan(x0, plan, group_by_color())


class TestSuites:
    CFG = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=4, root_seed=0)
    EXEC_CFG = RunConfig(
        task=group_by_color(),
        planner=PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=2, root_seed=0),
        execution=ExecutionConfig(total_budget=300),
        n_blocks=5,
        seeds=(4,),
    )

    def test_plan_accuracy_deterministic(self):
        cfg = RunConfig(task=group_by_color(), planner=self.CFG, n_blocks=5, seeds=(1,))
        a = plan_accuracy_suite(cfg, n=5)
        b = plan_accuracy_suite(cfg, n=5)
        assert a.naive_success == b.naive_success
        assert a.replay_success == b.replay_success

    def test_replay_never_exceeds_naive(self):
        for task in [make_line(), group_by_color()]:
            cfg = RunConfig(task=task, planner=self.CFG, n_blocks=5, seeds=(3,))
            row = plan_accuracy_suite(cfg, n=8)
            assert 0.0 <= row.replay_success <= row.naive_success <= 1.0

    def test_scaling_suite_labels_and_shape(self):
        cfg = RunConfig(task=make_line(), n_blocks=5, seeds=(2,))
        cells = [PlannerConfig(beams=1, text_branch=a, video_branch=a, horizon=3) for a in (1, 2)]
        rows = scaling_suite(cfg, cells, 4)
        assert [r.label for r in rows] == ["B1_A1_D1_H3", "B1_A2_D2_H3"]
        assert all(r.episodes == 4 for r in rows)

    def test_execution_suite_runs(self):
        row = execution_suite(self.EXEC_CFG, n=3)
        assert row.label == "goal_policy_every_frame"
        assert 0.0 <= row.completion_rate <= 1.0
        assert 0.0 <= row.mean_reward <= 100.0

    def test_open_loop_label(self):
        row = execution_suite(self.EXEC_CFG, n=2, open_loop=True)
        assert row.label == "open_loop"

    def test_execution_suite_uses_faults(self):
        # The run's fault config reaches the planner's rollouts.
        faulty = replace(self.EXEC_CFG, faults=FaultConfig(p_teleport=1.0))
        clean = execution_suite(self.EXEC_CFG, n=4)
        assert execution_suite(faulty, n=4).mean_reward != clean.mean_reward

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("suite", [plan_accuracy_suite, execution_suite])
    def test_suites_refuse_fewer_than_one_episode(self, suite, n):
        with pytest.raises(ConfigError, match=f"episodes must be >= 1, got {n}"):
            suite(self.EXEC_CFG, n)
