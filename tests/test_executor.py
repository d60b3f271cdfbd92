import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from blockplan import executor, runs
from blockplan.config import RunConfig
from blockplan.errors import ConfigError
from blockplan.executor import (
    EpisodeResult,
    ExecutionConfig,
    Extractor,
    execute_segmentwise,
    run_episode,
)
from blockplan.planner import Plan, Planner, PlannerConfig
from blockplan.seeding import derive, rng_from
from blockplan.submodels import (
    AbstractAction,
    Rollout,
    Target,
    goal_policy,
    simulator_submodels,
)
from blockplan.world import (
    Corner,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    reward,
    sample_initial_state,
)

from helpers import EXACT_MODEL, EXACT_WORLD, make_state

SERVO = partial(goal_policy, wcfg=EXACT_WORLD, mcfg=EXACT_MODEL)


def exact_plan(state, goal, horizon, seed=0):
    from blockplan.submodels import simulator_submodels

    p = Planner(simulator_submodels(wcfg=EXACT_WORLD, mcfg=EXACT_MODEL))
    cfg = PlannerConfig(
        beams=1, text_branch=4, video_branch=1, horizon=horizon,
        policy_temperature=0.0, root_seed=seed,
    )
    return p.plan(state, goal, cfg)


class TestExecutionConfig:
    def test_defaults_match_protocol(self):
        cfg = ExecutionConfig()
        assert cfg.controls_per_frame == 4
        assert cfg.frames_per_plan == 16
        assert cfg.total_budget == 1500
        assert cfg.extractor is Extractor.GOAL_POLICY_EVERY_FRAME

    @pytest.mark.parametrize(
        "kwargs",
        [{"controls_per_frame": 0}, {"frames_per_plan": 0}, {"total_budget": 0}],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionConfig(**kwargs)


class TestSegmentLastIndices:
    @staticmethod
    def _plan(n_segments, frames_per_segment):
        s = make_state([(0.1, 0.1)])
        seg = Rollout(
            start=s,
            positions=np.repeat(s.positions[None], frames_per_segment, axis=0),
            action=AbstractAction(0, Target("center")),
        )
        return Plan(start=s, segments=[seg] * n_segments)

    def test_sixteen_frame_segments(self):
        # Segments of 16 frames share junctions, so last frames sit at
        # 15, 30, 45, ... in the flattened sequence.
        assert self._plan(3, 16).segment_ends() == [15, 30, 45]

    def test_two_frame_segments(self):
        assert self._plan(4, 2).segment_ends() == [1, 2, 3, 4]


class TestExecuteSegmentwise:
    def test_every_frame_control_count(self):
        # Group goal with blocks of distinct colors is complete immediately;
        # use a line goal that stays unsatisfied so nothing stops early.
        s = make_state([(0.55, 0.3), (0.05, 0.05)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=2)
        trace = []
        cfg = ExecutionConfig(env_seed=1)
        out, issued = execute_segmentwise(
            s, plan, goal, cfg, SERVO, EXACT_WORLD, trace=trace
        )
        # 16 frames x 4 controls, no early completion possible here.
        assert issued == 64
        assert len(trace) == 64
        assert not is_complete(out, goal)

    def test_inverse_dynamics_one_control_per_pair(self):
        s = make_state([(0.55, 0.3), (0.05, 0.05)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=2)
        cfg = ExecutionConfig(extractor=Extractor.INVERSE_DYNAMICS, env_seed=1)
        _, issued = execute_segmentwise(s, plan, goal, cfg, SERVO, EXACT_WORLD)
        assert issued == 16

    def test_last_frame_targets_segment_ends(self):
        s = make_state([(0.55, 0.3), (0.05, 0.05)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=2)
        cfg = ExecutionConfig(extractor=Extractor.GOAL_POLICY_LAST_FRAME, env_seed=1)
        # Only the first segment's last frame (index 15) is within the
        # 16-frame window, so 4 controls are issued.
        _, issued = execute_segmentwise(s, plan, goal, cfg, SERVO, EXACT_WORLD)
        assert issued == 4

    def test_noise_free_tracking_reaches_plan_end(self):
        # A single block and exact dynamics: tracking every plan frame lands
        # the env on the plan's 16th frame.
        s = make_state([(0.3, 0.3)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=1)
        cfg = ExecutionConfig(env_seed=1)
        out, _ = execute_segmentwise(s, plan, goal, cfg, SERVO, EXACT_WORLD)
        assert np.allclose(out.positions, plan.frames()[15].positions, atol=1e-6)

    def test_budget_exhausted_noop(self):
        s = make_state([(0.3, 0.3)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=1)
        cfg = ExecutionConfig(env_seed=1)
        out, issued = execute_segmentwise(
            s, plan, goal, cfg, SERVO, EXACT_WORLD, steps_used=1500
        )
        assert issued == 0 and out is s

    def test_budget_partial(self):
        s = make_state([(0.55, 0.3), (0.05, 0.05)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=2)
        cfg = ExecutionConfig(env_seed=1)
        _, issued = execute_segmentwise(
            s, plan, goal, cfg, SERVO, EXACT_WORLD, steps_used=1490
        )
        assert issued == 10

    def test_abstained_target_spends_no_budget(self):
        s = make_state([(0.55, 0.3), (0.05, 0.05)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=2)
        frames = plan.frames()
        skipped = frames[5]

        def controller(state, goal_state):
            if goal_state is skipped:
                return None
            return goal_policy(state, goal_state, EXACT_WORLD, EXACT_MODEL)

        trace = []
        cfg = ExecutionConfig(env_seed=1)
        _, issued = execute_segmentwise(
            s, plan, goal, cfg, controller, EXACT_WORLD, trace=trace
        )
        # 15 of the 16 tracked frames get their 4 controls; steps stay contiguous.
        assert issued == 60
        assert [r["step"] for r in trace] == list(range(1, 61))

    def test_no_seeds_for_controls_never_issued(self):
        # A controller that declines every frame issues no control, however
        # many the frame count, controls per frame and budget would allow.
        s = make_state([(0.3, 0.3)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=1)
        cfg = ExecutionConfig(controls_per_frame=250_000, total_budget=10**8)
        tracemalloc.start()
        try:
            out, issued = execute_segmentwise(s, plan, goal, cfg, lambda x, g: None, EXACT_WORLD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is s and issued == 0
        assert peak < 2**20

    def test_stops_on_completion(self):
        s = make_state([(0.08, 0.08)])
        goal = move_to_area(Corner.BOTTOM_LEFT)
        plan = exact_plan(s, goal, horizon=1)
        cfg = ExecutionConfig(env_seed=1)
        out, issued = execute_segmentwise(s, plan, goal, cfg, SERVO, EXACT_WORLD)
        assert is_complete(out, goal)
        assert issued < 64


class TestRunEpisode:
    PCFG = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=2, root_seed=0)

    def test_completes_group_task(self):
        s = sample_initial_state(6, seed=11)
        res = run_episode(s, group_by_color(), self.PCFG, ExecutionConfig(env_seed=5), Planner())
        assert res.completed
        assert res.final_reward == 100.0
        assert 0 < res.steps_used <= 1500
        assert res.replan_count >= 1

    def test_budget_respected(self):
        s = sample_initial_state(6, seed=11)
        ecfg = ExecutionConfig(total_budget=40, env_seed=5)
        res = run_episode(s, group_by_color(), self.PCFG, ecfg, Planner())
        assert res.steps_used <= 40

    def test_already_complete_zero_steps(self):
        s = sample_initial_state(4, seed=0)  # four distinct colors: vacuous
        res = run_episode(s, group_by_color(), self.PCFG, ExecutionConfig(), Planner())
        assert res.completed and res.steps_used == 0 and res.replan_count == 0

    def test_deterministic(self):
        s = sample_initial_state(6, seed=3)
        ecfg = ExecutionConfig(env_seed=9)
        ta, tb = [], []
        a = run_episode(s, group_by_color(), self.PCFG, ecfg, Planner(), trace=ta)
        b = run_episode(s, group_by_color(), self.PCFG, ecfg, Planner(), trace=tb)
        assert a.final_reward == b.final_reward
        assert a.steps_used == b.steps_used
        assert ta == tb

    def test_trace_shape(self):
        s = sample_initial_state(6, seed=3)
        trace = []
        res = run_episode(
            s, group_by_color(), self.PCFG, ExecutionConfig(env_seed=9), Planner(), trace=trace
        )
        kinds = [r["kind"] for r in trace]
        assert kinds[0] == "PlanStep"
        assert kinds[-1] == "EpisodeEnd"
        n_controls = sum(1 for k in kinds if k == "Control")
        assert n_controls == res.steps_used
        assert sum(1 for k in kinds if k == "PlanStep") == res.replan_count
        end = trace[-1]
        assert end["reward"] == res.final_reward
        assert end["completed"] == res.completed

    def test_uses_bundle_controller(self):
        sm = simulator_submodels()
        calls = []

        def controller(state, goal_state):
            calls.append(goal_state)
            return sm.controller(state, goal_state)

        s = sample_initial_state(6, seed=11)
        planner = Planner(replace(sm, controller=controller))
        res = run_episode(s, group_by_color(), self.PCFG, ExecutionConfig(env_seed=5), planner)
        assert len(calls) == res.steps_used > 0

    def test_last_frame_ends_at_first_replan_out_of_reach(self):
        # Each segment-end frame lies about one push (0.1) away, twice the simulator
        # controller's reach, so the first replan issues no control.
        s = sample_initial_state(6, seed=11)
        ecfg = ExecutionConfig(extractor=Extractor.GOAL_POLICY_LAST_FRAME, env_seed=5)
        res = run_episode(s, group_by_color(), self.PCFG, ecfg, Planner())
        assert res.replan_count == 1 and res.steps_used == 0
        assert res.final_reward == reward(s, group_by_color())

    def test_trace_steps_monotone(self):
        s = sample_initial_state(6, seed=3)
        trace = []
        run_episode(
            s, group_by_color(), self.PCFG, ExecutionConfig(env_seed=9), Planner(), trace=trace
        )
        steps = [r["step"] for r in trace if r["kind"] == "Control"]
        assert steps == list(range(1, len(steps) + 1))


class _FirstControl(Exception):
    pass


@pytest.mark.parametrize("seed", range(16))
def test_first_control_draws_apart_from_the_initial_state(monkeypatch, seed):
    # `blockplan execute --seed s` places its blocks from derive(s); numpy pads
    # a short seed with zeros, so a control seed of (s, 0) would draw the
    # same stream.
    def first_step(state, u, rng, wcfg):
        raise _FirstControl(rng.bit_generator.state)

    monkeypatch.setattr(executor, "step_true", first_step)
    cfg = RunConfig(n_blocks=6, planner=PlannerConfig(horizon=2))
    with pytest.raises(_FirstControl) as first:
        runs.episode_records(cfg, seed)
    assert first.value.args[0] != rng_from(derive(seed)).bit_generator.state


class TestOpenLoop:
    def test_underperforms_closed_loop(self):
        pcfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=2, root_seed=0)
        goal = group_by_color()
        closed_wins = 0
        for ep in range(5):
            s = sample_initial_state(6, seed=100 + ep)
            ecfg = ExecutionConfig(env_seed=ep)
            closed = run_episode(s, goal, pcfg, ecfg, Planner())
            open_ = run_episode(s, goal, pcfg, ecfg, Planner(), open_loop=True)
            assert closed.final_reward >= open_.final_reward
            if closed.final_reward > open_.final_reward:
                closed_wins += 1
        assert closed_wins >= 3

    def test_single_plan(self):
        s = sample_initial_state(6, seed=2)
        pcfg = PlannerConfig(beams=1, horizon=2, root_seed=0)
        res = run_episode(
            s, group_by_color(), pcfg, ExecutionConfig(env_seed=1), Planner(), open_loop=True
        )
        assert res.replan_count == 1

    def test_complete_start_shortcut(self):
        s = sample_initial_state(4, seed=0)
        res = run_episode(
            s, group_by_color(), PlannerConfig(), ExecutionConfig(), Planner(), open_loop=True
        )
        assert res == EpisodeResult(100.0, True, 0, 0)
