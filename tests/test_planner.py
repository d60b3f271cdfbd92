import numpy as np
import pytest

from blockplan.errors import ConfigError
from blockplan.planner import (
    Plan,
    PlanBeam,
    Planner,
    PlannerConfig,
    apply_guard,
    greedy_chain,
    replace_beams,
)
from blockplan.submodels import (
    AbstractAction,
    FaultConfig,
    ModelConfig,
    Rollout,
    Submodels,
    Target,
    action_grammar,
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
    sample_initial_state,
)


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


class TestPlannerConfig:
    def test_defaults_valid(self):
        cfg = PlannerConfig()
        assert cfg.beams == 2 and cfg.text_branch == 4 and cfg.video_branch == 4
        assert cfg.horizon == 16 and cfg.replace_period == 5
        assert cfg.policy_temperature == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beams": 0},
            {"text_branch": 0},
            {"video_branch": -1},
            {"horizon": 0},
            {"replace_period": 0},
            {"guard_threshold": 0.0},
            {"guard_threshold": -2.0},
            {"policy_temperature": -0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PlannerConfig(**kwargs)


class TestGuard:
    def _rollout(self, start_h, end_h):
        s = make_state([(0.1, 0.1)])
        r = Rollout(frames=[s], action=AbstractAction(0, Target("center")))
        r.start_heuristic = start_h
        r.end_heuristic = end_h
        return r

    def test_keeps_at_threshold(self):
        assert apply_guard(self._rollout(-5.0, -2.0), 3.0)

    def test_discards_strictly_above(self):
        assert not apply_guard(self._rollout(-5.0, -1.9), 3.0)

    def test_keeps_regressions(self):
        assert apply_guard(self._rollout(-3.0, -5.0), 3.0)

    def test_discards_teleport_fault(self):
        # Two red blocks 0.5 apart: 4 steps of honest progress each way. A
        # guaranteed teleport erases all of it in one rollout, which the
        # guard at threshold 3 must reject.
        s = make_state([(0.05, 0.15), (0.55, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        sm = simulator_submodels(
            mcfg=ModelConfig(sigma_model=0.0), faults=FaultConfig(p_teleport=1.0)
        )
        action = AbstractAction(0, Target("color_centroid", color=Color.RED))
        r = sm.rollout(s, action, seed=0)
        r.start_heuristic = sm.value(s, goal)
        r.end_heuristic = sm.value(r.last, goal)
        assert r.end_heuristic - r.start_heuristic > 3.0
        assert not apply_guard(r, 3.0)

    def test_keeps_honest_rollout(self):
        s = make_state([(0.05, 0.15), (0.55, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        sm = simulator_submodels(mcfg=ModelConfig(sigma_model=0.0))
        action = AbstractAction(0, Target("color_centroid", color=Color.RED))
        r = sm.rollout(s, action, seed=0)
        r.start_heuristic = sm.value(s, goal)
        r.end_heuristic = sm.value(r.last, goal)
        # Pulling one block a push_reach closer shrinks the pairwise gap for
        # both blocks, so the honest gain is exactly 2 heuristic steps.
        assert r.end_heuristic - r.start_heuristic == 2.0
        assert apply_guard(r, 3.0)


class TestGuardResample:
    """A total discard resamples once with salt 3; if that is discarded too,
    the least-suspect resampled candidate is kept."""

    CFG = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=1)

    def _plan(self, gains):
        # Stub bundle: the value of a state is block 0's x; rollout (i, j) of
        # the round salted ``salt`` moves block 0 by gains[salt][i * D + j].
        made = {}

        def propose(state, goal, A, temperature, seed):
            return action_grammar(state)[:A]

        def rollout(state, action, seed):
            _, salt, _, _, _, i, j = seed
            pos = state.positions.copy()
            pos[0, 0] += gains[salt][i * self.CFG.video_branch + j]
            made[(salt, i, j)] = Rollout([state, state.with_positions(pos)], action)
            return made[(salt, i, j)]

        def value(state, goal):
            return float(state.positions[0, 0])

        planner = Planner(Submodels(propose, rollout, value, controller=None))
        x0 = make_state([(0.0, 0.1), (0.3, 0.2)])
        return planner.plan(x0, group_by_color(), self.CFG), made

    def test_resample_survivor_chosen(self):
        plan, made = self._plan({0: [5.0, 6.0, 7.0, 8.0], 3: [1.0, 10.0, 2.5, 4.0]})
        assert plan.segments == [made[(3, 1, 0)]]
        assert apply_guard(plan.segments[0], self.CFG.guard_threshold)

    def test_fallback_keeps_least_suspect(self):
        plan, made = self._plan({0: [5.0, 6.0, 7.0, 8.0], 3: [9.0, 4.0, 7.0, 4.0]})
        assert plan.segments == [made[(3, 0, 1)]]
        assert not apply_guard(plan.segments[0], self.CFG.guard_threshold)


class TestReplaceBeams:
    def _beam(self, value):
        return PlanBeam(start=make_state([(0.1, 0.1)]), value=value)

    def test_worst_becomes_best(self):
        beams, src, dst = replace_beams([self._beam(-5.0), self._beam(-1.0)])
        assert (src, dst) == (1, 0)
        assert beams[0].value == beams[1].value == -1.0

    def test_copy_is_independent(self):
        best = self._beam(-1.0)
        best.segments = [Rollout(frames=[best.start], action=AbstractAction(0, Target("center")))]
        beams, _, _ = replace_beams([self._beam(-5.0), best])
        beams[0].segments.append("marker")
        assert len(beams[1].segments) == 1

    def test_equal_values_unchanged(self):
        a, b = self._beam(-2.0), self._beam(-2.0)
        beams, src, dst = replace_beams([a, b])
        assert src == dst == 0
        assert beams[0] is a and beams[1] is b

    def test_single_beam_noop(self):
        a = self._beam(-3.0)
        beams, src, dst = replace_beams([a])
        assert beams == [a] and src == dst == 0

    def test_tie_for_best_lowest_index(self):
        beams, src, dst = replace_beams([self._beam(-1.0), self._beam(-1.0), self._beam(-4.0)])
        assert (src, dst) == (0, 2)


class TestPlan:
    def test_frames_dedup_junctions(self):
        s = sample_initial_state(3, seed=0)
        planner = Planner(simulator_submodels(mcfg=ModelConfig(sigma_model=0.0)))
        plan = planner.plan(s, make_line(), PlannerConfig(beams=1, horizon=3, policy_temperature=0.0))
        S = ModelConfig().frames_per_rollout
        assert len(plan.frames()) == 1 + 3 * (S - 1)
        # Junction frames appear once: each segment starts where the previous
        # one ended.
        for a, b in zip(plan.segments[:-1], plan.segments[1:]):
            assert np.array_equal(a.last.positions, b.frames[0].positions)

    def test_empty_plan_frames(self):
        s = sample_initial_state(2, seed=0)
        p = Plan(start=s, segments=[], heuristic_trace=[], final_value=0.0, beam_index=0)
        assert p.frames() == [s]


class TestPlanner:
    CFG = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=6, root_seed=5)

    def test_deterministic(self):
        s = sample_initial_state(5, seed=1)
        goal = group_by_color()
        p1 = Planner().plan(s, goal, self.CFG)
        p2 = Planner().plan(s, goal, self.CFG)
        assert [a.text(s) for a in p1.actions] == [a.text(s) for a in p2.actions]
        for f1, f2 in zip(p1.frames(), p2.frames()):
            assert np.array_equal(f1.positions, f2.positions)
        assert p1.heuristic_trace == p2.heuristic_trace

    def test_root_seed_changes_result(self):
        s = sample_initial_state(5, seed=1)
        goal = group_by_color()
        p1 = Planner().plan(s, goal, self.CFG, root_seed=0)
        p2 = Planner().plan(s, goal, self.CFG, root_seed=1)
        t1 = [a.text(s) for a in p1.actions]
        t2 = [a.text(s) for a in p2.actions]
        assert t1 != t2

    def test_trace_and_segments_lengths(self):
        s = sample_initial_state(4, seed=2)
        p = Planner().plan(s, make_line(), self.CFG)
        assert len(p.segments) == self.CFG.horizon
        assert len(p.heuristic_trace) == self.CFG.horizon
        assert p.beam_index in (0, 1)

    def test_final_value_matches_last_frame(self):
        s = sample_initial_state(4, seed=3)
        goal = make_line()
        p = Planner().plan(s, goal, self.CFG)
        assert p.final_value == heuristic(p.frames()[-1], goal)

    def test_guard_enforced_on_returned_plan(self):
        s = sample_initial_state(6, seed=4)
        goal = group_by_color()
        cfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=8, guard_threshold=3.0)
        planner = Planner(
            simulator_submodels(faults=FaultConfig(p_teleport=0.3))
        )
        p = planner.plan(s, goal, cfg)
        for seg in p.segments:
            assert seg.end_heuristic - seg.start_heuristic <= cfg.guard_threshold

    def test_chain_continuity(self):
        s = sample_initial_state(5, seed=6)
        p = Planner().plan(s, group_by_color(), self.CFG)
        assert p.segments[0].frames[0] is s or np.array_equal(
            p.segments[0].frames[0].positions, s.positions
        )
        for a, b in zip(p.segments[:-1], p.segments[1:]):
            assert np.array_equal(a.last.positions, b.frames[0].positions)

    def test_guard_discard_events_recorded(self):
        s = sample_initial_state(6, seed=4)
        planner = Planner(simulator_submodels(faults=FaultConfig(p_teleport=0.5)))
        planner.plan(s, group_by_color(), PlannerConfig(beams=1, horizon=6))
        kinds = {e["kind"] for e in planner.events}
        assert "PlanStep" in kinds
        assert "GuardDiscard" in kinds

    def test_beam_replace_event_at_period(self):
        s = sample_initial_state(6, seed=9)
        planner = Planner()
        planner.plan(s, group_by_color(), PlannerConfig(beams=2, horizon=10, replace_period=5))
        steps = [e["step"] for e in planner.events if e["kind"] == "BeamReplace"]
        assert all(st % 5 == 0 for st in steps)

    def test_trace_and_final_value_follow_replaced_beams(self):
        # Beam replacement copies one beam over another; the returned value
        # trace and final value must still be those of the chosen segments.
        goal = make_line()
        cfg = PlannerConfig(beams=2, replace_period=2, horizon=6)
        replacements = 0
        for seed in range(4):
            planner = Planner()
            plan = planner.plan(sample_initial_state(6, seed=seed), goal, cfg, root_seed=seed)
            replacements += sum(e["kind"] == "BeamReplace" for e in planner.events)
            assert plan.heuristic_trace == [s.end_heuristic for s in plan.segments]
            assert plan.final_value == heuristic(plan.frames()[-1], goal)
        assert replacements > 0

    def test_invalid_root_seed(self):
        s = sample_initial_state(3, seed=0)
        with pytest.raises(ValueError):
            Planner().plan(s, make_line(), PlannerConfig(), root_seed=-1)


class TestSelection:
    def test_picks_highest_end_heuristic(self):
        # One misplaced block and exact dynamics: the single-step planner must
        # pick an action whose rollout gains a full heuristic step.
        s = make_state([(0.58, 0.175), (0.3, 0.1)])
        goal = make_line()
        planner = Planner(simulator_submodels(mcfg=ModelConfig(sigma_model=0.0)))
        cfg = PlannerConfig(
            beams=1, text_branch=8, video_branch=2, horizon=1, policy_temperature=0.0
        )
        p = planner.plan(s, goal, cfg)
        assert p.final_value == heuristic(s, goal) + 1.0

    def test_video_branch_monotone_single_step(self):
        # More rollouts per action can only raise the chosen end heuristic,
        # because rollout seeds are keyed by branch index (nested candidate
        # sets).
        s = sample_initial_state(5, seed=12)
        goal = group_by_color()
        results = []
        for D in (1, 2, 4, 8):
            cfg = PlannerConfig(beams=1, text_branch=4, video_branch=D, horizon=1, root_seed=3)
            p = Planner().plan(s, goal, cfg)
            results.append(p.final_value)
        assert results == sorted(results)

    def test_text_branch_monotone_single_step(self):
        s = sample_initial_state(5, seed=12)
        goal = group_by_color()
        results = []
        for A in (1, 2, 4, 8):
            cfg = PlannerConfig(beams=1, text_branch=A, video_branch=4, horizon=1, root_seed=3)
            p = Planner().plan(s, goal, cfg)
            results.append(p.final_value)
        assert results == sorted(results)


class TestGreedyChain:
    def test_matches_degenerate_planner(self):
        goal = group_by_color()
        for seed in range(10):
            s = sample_initial_state(5, seed=seed)
            cfg = PlannerConfig(
                beams=1,
                text_branch=1,
                video_branch=1,
                horizon=6,
                guard_threshold=1e9,
                root_seed=seed,
            )
            a = Planner().plan(s, goal, cfg)
            b = greedy_chain(s, goal, cfg)
            assert [x.text(s) for x in a.actions] == [x.text(s) for x in b.actions]
            for f1, f2 in zip(a.frames(), b.frames()):
                assert np.array_equal(f1.positions, f2.positions)
            assert a.heuristic_trace == b.heuristic_trace
            assert a.final_value == b.final_value

    def test_runs_standalone(self):
        s = sample_initial_state(4, seed=2)
        p = greedy_chain(s, move_to_area(Corner.TOP_LEFT), PlannerConfig(horizon=4))
        assert len(p.segments) == 4
