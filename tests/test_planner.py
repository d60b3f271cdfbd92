from dataclasses import replace

import numpy as np
import pytest

from blockplan.errors import ConfigError
from blockplan.planner import (
    _SEED_PROPOSE,
    _SEED_RESAMPLE,
    _SEED_ROLLOUT,
    Plan,
    Planner,
    PlannerConfig,
    apply_guard,
    replace_beams,
)
from blockplan.seeding import derive, rng_from, rollout_streams
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
from blockplan.tracing import canonical_json, plan_to_dict, round9
from blockplan.world import (
    Color,
    Corner,
    WorldConfig,
    group_by_color,
    make_line,
    move_to_area,
    sample_initial_state,
)

from helpers import greedy_chain, make_state


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
            # Each index of a rollout stream's counter is one uint32 word.
            {"beams": 2**32},
            {"video_branch": 2**32},
            {"horizon": 2**32},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PlannerConfig(**kwargs)


class TestGuard:
    def _rollout(self, start_h, end_h):
        s = make_state([(0.1, 0.1)])
        r = Rollout(start=s, positions=s.positions[None], action=AbstractAction(0, Target("center")))
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
        r = sm.rollout(s, action, rng_from(0))
        r.start_heuristic = sm.value([s], goal)[0]
        r.end_heuristic = sm.value([r.last], goal)[0]
        assert r.end_heuristic - r.start_heuristic > 3.0
        assert not apply_guard(r, 3.0)

    def test_keeps_honest_rollout(self):
        s = make_state([(0.05, 0.15), (0.55, 0.15)], colors=[Color.RED, Color.RED])
        goal = group_by_color()
        sm = simulator_submodels(mcfg=ModelConfig(sigma_model=0.0))
        action = AbstractAction(0, Target("color_centroid", color=Color.RED))
        r = sm.rollout(s, action, rng_from(0))
        r.start_heuristic = sm.value([s], goal)[0]
        r.end_heuristic = sm.value([r.last], goal)[0]
        # Pulling one block a push_reach closer shrinks the pairwise gap for
        # both blocks, so the honest gain is exactly 2 heuristic steps.
        assert r.end_heuristic - r.start_heuristic == 2.0
        assert apply_guard(r, 3.0)


def stream_key(rng):
    """The Philox key and counter of a rollout stream, which name its unit."""
    state = rng.bit_generator.state["state"]
    return tuple(state["key"].tolist()), tuple(state["counter"].tolist())


class TestGuardResample:
    """A total discard resamples once with salt 3; if that is discarded too,
    the least-suspect resampled candidate is kept."""

    CFG = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=1)

    def _plan(self, gains):
        # Stub bundle: the value of a state is block 0's x, 0.5 at the start,
        # so that the start is not complete; rollout (i, j) of the round
        # salted ``salt`` moves block 0 by gains[salt][i * D + j].
        # It reads (salt, i, j) back from its generator's Philox key and
        # counter, which must be those of stream (salt, beam, step, i, j) of
        # `rollout_streams(derive(root, 2))`.
        made = {}
        D = self.CFG.video_branch

        stream = rollout_streams(derive(0, 2))
        units = {
            stream_key(stream(salt, 0, 1, i, j)): (salt, i, j)
            for salt in gains
            for i in range(self.CFG.text_branch)
            for j in range(D)
        }

        def propose(state, goal, A, temperature, seed):
            return action_grammar(state)[:A]

        def rollout(state, action, rng):
            salt, i, j = units[stream_key(rng)]
            pos = state.positions.copy()
            pos[0, 0] += gains[salt][i * D + j]
            made[(salt, i, j)] = Rollout(state, np.stack([state.positions, pos]), action)
            return made[(salt, i, j)]

        def value(frames, goal):
            return [float(state.positions[0, 0]) for state in frames]

        planner = Planner(Submodels(propose, rollout, value, controller=None))
        x0 = make_state([(0.5, 0.1), (0.3, 0.2)])
        return planner.plan(x0, group_by_color(), self.CFG), made, planner.events

    def _events(self, plan, value, fallback=()):
        # Round 0 discards all four candidates; the resample emits nothing
        # unless it is discarded too, when the fallback says so.
        return [
            {"kind": "GuardDiscard", "beam": 0, "step": 1, "discarded": 4, "of": 4},
            *fallback,
            {
                "kind": "PlanStep",
                "beam": 0,
                "step": 1,
                "action": plan.segments[0].action.text(plan.start),
                "value": value,
            },
        ]

    def test_resample_survivor_chosen(self):
        plan, made, events = self._plan({0: [5.0, 6.0, 7.0, 8.0], 3: [1.0, 10.0, 2.5, 4.0]})
        assert plan.segments == [made[(3, 1, 0)]]
        assert apply_guard(plan.segments[0], self.CFG.guard_threshold)
        assert events == self._events(plan, 3.0)

    def test_fallback_keeps_least_suspect(self):
        plan, made, events = self._plan({0: [5.0, 6.0, 7.0, 8.0], 3: [9.0, 4.0, 7.0, 4.0]})
        assert plan.segments == [made[(3, 0, 1)]]
        assert not apply_guard(plan.segments[0], self.CFG.guard_threshold)
        fallback = {"kind": "GuardFallback", "beam": 0, "step": 1, "improvement": 4.0}
        assert events == self._events(plan, 4.5, [fallback])


def per_beam_plan(sm, x0, goal, cfg, *unit):
    """`Planner.plan` with no memo, as it was before a search step valued all
    its beams in one call: each beam's candidate set is built and valued on
    its own. Returns the plan and its events; the reference of that
    rewrite."""
    root = derive(cfg.root_seed, *unit)
    A, D = min(cfg.text_branch, len(action_grammar(x0))), cfg.video_branch
    stream = rollout_streams(derive(root, _SEED_ROLLOUT))
    events = []

    def candidates(beam, b, h, salt):
        frame = beam.last_frame
        seed = derive(root, salt, _SEED_PROPOSE, b, h)
        actions = sm.propose(frame, goal, A, cfg.policy_temperature, seed)
        found = [
            sm.rollout(frame, a, stream(salt, b, h, i, j))
            for i, a in enumerate(actions)
            for j in range(D)
        ]
        for r, v in zip(found, sm.value([r.last for r in found], goal)):
            r.start_heuristic, r.end_heuristic = beam.final_value, v
        return found

    def gain(r):
        return r.end_heuristic - r.start_heuristic

    beams = [Plan(start=x0, final_value=sm.value([x0], goal)[0]) for _ in range(cfg.beams)]
    for h in range(1, cfg.horizon + 1):
        if any(beam.final_value == 0 for beam in beams):
            break
        for b, beam in enumerate(beams):
            found = candidates(beam, b, h, 0)
            kept = [r for r in found if apply_guard(r, cfg.guard_threshold)]
            if len(kept) < len(found):
                discarded, of = len(found) - len(kept), len(found)
                events.append(
                    {"kind": "GuardDiscard", "beam": b, "step": h, "discarded": discarded, "of": of}
                )
            if not kept:
                resampled = candidates(beam, b, h, _SEED_RESAMPLE)
                kept = [r for r in resampled if apply_guard(r, cfg.guard_threshold)]
                if not kept:
                    kept = [min(resampled, key=gain)]
                    improvement = round9(gain(kept[0]))
                    events.append(
                        {"kind": "GuardFallback", "beam": b, "step": h, "improvement": improvement}
                    )
            chosen = max(kept, key=lambda r: r.end_heuristic)
            action, value = chosen.action.text(beam.last_frame), round9(chosen.end_heuristic)
            events.append(
                {"kind": "PlanStep", "beam": b, "step": h, "action": action, "value": value}
            )
            beam.segments.append(chosen)
            beam.final_value = chosen.end_heuristic
        if h % cfg.replace_period == 0:
            beams, src, dst = replace_beams(beams)
            if src != dst:
                events.append({"kind": "BeamReplace", "step": h, "src": src, "dst": dst})
    best = max(range(cfg.beams), key=lambda i: beams[i].final_value)
    return replace(beams[best], beam_index=best), events


def frame_bytes(frames):
    return [f.positions.tobytes() for f in frames]


def total_discards(events):
    """The guard's total discards among ``events``: one resample each."""
    return sum(e["kind"] == "GuardDiscard" and e["discarded"] == e["of"] for e in events)


class TestOneValueCallPerStep:
    """A search step builds every beam's candidate set, then values all the
    new rollouts in one call; a guard resample values its set in its own."""

    # The teleporting model under a tight guard resamples (see test_harness).
    SM = simulator_submodels(faults=FaultConfig(p_teleport=0.5))
    GOAL = group_by_color()
    X0 = sample_initial_state(5, seed=0)

    def _logged(self):
        """`SM` with each rollout it makes and each frame list it values
        appended, in call order, to one log."""
        log = []

        def rollout(*args):
            log.append(self.SM.rollout(*args))
            return log[-1]

        def value(frames, goal):
            log.append(list(frames))
            return self.SM.value(frames, goal)

        return replace(self.SM, rollout=rollout, value=value), log

    @pytest.mark.parametrize("beams", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [1, 4])
    def test_each_call_values_every_rollout_made_since_the_last(self, beams, horizon):
        cfg = PlannerConfig(beams, 2, 2, horizon, guard_threshold=0.5, replace_period=2)
        sm, log = self._logged()
        planner = Planner(sm)
        plan = planner.plan(self.X0, self.GOAL, cfg, 0)
        # The log ends with a value call: nothing is made after the last one.
        calls = [k for k, entry in enumerate(log) if isinstance(entry, list)]
        assert calls[0] == 0 and calls[-1] == len(log) - 1
        assert frame_bytes(log[0]) == frame_bytes([self.X0])
        sizes = []
        for last, call in zip(calls, calls[1:]):
            made = log[last + 1 : call]
            assert frame_bytes(log[call]) == frame_bytes(r.last for r in made)
            sizes.append(len(made))
        # A step values the A x D = 4 rollouts of every beam and adds one
        # segment to each; the search runs all H steps unless a beam ends
        # finished, at value 0.
        resamples = total_discards(planner.events)
        steps = len(plan.segments)
        assert steps == horizon or 0 < steps < horizon and plan.final_value == 0
        assert sorted(sizes) == sorted([beams * 2 * 2] * steps + [2 * 2] * resamples)
        assert len(calls) == 1 + steps + resamples

        want, events = per_beam_plan(self.SM, self.X0, self.GOAL, cfg, 0)
        assert canonical_json(planner.events) == canonical_json(events)
        assert canonical_json(plan_to_dict(plan)) == canonical_json(plan_to_dict(want))

    def test_the_cases_above_resample(self):
        cfg = PlannerConfig(3, 2, 2, 4, guard_threshold=0.5, replace_period=2)
        planner = Planner(self.SM)
        planner.plan(self.X0, self.GOAL, cfg, 0)
        assert total_discards(planner.events) > 0

    @pytest.mark.parametrize("beams", [1, 2, 3])
    def test_a_repeated_plan_values_only_its_start(self, beams):
        cfg = PlannerConfig(beams, 2, 2, 4, guard_threshold=0.5, replace_period=2)
        sm, log = self._logged()
        memo = {}
        first = Planner(sm).plan(self.X0, self.GOAL, cfg, 0, memo=memo)
        log.clear()
        again = Planner(sm).plan(self.X0, self.GOAL, cfg, 0, memo=memo)
        assert [frame_bytes(entry) for entry in log] == [frame_bytes([self.X0])]
        assert canonical_json(plan_to_dict(again)) == canonical_json(plan_to_dict(first))


class TestFirstFinishStops:
    """The search stops before a step once a beam has value 0, and returns
    the first such beam. A stub bundle whose value is block 0's x, from -2,
    moves it in beam b at step h by ``gains[b][h - 1]``."""

    def _plan(self, gains):
        cfg = PlannerConfig(beams=len(gains), text_branch=1, video_branch=1, horizon=4)
        made = {}

        stream = rollout_streams(derive(0, 2))
        units = {
            stream_key(stream(0, b, h, 0, 0)): (b, h) for b in range(cfg.beams) for h in (1, 2, 3, 4)
        }

        def rollout(state, action, rng):
            b, h = units[stream_key(rng)]
            pos = state.positions.copy()
            pos[0, 0] += gains[b][h - 1]
            made[(b, h)] = Rollout(state, np.stack([state.positions, pos]), action)
            return made[(b, h)]

        def value(frames, goal):
            return [float(state.positions[0, 0]) for state in frames]

        def propose(state, goal, A, temperature, seed):
            return action_grammar(state)[:A]

        planner = Planner(Submodels(propose, rollout, value, controller=None))
        x0 = make_state([(-2.0, 0.1), (0.3, 0.2)])
        plan = planner.plan(x0, group_by_color(), cfg)
        return plan, made, [(e["beam"], e["step"]) for e in planner.events]

    def test_a_finished_beam_ends_the_search_for_all(self):
        # Beam 1 finishes at step 2; beam 0, still at -1.5, expands no more.
        plan, made, steps = self._plan([[0.25, 0.25, 0.25, 0.25], [1.0, 1.0, 1.0, 1.0]])
        assert steps == [(0, 1), (1, 1), (0, 2), (1, 2)]
        assert set(made) == {(0, 1), (1, 1), (0, 2), (1, 2)}
        assert plan.beam_index == 1 and plan.final_value == 0
        assert plan.segments == [made[(1, 1)], made[(1, 2)]]

    def test_beams_finishing_together_return_the_lowest_index(self):
        plan, made, steps = self._plan([[2.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]])
        assert steps == [(0, 1), (1, 1)]
        assert plan.beam_index == 0 and plan.segments == [made[(0, 1)]]


class TestReplaceBeams:
    def _beam(self, value):
        return Plan(start=make_state([(0.1, 0.1)]), final_value=value)

    def test_worst_becomes_best(self):
        beams, src, dst = replace_beams([self._beam(-5.0), self._beam(-1.0)])
        assert (src, dst) == (1, 0)
        assert beams[0].final_value == beams[1].final_value == -1.0

    def test_copy_is_independent(self):
        best = self._beam(-1.0)
        best.segments = [
            Rollout(
                start=best.start,
                positions=best.start.positions[None],
                action=AbstractAction(0, Target("center")),
            )
        ]
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
        p = Plan(start=s, segments=[], final_value=0.0, beam_index=0)
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
        p1 = Planner().plan(s, goal, replace(self.CFG, root_seed=0))
        p2 = Planner().plan(s, goal, replace(self.CFG, root_seed=1))
        t1 = [a.text(s) for a in p1.actions]
        t2 = [a.text(s) for a in p2.actions]
        assert t1 != t2

    def test_trace_and_segments_lengths(self):
        # Eight blocks are not in a line after H steps: the plan is H long.
        s = sample_initial_state(8, seed=2)
        p = Planner().plan(s, make_line(), self.CFG)
        assert p.final_value != 0
        assert len(p.segments) == self.CFG.horizon
        assert len(p.heuristic_trace) == self.CFG.horizon
        assert p.beam_index in (0, 1)

    def test_finished_plan_ends_at_its_first_complete_frame(self):
        # Four blocks are in a line after five steps: the plan stops there.
        s = sample_initial_state(4, seed=2)
        p = Planner().plan(s, make_line(), self.CFG)
        assert len(p.segments) == len(p.heuristic_trace) == 5 < self.CFG.horizon
        assert p.heuristic_trace[-1] == p.final_value == 0
        assert 0 not in p.heuristic_trace[:-1]
        assert p.beam_index in (0, 1)

    def test_complete_start_gives_no_segments(self):
        s = sample_initial_state(4, derive(0))
        assert heuristic([s], group_by_color())[0] == 0
        planner = Planner()
        p = planner.plan(s, group_by_color(), self.CFG, 0)
        assert p.segments == [] and p.final_value == 0 and p.beam_index == 0
        assert planner.events == []

    def test_final_value_matches_last_frame(self):
        s = sample_initial_state(4, seed=3)
        goal = make_line()
        p = Planner().plan(s, goal, self.CFG)
        assert p.final_value == heuristic([p.frames()[-1]], goal)[0]

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
            x0 = sample_initial_state(6, seed=seed)
            plan = planner.plan(x0, goal, replace(cfg, root_seed=seed))
            replacements += sum(e["kind"] == "BeamReplace" for e in planner.events)
            assert plan.heuristic_trace == [s.end_heuristic for s in plan.segments]
            assert plan.final_value == heuristic([plan.frames()[-1]], goal)[0]
        assert replacements > 0

    def test_invalid_root_seed(self):
        s = sample_initial_state(3, seed=0)
        with pytest.raises(ValueError):
            Planner().plan(s, make_line(), PlannerConfig(), -1)


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
        assert p.final_value == heuristic([s], goal)[0] + 1.0

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

    def test_text_branch_beyond_the_grammar_plans_as_the_grammar(self):
        # Propose returns at most the grammar's G actions, so a larger
        # text_branch plans as text_branch=G.
        s = sample_initial_state(6, seed=4)
        G = len(action_grammar(s))
        cfg = PlannerConfig(beams=1, text_branch=10_000, video_branch=1, horizon=2, root_seed=5)
        wide = Planner().plan(s, group_by_color(), cfg)
        exact = Planner().plan(s, group_by_color(), replace(cfg, text_branch=G))
        assert len(wide.segments) == 2
        assert canonical_json(plan_to_dict(wide)) == canonical_json(plan_to_dict(exact))


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
            b = greedy_chain(simulator_submodels(), s, goal, cfg)
            assert [x.text(s) for x in a.actions] == [x.text(s) for x in b.actions]
            for f1, f2 in zip(a.frames(), b.frames()):
                assert np.array_equal(f1.positions, f2.positions)
            assert a.heuristic_trace == b.heuristic_trace
            assert a.final_value == b.final_value

    def test_runs_standalone(self):
        s = sample_initial_state(4, seed=2)
        goal = move_to_area(Corner.TOP_LEFT)
        p = greedy_chain(simulator_submodels(), s, goal, PlannerConfig(horizon=4))
        assert len(p.segments) == 4
