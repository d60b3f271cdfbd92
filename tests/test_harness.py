import contextlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan import harness
from blockplan.cli import main
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
from blockplan.seeding import derive, rng_from
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
    sample_initial_state,
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

    @pytest.mark.parametrize("block", [2, -1], ids=["past_last_row", "negative"])
    def test_absent_block_rejected(self, block):
        # The planner never names a block the state lacks; a hand-built plan
        # that does is an error, not an action to skip.
        x0 = make_state([(0.05, 0.15), (0.45, 0.15)], colors=[Color.RED, Color.RED])
        for ghost in (
            AbstractAction(block, Target("corner", corner=Corner.TOP_LEFT)),
            AbstractAction(0, Target("block", block=block)),
        ):
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
        # The planner's bundle, and so its rollouts, is built with the run's
        # fault config.
        faulty = replace(self.EXEC_CFG, faults=FaultConfig(p_teleport=1.0))
        factory = harness.simulator_submodels
        with mock.patch.object(harness, "simulator_submodels", wraps=factory) as made:
            execution_suite(faulty, n=1)
        made.assert_called_once_with(faulty.world, faulty.model, faulty.faults)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("suite", [plan_accuracy_suite, execution_suite])
    def test_suites_refuse_fewer_than_one_episode(self, suite, n):
        with pytest.raises(ConfigError, match=f"episodes must be >= 1, got {n}"):
            suite(self.EXEC_CFG, n)


# --- Cells that share an episode ----------------------------------------------

SHARED = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# Each change makes a cell from the base cell; two changes to one field make
# cells that differ in it alone, and {} repeats the base cell.
CELL_CHANGES = [
    {},
    {"beams": 1},
    {"beams": 2},
    {"horizon": 2},
    {"horizon": 4},
    {"text_branch": 1},
    {"text_branch": 3},
    {"video_branch": 1},
    {"video_branch": 2},
    {"guard_threshold": 3.0},
    {"guard_threshold": 1e9},
    {"policy_temperature": 0.0},
    {"policy_temperature": 0.3},
]


@st.composite
def ablations(draw):
    """A small run config and 2-4 cells, each the base cell with one change."""
    base = PlannerConfig(
        beams=draw(st.integers(1, 2)),
        text_branch=draw(st.integers(1, 3)),
        video_branch=draw(st.integers(1, 2)),
        horizon=draw(st.integers(1, 4)),
        # At 0.5 whole candidate sets are discarded often enough that the
        # resampled sets are shared too.
        guard_threshold=draw(st.sampled_from([0.5, 3.0])),
        root_seed=draw(st.integers(0, 3)),
    )
    changes = draw(st.lists(st.sampled_from(CELL_CHANGES), min_size=2, max_size=4))
    cfg = RunConfig(
        task=draw(st.sampled_from([group_by_color(), make_line()])),
        planner=base,
        faults=FaultConfig(p_teleport=draw(st.sampled_from([0.0, 0.5]))),
        n_blocks=draw(st.integers(2, 5)),
        seeds=(draw(st.integers(0, 99)),),
    )
    return cfg, [replace(base, **c) for c in changes]


def _scores(row):
    return row.label, row.episodes, row.naive_success, row.replay_success


@SHARED
@given(ablations())
def test_each_row_is_its_cell_run_alone(example):
    cfg, cells = example
    rows = scaling_suite(cfg, cells, 2)
    assert [_scores(r) for r in rows] == [_scores(scaling_suite(cfg, [c], 2)[0]) for c in cells]


@SHARED
@given(ablations(), st.integers(0, 3))
def test_a_filled_memo_leaves_the_plan_unchanged(example, ep):
    # Each cell plans through a memo its earlier cells filled, and again with
    # none; plans and events must not tell the two apart.
    cfg, cells = example
    x0 = sample_initial_state(cfg.n_blocks, derive(cfg.seeds[0], 0, ep), cfg.world)
    sm = simulator_submodels(cfg.world, cfg.model, cfg.faults)
    shared, alone, memo = Planner(sm), Planner(sm), {}
    for pcfg in cells:
        a = shared.plan(x0, cfg.task, pcfg, 0, ep, memo=memo)
        b = alone.plan(x0, cfg.task, pcfg, 0, ep)
        assert a.positions().tobytes() == b.positions().tobytes()
        assert a.actions == b.actions
        assert (a.final_value, a.beam_index) == (b.final_value, b.beam_index)
        assert shared.events == alone.events


@SHARED
@given(ablations())
def test_reversed_cells_give_reversed_rows(example):
    cfg, cells = example
    rows = scaling_suite(cfg, cells, 2)
    reversed_rows = scaling_suite(cfg, cells[::-1], 2)
    assert [_scores(r) for r in reversed_rows] == [_scores(r) for r in rows][::-1]


def counting(sm):
    """The bundle ``sm`` with its propose and rollout calls counted by
    `mock.Mock` wrappers."""
    return replace(sm, propose=mock.Mock(wraps=sm.propose), rollout=mock.Mock(wraps=sm.rollout))


@contextlib.contextmanager
def counted_bundles():
    """Within the block, each bundle the harness makes counts its propose and
    rollout calls: yields the list of those bundles (`counting`)."""
    bundles = []
    factory = harness.simulator_submodels

    def make(*args):
        bundles.append(counting(factory(*args)))
        return bundles[-1]

    with mock.patch.object(harness, "simulator_submodels", make):
        yield bundles


class TestSharedCandidates:
    # make_line's guard never fires, so no cell resamples.
    CFG = RunConfig(task=make_line(), n_blocks=5, seeds=(3,))
    BASE = PlannerConfig(beams=1, text_branch=2, video_branch=2, horizon=4)

    def test_cells_in_common_are_rolled_out_once(self):
        # H4 < replace_period: B2's beam 0 is never overwritten, so it
        # repeats the B1 cell.
        cells = [self.BASE, self.BASE, replace(self.BASE, beams=2, guard_threshold=1e9)]
        with counted_bundles() as bundles:
            scaling_suite(self.CFG, cells, 1)
            (shared,) = bundles
            # The repeated cell and B2's beam 0 reuse the first cell's sets.
            assert shared.rollout.call_count == 2 * 4 * 2 * 2
            for c in cells:
                scaling_suite(self.CFG, [c], 1)
        assert sum(sm.rollout.call_count for sm in bundles[1:]) == (1 + 1 + 2) * 4 * 2 * 2

    @pytest.mark.parametrize("reverse", [False, True])
    def test_nested_cells_share_one_set(self, reverse):
        # Each cell's A x D grid is a sub-grid of the next one's: whichever
        # order they are given in, the largest is built and the others sliced.
        cells = [
            PlannerConfig(beams=1, text_branch=a, video_branch=d, horizon=1)
            for a, d in [(1, 1), (1, 4), (4, 4)]
        ]
        cells = cells[::-1] if reverse else cells
        with counted_bundles() as bundles:
            rows = scaling_suite(self.CFG, cells, 1)
            (shared,) = bundles
            assert (shared.propose.call_count, shared.rollout.call_count) == (1, 4 * 4)
            assert [_scores(r) for r in rows] == [
                _scores(scaling_suite(self.CFG, [c], 1)[0]) for c in cells
            ]

    def test_cells_that_do_not_nest_build_their_own(self):
        # Neither of A4 D1 and A1 D4 covers the other.
        x0 = sample_initial_state(self.CFG.n_blocks, derive(3, 0, 0), self.CFG.world)
        sm = simulator_submodels(self.CFG.world, self.CFG.model, self.CFG.faults)
        counted, memo = counting(sm), {}
        for a, d in [(4, 1), (1, 4)]:
            pcfg = replace(self.BASE, text_branch=a, video_branch=d, horizon=1)
            shared = Planner(counted).plan(x0, self.CFG.task, pcfg, 0, 0, memo=memo)
            alone = Planner(sm).plan(x0, self.CFG.task, pcfg, 0, 0)
            assert shared.positions().tobytes() == alone.positions().tobytes()
            assert shared.actions == alone.actions
        assert (counted.propose.call_count, counted.rollout.call_count) == (2, 4 + 4)

    def test_resampled_sets_are_shared(self):
        cfg = RunConfig(
            task=group_by_color(), n_blocks=5, seeds=(0,), faults=FaultConfig(p_teleport=0.5)
        )
        cell = replace(self.BASE, guard_threshold=0.5)
        events, plan = [], Planner.plan

        def recorded(planner, *args, **kwargs):
            out = plan(planner, *args, **kwargs)
            events.append(planner.events)
            return out

        with counted_bundles() as bundles, mock.patch.object(Planner, "plan", recorded):
            scaling_suite(cfg, [cell, cell], 1)
        # Each of the first cell's total discards resamples one more set of
        # A x D; the repeated cell rolls out none.
        first, _ = events
        resamples = sum(e["kind"] == "GuardDiscard" and e["discarded"] == e["of"] for e in first)
        assert resamples >= 1
        assert bundles[0].rollout.call_count == (cell.horizon + resamples) * 2 * 2

    def test_memory_does_not_grow_with_episodes(self):
        cfg = replace(self.CFG, task=group_by_color(), n_blocks=6)
        cells = [PlannerConfig(horizon=8), PlannerConfig(beams=1, horizon=8)]
        scaling_suite(cfg, cells, 1)  # the first call builds module-level caches

        def peak(n):
            tracemalloc.start()
            try:
                scaling_suite(cfg, cells, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(2)

    def test_nothing_survives_a_cli_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKPLAN_OUT", str(tmp_path))
        # Six blocks, so that the episodes' starts are not complete.
        argv = ["ablate", "--cells", "1,2,2,4;2,2,2,4", "--episodes", "2", "--set", "n_blocks=6"]
        with counted_bundles() as bundles:
            assert main(argv) == 0
            assert main(argv) == 0
        first, second = bundles
        assert first.rollout.call_count == second.rollout.call_count > 0
