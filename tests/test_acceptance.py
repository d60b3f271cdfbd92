"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line. Tolerances are fixed here and must not be loosened; a red
criterion means the library does not meet its contract."""

from dataclasses import replace

import numpy as np
import pytest

from blockplan.config import RunConfig
from blockplan.executor import ExecutionConfig, Extractor, run_episode
from blockplan.harness import (
    brute_force_oracle,
    execution_suite,
    replay_plan,
    scaling_suite,
)
from blockplan.planner import Planner, PlannerConfig
from blockplan.seeding import derive, rng_from
from blockplan.submodels import (
    FaultConfig,
    ModelConfig,
    action_grammar,
    goal_policy,
    heuristic,
    rollout_dynamics,
    simulator_submodels,
)
from blockplan.tracing import canonical_json, plan_to_dict
from blockplan.world import (
    Color,
    ControlAction,
    Corner,
    WorldConfig,
    WorldState,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    sample_initial_state,
    step_true,
)

from helpers import greedy_chain


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _two_red_state(seed: int) -> WorldState:
    """A random 2-block micro-instance where both blocks share a color, so
    the grouping goal is non-vacuous."""
    rng = rng_from((31, seed))
    while True:
        pos = rng.uniform([0.02, 0.02], [0.58, 0.33], size=(2, 2))
        if np.linalg.norm(pos[0] - pos[1]) >= 0.05:
            return WorldState(
                ids=(0, 1),
                colors=(Color.RED, Color.RED),
                positions=pos,
            )


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self):
        # Deterministic micro-instances: full-grammar branching with exact
        # submodels must match exhaustive search exactly.
        goal = group_by_color()
        wcfg = WorldConfig(sigma_env=0.0)
        mcfg = ModelConfig(sigma_model=0.0)
        matches = 0
        n = 25
        for seed in range(n):
            x0 = _two_red_state(seed)
            grammar_size = len(action_grammar(x0))
            cfg = PlannerConfig(
                beams=1,
                text_branch=grammar_size,
                video_branch=1,
                horizon=3,
                policy_temperature=0.0,
                root_seed=seed,
            )
            planner = Planner(simulator_submodels(wcfg, mcfg))
            plan = planner.plan(x0, goal, cfg)
            oracle_value, _ = brute_force_oracle(x0, goal, 3, wcfg, mcfg)
            if plan.final_value == oracle_value:
                matches += 1
        _report(
            "criterion 1, oracle equivalence",
            matches == n,
            f"{matches}/{n} micro-instances match exhaustive search exactly",
        )

    def test_criterion_2_scaling_trend(self):
        # Replay-verified plan success must rise monotonically with search
        # budget, and the widest budget must beat the narrowest by >= 15 pp.
        cfg = RunConfig(task=make_line(), n_blocks=5, seeds=(42,))
        cells = [
            replace(cfg.planner, beams=B, text_branch=A, video_branch=D, horizon=8)
            for B, A, D in ((1, 1, 1), (1, 1, 4), (1, 4, 4), (2, 4, 4))
        ]
        rates = [r.replay_success for r in scaling_suite(cfg, cells, 100)]
        monotone = all(a <= b for a, b in zip(rates, rates[1:]))
        spread = rates[-1] - rates[0]
        _report(
            "criterion 2, search-budget scaling trend",
            monotone and spread >= 0.15,
            f"replay-verified success {rates} (monotone={monotone}, spread={spread:.2f} >= 0.15)",
        )

    def test_criterion_3_guard_efficacy(self):
        # With a teleporting dynamics model, the exploitation guard must cut
        # the false-success rate (plan claims completion, replay fails) by
        # >= 10 pp on identical seeds.
        goal = group_by_color()
        faults = FaultConfig(p_teleport=0.2)
        n = 100
        false_rates = {}
        for guard in (3.0, 1e9):
            planner = Planner(simulator_submodels(faults=faults))
            false_succ = 0
            for ep in range(n):
                x0 = sample_initial_state(6, derive(7, ep))
                cfg = PlannerConfig(
                    beams=2, text_branch=4, video_branch=4, horizon=8,
                    guard_threshold=guard,
                )
                plan = planner.plan(x0, goal, cfg, ep)
                claims = any(is_complete(f, goal) for f in plan.frames())
                if claims and not replay_plan(x0, plan, goal, derive(9, ep)):
                    false_succ += 1
            false_rates[guard] = false_succ / n
        gap = false_rates[1e9] - false_rates[3.0]
        _report(
            "criterion 3, exploitation-guard efficacy",
            gap >= 0.10,
            f"false-success rate {false_rates[3.0]:.2f} guarded vs "
            f"{false_rates[1e9]:.2f} unguarded (gap {gap:.2f} >= 0.10)",
        )

    def test_criterion_4_extractor_ordering(self):
        # Closed-loop mean reward: tracking every plan frame must beat
        # tracking only segment-last frames by >= 5 pp, and must beat the
        # open-loop (plan once) baseline's completion rate by >= 5 pp.
        goal = group_by_color()
        pcfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=2, root_seed=0)
        n = 100
        results = {}
        for label, ecfg, open_loop in (
            ("every", ExecutionConfig(extractor=Extractor.GOAL_POLICY_EVERY_FRAME), False),
            ("last", ExecutionConfig(extractor=Extractor.GOAL_POLICY_LAST_FRAME), False),
            ("open", ExecutionConfig(extractor=Extractor.GOAL_POLICY_EVERY_FRAME), True),
        ):
            cfg = RunConfig(task=goal, planner=pcfg, execution=ecfg, n_blocks=6, seeds=(3,))
            results[label] = execution_suite(cfg, n, open_loop=open_loop)
        reward_margin = results["every"].mean_reward - results["last"].mean_reward
        completion_margin = (
            results["every"].completion_rate - results["open"].completion_rate
        )
        ok = reward_margin >= 5.0 and completion_margin >= 0.05
        _report(
            "criterion 4, frame-extractor ordering",
            ok,
            f"every-frame reward {results['every'].mean_reward:.1f} vs last-frame "
            f"{results['last'].mean_reward:.1f} (margin {reward_margin:.1f}, need >= 5.0); "
            f"every-frame completion {results['every'].completion_rate:.2f} vs open-loop "
            f"{results['open'].completion_rate:.2f} (margin {completion_margin:.2f}, need >= 0.05)",
        )

    def test_criterion_5_execution_protocol(self):
        # Defaults: 4 controls per tracked frame, 16 frames per replan, 1500
        # total controls, early stop on completion; verified on a real trace.
        ecfg = ExecutionConfig()
        ok = (
            ecfg.controls_per_frame == 4
            and ecfg.frames_per_plan == 16
            and ecfg.total_budget == 1500
        )
        pcfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=2, root_seed=0)
        x0 = sample_initial_state(6, seed=11)
        goal = group_by_color()
        res = run_episode(
            x0, goal, pcfg, ExecutionConfig(env_seed=5), Planner(), collect_trace=True
        )

        # Controls between consecutive replans: full 64-control segments
        # except for an early-terminated final one.
        counts = []
        current = None
        for rec in res.trace:
            if rec["kind"] == "PlanStep":
                if current is not None:
                    counts.append(current)
                current = 0
            elif rec["kind"] == "Control":
                current += 1
        if current is not None:
            counts.append(current)
        full = 16 * 4
        segments_ok = all(c == full for c in counts[:-1]) and 0 < counts[-1] <= full
        budget_ok = res.steps_used == sum(counts) <= 1500
        early_ok = res.completed and res.steps_used < 1500
        ok = ok and segments_ok and budget_ok and early_ok
        _report(
            "criterion 5, execution protocol conformance",
            ok,
            f"defaults 4x16/1500 honored, per-replan control counts {counts}, "
            f"budget used {res.steps_used}, early stop on completion={res.completed}",
        )

    def test_criterion_6_invariant_suite(self):
        failures = []

        # Rollout continuity: exact-model frames advance at most v_model per
        # frame and only the pushed block moves.
        mcfg = ModelConfig(sigma_model=0.0)
        sm = simulator_submodels(mcfg=mcfg)
        for seed in range(10):
            s = sample_initial_state(5, seed=seed)
            for action in action_grammar(s)[::5]:
                r = rollout_dynamics(s, action, rng_from(seed), mcfg=mcfg)
                subj = s.index_of(action.subject)
                for a, b in zip(r.frames[:-1], r.frames[1:]):
                    step = np.linalg.norm(b.positions - a.positions, axis=1)
                    if step[subj] > mcfg.v_model + 1e-12 or any(
                        step[i] > 0 for i in range(5) if i != subj
                    ):
                        failures.append(f"rollout continuity seed {seed}")
                        break

        # Plan chain continuity: each segment starts at the previous end.
        for seed in range(10):
            s = sample_initial_state(5, seed=seed)
            plan = Planner().plan(
                s, group_by_color(), PlannerConfig(horizon=4, root_seed=seed)
            )
            for a, b in zip(plan.segments[:-1], plan.segments[1:]):
                if not np.array_equal(a.last.positions, b.frames[0].positions):
                    failures.append(f"chain continuity seed {seed}")
                    break

        # Guard enforcement on returned plans under heavy faults.
        for seed in range(10):
            s = sample_initial_state(6, seed=seed)
            planner = Planner(simulator_submodels(faults=FaultConfig(p_teleport=0.4)))
            cfg = PlannerConfig(horizon=6, guard_threshold=3.0, root_seed=seed)
            plan = planner.plan(s, group_by_color(), cfg)
            for seg in plan.segments:
                if seg.end_heuristic - seg.start_heuristic > cfg.guard_threshold:
                    failures.append(f"guard seed {seed}")
                    break

        # Heuristic sign and zero-at-completion.
        for seed in range(200):
            s = sample_initial_state(6, seed=seed)
            for goal in (move_to_area(Corner.TOP_LEFT), group_by_color(), make_line()):
                v = heuristic([s], goal)[0]
                if v > 0 or (v == 0) != is_complete(s, goal):
                    failures.append(f"heuristic seed {seed}")

        # Block conservation and board containment under true dynamics.
        wcfg = WorldConfig()
        for seed in range(20):
            s = sample_initial_state(6, seed=seed)
            rng = rng_from((91, seed))
            for t in range(30):
                bid = int(rng.integers(0, 6))
                vec = rng.normal(0, 0.01, 2)
                m = np.linalg.norm(vec)
                if m > wcfg.u_max:
                    vec = vec / m * wcfg.u_max
                s = step_true(s, ControlAction(bid, (vec[0], vec[1])), rng_from((seed, t)))
            if s.ids != tuple(range(6)) or not (
                np.all(s.positions >= 0)
                and np.all(s.positions[:, 0] <= wcfg.width)
                and np.all(s.positions[:, 1] <= wcfg.height)
            ):
                failures.append(f"conservation seed {seed}")

        # Goal-conditioned policy fixed point.
        for seed in range(20):
            s = sample_initial_state(5, seed=seed)
            if goal_policy(s, s).displacement != (0.0, 0.0):
                failures.append(f"fixed point seed {seed}")

        # Nested-branching monotonicity at a single step (one beam): larger
        # candidate sets contain the smaller ones, so the chosen value can
        # only improve.
        for seed in range(10):
            s = sample_initial_state(5, seed=seed)
            for sweep in ("video", "text"):
                vals = []
                for k in (1, 2, 4, 8):
                    cfg = PlannerConfig(
                        beams=1,
                        text_branch=k if sweep == "text" else 4,
                        video_branch=k if sweep == "video" else 4,
                        horizon=1,
                        root_seed=seed,
                    )
                    vals.append(Planner().plan(s, group_by_color(), cfg).final_value)
                if vals != sorted(vals):
                    failures.append(f"nesting {sweep} seed {seed}: {vals}")

        # Byte-level replay determinism of a full planning run.
        from blockplan.config import RunConfig
        from blockplan.runs import plan_records

        cfg = RunConfig()
        a = canonical_json(plan_records(cfg, 5))
        if a != canonical_json(plan_records(cfg, 5)):
            failures.append("replay determinism")

        _report(
            "criterion 6, invariant suite",
            not failures,
            "all invariants hold" if not failures else f"violations: {failures[:5]}",
        )

    def test_criterion_7_greedy_reduction(self):
        # With one beam, one proposal, and one rollout per step and a
        # non-binding guard, the search must reproduce the no-selection
        # greedy chain bit for bit.
        goal = group_by_color()
        mismatches = 0
        n = 50
        for seed in range(n):
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
            if canonical_json(plan_to_dict(a)) != canonical_json(plan_to_dict(b)):
                mismatches += 1
        _report(
            "criterion 7, greedy-chain reduction",
            mismatches == 0,
            f"{n - mismatches}/{n} seeds bit-identical between degenerate search and greedy chain",
        )
