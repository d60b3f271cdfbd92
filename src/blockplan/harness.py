"""Batch evaluation: plan-accuracy suites, branching/beam ablation grids,
closed-loop execution suites, and the exhaustive micro-instance oracle.

Plan success is machine-checked two ways: a naive score that trusts the
model-predicted plan frames, and a replay-verified score that re-executes the
plan's chosen actions in the true environment with a per-action control
budget. The gap between the two exposes dynamics-model exploitation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .errors import CapacityError
from .executor import run_episode, run_open_loop
from .planner import Plan, Planner, PlannerConfig
from .seeding import SeedLike, derive
from .submodels import (
    AbstractAction,
    FaultConfig,
    ModelConfig,
    action_grammar,
    heuristic,
    idealized_outcome,
    simulator_submodels,
)
from .world import (
    TaskGoal,
    WorldConfig,
    WorldState,
    ControlAction,
    is_complete,
    sample_initial_state,
    step_true,
)


@dataclass(frozen=True)
class AblationGrid:
    """Planner configurations to sweep: (beams, text_branch, video_branch, horizon)."""

    cells: tuple[tuple[int, int, int, int], ...]
    episodes_per_cell: int = 100
    seed_base: int = 0

    def __post_init__(self):
        if not self.cells:
            raise ValueError("grid must contain at least one cell")
        if self.episodes_per_cell < 1:
            raise ValueError("episodes_per_cell must be >= 1")


@dataclass
class CellSummary:
    label: str
    episodes: int
    naive_success: float = 0.0
    replay_success: float = 0.0
    mean_reward: float = 0.0
    completion_rate: float = 0.0
    wall_clock: float = 0.0


@dataclass
class SuiteSummary:
    rows: list[CellSummary]

    def csv_lines(self) -> list[str]:
        header = (
            "label,episodes,naive_success,replay_success,"
            "mean_reward,completion_rate,wall_clock_s"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.label},{r.episodes},{r.naive_success:.4f},{r.replay_success:.4f},"
                f"{r.mean_reward:.4f},{r.completion_rate:.4f},{r.wall_clock:.3f}"
            )
        return lines


# --- Brute-force oracle ------------------------------------------------------


def brute_force_oracle(
    x0: WorldState,
    goal: TaskGoal,
    H: int,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    enumeration_cap: int = 500_000,
) -> tuple[float, list[AbstractAction]]:
    """Exhaustively search all action sequences of length H through the
    noise-free, fault-free dynamics model and return the best final heuristic.

    Ties resolve to the lexicographically first action sequence in grammar
    order. Depth-first over the grammar tree; the node count must stay under
    ``enumeration_cap``.
    """
    if H < 0:
        raise ValueError(f"horizon must be >= 0, got {H}")
    grammar = action_grammar(x0)
    g = len(grammar)
    nodes = sum(g**h for h in range(1, H + 1))
    if nodes > enumeration_cap:
        raise CapacityError(
            f"enumeration of {nodes} nodes exceeds cap {enumeration_cap}"
        )

    def recurse(state: WorldState, depth: int) -> tuple[float, list[AbstractAction]]:
        if depth == H:
            return heuristic(state, goal, wcfg, mcfg), []
        best_val = -math.inf
        best_seq: list[AbstractAction] = []
        for action in grammar:
            val, seq = recurse(idealized_outcome(state, action, wcfg, mcfg), depth + 1)
            if val > best_val:
                best_val = val
                best_seq = [action] + seq
        return best_val, best_seq

    return recurse(x0, 0)


# --- Replay verification -----------------------------------------------------


def replay_plan(
    x0: WorldState,
    plan: Plan,
    goal: TaskGoal,
    seed: SeedLike = 0,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> bool:
    """Re-execute the plan's chosen actions in the true environment.

    Each abstract action gets the control budget a real push is worth,
    ceil(push_reach / u_max) controls toward the action's resolved target, so
    teleported or hidden progress in the plan's frames cannot be reproduced.
    Success iff any replayed state completes the goal. An action naming a
    block the state lacks raises `InvalidActionError`.
    """
    controls_per_action = max(1, math.ceil(mcfg.push_reach / wcfg.u_max))
    state = x0
    step = 0
    if is_complete(state, goal, wcfg):
        return True
    for action in plan.actions:
        target = action.target.resolve(state, action.subject, wcfg)
        for _ in range(controls_per_action):
            delta = target - state.pos(action.subject)
            d = float((delta @ delta) ** 0.5)
            u = ControlAction.bounded(action.subject, delta, d, wcfg.u_max)
            state = step_true(state, u, derive(seed, step), wcfg)
            step += 1
            if is_complete(state, goal, wcfg):
                return True
    return False


# --- Suites ------------------------------------------------------------------


def plan_accuracy_suite(
    tasks: list[TaskGoal],
    cfg: PlannerConfig,
    n: int,
    n_blocks: int = 4,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    faults: FaultConfig = FaultConfig(),
    seed_base: int = 0,
) -> SuiteSummary:
    """Generate n plans per task from seeded initial states and score each
    plan both naively (any plan frame completes the goal) and replay-verified."""
    if n < 1:
        raise ValueError("n must be >= 1")
    planner = Planner(simulator_submodels(wcfg, mcfg, faults))
    rows: list[CellSummary] = []
    for t_idx, goal in enumerate(tasks):
        t0 = time.perf_counter()
        naive = replayed = 0
        for ep in range(n):
            x0 = sample_initial_state(n_blocks, derive(seed_base, t_idx, ep), wcfg)
            plan = planner.plan(x0, goal, cfg, root_seed=derive(cfg.root_seed, t_idx, ep))
            if any(is_complete(f, goal, wcfg) for f in plan.frames()):
                naive += 1
                if replay_plan(x0, plan, goal, derive(seed_base, t_idx, ep, 1), wcfg, mcfg):
                    replayed += 1
        rows.append(
            CellSummary(
                label=goal.kind.value,
                episodes=n,
                naive_success=naive / n,
                replay_success=replayed / n,
                wall_clock=time.perf_counter() - t0,
            )
        )
    return SuiteSummary(rows=rows)


def scaling_suite(
    grid: AblationGrid,
    task: TaskGoal,
    base_cfg: PlannerConfig = PlannerConfig(),
    n_blocks: int = 4,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    faults: FaultConfig = FaultConfig(),
) -> SuiteSummary:
    """Plan-accuracy ablation over (beams, text branch, video branch, horizon)
    cells, identical initial-state seeds in every cell."""
    rows: list[CellSummary] = []
    for B, A, D, H in grid.cells:
        summary = plan_accuracy_suite(
            [task],
            replace(base_cfg, beams=B, text_branch=A, video_branch=D, horizon=H),
            grid.episodes_per_cell,
            n_blocks=n_blocks,
            wcfg=wcfg,
            mcfg=mcfg,
            faults=faults,
            seed_base=grid.seed_base,
        )
        row = summary.rows[0]
        row.label = f"B{B}_A{A}_D{D}_H{H}"
        rows.append(row)
    return SuiteSummary(rows=rows)


def execution_suite(
    task: TaskGoal,
    pcfg: PlannerConfig,
    ecfg,
    n: int,
    n_blocks: int = 4,
    seed_base: int = 0,
    open_loop: bool = False,
) -> SuiteSummary:
    """Closed-loop (or open-loop baseline) episodes over seeded environments."""
    t0 = time.perf_counter()
    rewards = []
    completions = 0
    for ep in range(n):
        x0 = sample_initial_state(n_blocks, derive(seed_base, ep))
        eseed = replace(ecfg, env_seed=int(1_000_003 * (ep + 1) + ecfg.env_seed))
        runner = run_open_loop if open_loop else run_episode
        res = runner(x0, task, pcfg, eseed)
        rewards.append(res.final_reward)
        completions += int(res.completed)
    row = CellSummary(
        label=("open_loop" if open_loop else ecfg.extractor.value),
        episodes=n,
        mean_reward=sum(rewards) / n,
        completion_rate=completions / n,
        wall_clock=time.perf_counter() - t0,
    )
    return SuiteSummary(rows=[row])
