"""Batch evaluation: plan-accuracy suites, ablations over planner configs,
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

from .config import RunConfig
from .errors import CapacityError, ConfigError
from .executor import run_episode
from .planner import Plan, Planner, PlannerConfig
from .seeding import SeedLike, derive
from .submodels import (
    AbstractAction,
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


@dataclass
class CellSummary:
    label: str
    episodes: int
    naive_success: float = 0.0
    replay_success: float = 0.0
    mean_reward: float = 0.0
    completion_rate: float = 0.0
    wall_clock: float = 0.0


# --- Brute-force oracle ------------------------------------------------------

ENUMERATION_CAP = 500_000  # search-tree nodes the oracle may visit


def brute_force_oracle(
    x0: WorldState,
    goal: TaskGoal,
    H: int,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> tuple[float, list[AbstractAction]]:
    """Exhaustively search all action sequences of length H through the
    noise-free, fault-free dynamics model and return the best final heuristic.

    Ties resolve to the lexicographically first action sequence in grammar
    order. Depth-first over the grammar tree; the node count must stay under
    `ENUMERATION_CAP`.
    """
    if H < 0:
        raise ConfigError(f"horizon must be >= 0, got {H}")
    grammar = action_grammar(x0)
    g = len(grammar)
    nodes = 0
    for h in range(1, H + 1):
        nodes += g**h
        if nodes > ENUMERATION_CAP:
            raise CapacityError(
                f"enumeration over horizon {H} exceeds the cap of {ENUMERATION_CAP} nodes"
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


def _check_episodes(n: int) -> None:
    if n < 1:
        raise ConfigError(f"episodes must be >= 1, got {n}")


def plan_accuracy_suite(cfg: RunConfig, n: int) -> CellSummary:
    """Generate n plans for the run's task from initial states seeded by
    ``cfg.seeds[0]`` and score each plan both naively (any plan frame
    completes the goal) and replay-verified."""
    _check_episodes(n)
    planner = Planner(simulator_submodels(cfg.world, cfg.model, cfg.faults))
    goal, wcfg, seed = cfg.task, cfg.world, cfg.seeds[0]
    t0 = time.perf_counter()
    naive = replayed = 0
    for ep in range(n):
        # The 0 in each seed keeps the seeds, and so the CSVs, of earlier
        # ablation runs reproducible.
        x0 = sample_initial_state(cfg.n_blocks, derive(seed, 0, ep), wcfg)
        plan = planner.plan(x0, goal, cfg.planner, 0, ep)
        if any(is_complete(f, goal, wcfg) for f in plan.frames()):
            naive += 1
            if replay_plan(x0, plan, goal, derive(seed, 0, ep, 1), wcfg, cfg.model):
                replayed += 1
    return CellSummary(
        label=goal.kind.value,
        episodes=n,
        naive_success=naive / n,
        replay_success=replayed / n,
        wall_clock=time.perf_counter() - t0,
    )


def scaling_suite(cfg: RunConfig, cells: list[PlannerConfig], n: int) -> list[CellSummary]:
    """Plan-accuracy ablation: one row of n episodes per planner config, on
    the same initial states in every cell."""
    rows = []
    for pcfg in cells:
        row = plan_accuracy_suite(replace(cfg, planner=pcfg), n)
        label = f"B{pcfg.beams}_A{pcfg.text_branch}_D{pcfg.video_branch}_H{pcfg.horizon}"
        rows.append(replace(row, label=label))
    return rows


def execution_suite(cfg: RunConfig, n: int, open_loop: bool = False) -> CellSummary:
    """Closed-loop (or open-loop baseline) episodes of the run over
    environments seeded by ``cfg.seeds[0]``."""
    _check_episodes(n)
    planner = Planner(simulator_submodels(cfg.world, cfg.model, cfg.faults))
    ecfg = cfg.execution
    t0 = time.perf_counter()
    rewards = []
    completions = 0
    for ep in range(n):
        x0 = sample_initial_state(cfg.n_blocks, derive(cfg.seeds[0], ep), cfg.world)
        eseed = replace(ecfg, env_seed=int(1_000_003 * (ep + 1) + ecfg.env_seed))
        res = run_episode(
            x0, cfg.task, cfg.planner, eseed, planner, cfg.world, cfg.model, open_loop=open_loop
        )
        rewards.append(res.final_reward)
        completions += int(res.completed)
    return CellSummary(
        label=("open_loop" if open_loop else ecfg.extractor.value),
        episodes=n,
        mean_reward=sum(rewards) / n,
        completion_rate=completions / n,
        wall_clock=time.perf_counter() - t0,
    )
