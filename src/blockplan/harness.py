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

import numpy as np

from .config import RunConfig
from .errors import CapacityError, ConfigError
from .executor import _SEED_CONTROL, run_episode
from .planner import Plan, Planner, PlannerConfig
from .seeding import SeedLike, derive, rng_from
from .submodels import (
    AbstractAction,
    ModelConfig,
    action_grammar,
    idealized_outcomes,
    simulator_submodels,
    steps_to_go,
)
from .world import (
    TaskGoal,
    WorldConfig,
    WorldState,
    ControlAction,
    is_complete,
    sample_initial_state,
    satisfied,
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
    order: the first best of the G**H leaves. One whole depth at a time goes
    through `idealized_outcomes` as one array in grammar order; the node count
    must stay under `ENUMERATION_CAP`, so memory stays within the cap times n.
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
    leaves = x0.positions[None]
    for _ in range(H):
        leaves = np.concatenate([idealized_outcomes(x0.with_view(p), wcfg, mcfg) for p in leaves])
    values = steps_to_go(leaves, x0.colors, goal, wcfg, mcfg)
    best = int(np.argmax(values))
    return float(values[best]), [grammar[i] for i in np.unravel_index(best, (g,) * H)]


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
    ceil(push_reach / u_max) controls toward the action's `Target.point`, so
    teleported or hidden progress in the plan's frames cannot be reproduced.
    The controls draw in turn from one generator, seeded
    ``derive(seed, _SEED_CONTROL)``. Success iff any replayed state completes
    the goal. An action naming a block the state lacks raises
    `InvalidActionError`.
    """
    controls_per_action = max(1, math.ceil(mcfg.push_reach / wcfg.u_max))
    rng = rng_from(derive(seed, _SEED_CONTROL))
    state = x0
    if is_complete(state, goal, wcfg):
        return True
    for action in plan.actions:
        tx, ty = action.target.point(state, action.subject, wcfg)
        for _ in range(controls_per_action):
            x, y = state.positions[state.index_of(action.subject)].tolist()
            dx, dy = tx - x, ty - y
            d = math.sqrt(dx * dx + dy * dy)
            u = ControlAction.bounded(action.subject, dx, dy, d, wcfg.u_max)
            state = step_true(state, u, rng, wcfg)
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
    completes the goal) and replay-verified: `scaling_suite`'s one cell."""
    row = scaling_suite(cfg, [cfg.planner], n)[0]
    return replace(row, label=cfg.task.kind.value)


def scaling_suite(cfg: RunConfig, cells: list[PlannerConfig], n: int) -> list[CellSummary]:
    """Plan-accuracy ablation: one row of n episodes per planner config, on
    the same initial states in every cell.

    Episodes run outside and cells inside, largest ``(text_branch,
    video_branch)`` first (ties in the given order), and the plans of one
    episode share a memo (`Planner.plan`), so a candidate set that a larger
    cell's grid covers is rolled out and valued once. Rows keep the given
    order. Each row's ``wall_clock`` is its cell's own time in this run,
    after that reuse: a shared set is charged to the largest cell, which
    builds it. Nothing is kept across episodes, suite calls or CLI calls.
    """
    _check_episodes(n)
    planner = Planner(simulator_submodels(cfg.world, cfg.model, cfg.faults))
    goal, wcfg, seed = cfg.task, cfg.world, cfg.seeds[0]
    naive, replayed, wall = [0] * len(cells), [0] * len(cells), [0.0] * len(cells)
    order = sorted(range(len(cells)), key=lambda c: (-cells[c].text_branch, -cells[c].video_branch))
    for ep in range(n):
        # The 0 in each seed keeps the seeds, and so the CSVs, of earlier
        # ablation runs reproducible.
        x0 = sample_initial_state(cfg.n_blocks, derive(seed, 0, ep), wcfg)
        memo: dict = {}
        for c in order:
            t0 = time.perf_counter()
            plan = planner.plan(x0, goal, cells[c], 0, ep, memo=memo)
            if satisfied(plan.positions(), x0.colors, goal, wcfg).all(axis=-1).any():
                naive[c] += 1
                if replay_plan(x0, plan, goal, derive(seed, 0, ep, 1), wcfg, cfg.model):
                    replayed[c] += 1
            wall[c] += time.perf_counter() - t0
    return [
        CellSummary(
            label=f"B{pcfg.beams}_A{pcfg.text_branch}_D{pcfg.video_branch}_H{pcfg.horizon}",
            episodes=n,
            naive_success=naive[c] / n,
            replay_success=replayed[c] / n,
            wall_clock=wall[c],
        )
        for c, pcfg in enumerate(cells)
    ]


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
            x0, cfg.task, cfg.planner, eseed, planner, cfg.world, open_loop=open_loop
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
