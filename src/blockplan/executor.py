"""Closed-loop execution of plans in the true environment.

Converts plan frames into low-level controls via the goal-conditioned policy
(every frame or segment-last frames only) or inverse dynamics, and wraps the
planner in a receding-horizon loop: plan from the current true state, execute
a fixed prefix of the plan, replan, until completion or budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from . import tracing
from .planner import Plan, Planner, PlannerConfig
from .seeding import derive, rng_from
from .submodels import inverse_dynamics
from .world import TaskGoal, WorldConfig, WorldState, is_complete, require, reward, step_true


# The salt that ends a closed-loop seed: with it the seed is never numpy's
# zero-padded form of a shorter one, such as the seed of the initial state.
_SEED_CONTROL = 1


class Extractor(str, Enum):
    GOAL_POLICY_EVERY_FRAME = "goal_policy_every_frame"
    GOAL_POLICY_LAST_FRAME = "goal_policy_last_frame"
    INVERSE_DYNAMICS = "inverse_dynamics"


@dataclass(frozen=True)
class ExecutionConfig:
    controls_per_frame: int = 4
    frames_per_plan: int = 16
    total_budget: int = 1500
    extractor: Extractor = Extractor.GOAL_POLICY_EVERY_FRAME
    env_seed: int = 0

    def __post_init__(self):
        require(self, ">= 1", "controls_per_frame", "frames_per_plan", "total_budget")
        require(self, ">= 0", "env_seed")


@dataclass
class EpisodeResult:
    final_reward: float
    completed: bool
    steps_used: int
    replan_count: int


def execute_segmentwise(
    env_state: WorldState,
    plan: Plan,
    goal: TaskGoal,
    cfg: ExecutionConfig,
    controller,
    wcfg: WorldConfig = WorldConfig(),
    steps_used: int = 0,
    trace: list[dict] | None = None,
) -> tuple[WorldState, int]:
    """Execute the first ``frames_per_plan`` frames of a plan against the true
    environment, returning the new state and the number of controls issued.

    Goal-policy extractors issue ``controls_per_frame`` controls per selected
    frame through ``controller(state, goal_frame)``; a ``None`` from the
    controller skips the rest of that frame without spending budget. Inverse
    dynamics issues one control per consecutive frame pair. Stops early on
    completion or budget exhaustion. The controls draw in turn from one
    generator, seeded ``derive(cfg.env_seed, steps_used, _SEED_CONTROL)``.
    """
    frames = plan.frames()
    n_exec = min(cfg.frames_per_plan, len(frames) - 1)
    if cfg.extractor is Extractor.INVERSE_DYNAMICS:
        tracked, repeats = range(1, n_exec + 1), 1

        def control(state, t):
            return inverse_dynamics(frames[t - 1], frames[t], wcfg)

    else:
        if cfg.extractor is Extractor.GOAL_POLICY_LAST_FRAME:
            tracked = [t for t in plan.segment_ends() if 1 <= t <= n_exec]
        else:
            tracked = range(1, n_exec + 1)
        repeats = cfg.controls_per_frame

        def control(state, t):
            return controller(state, frames[t])

    rng = rng_from(derive(cfg.env_seed, steps_used, _SEED_CONTROL))
    issued = 0
    for t in tracked:
        for _ in range(repeats):
            if steps_used + issued >= cfg.total_budget:
                return env_state, issued
            u = control(env_state, t)
            if u is None:
                break  # goal frame out of the controller's reach
            env_state = step_true(env_state, u, rng, wcfg)
            issued += 1
            if trace is not None:
                trace.append(
                    {
                        "kind": "Control",
                        "step": steps_used + issued,
                        "block": u.target_block,
                        "displacement": tracing.wire_positions(u.displacement),
                        "state_hash": tracing.state_digest(env_state),
                    }
                )
            if is_complete(env_state, goal, wcfg):
                return env_state, issued
    return env_state, issued


def run_episode(
    initial: WorldState,
    goal: TaskGoal,
    pcfg: PlannerConfig,
    ecfg: ExecutionConfig,
    planner: Planner,
    wcfg: WorldConfig = WorldConfig(),
    trace: list[dict] | None = None,
    open_loop: bool = False,
) -> EpisodeResult:
    """Receding-horizon closed loop: plan with ``planner``, execute a prefix,
    replan. Deterministic in its inputs: each replan uses a root seed derived
    from (pcfg.root_seed, replan index), and the controls issued after it
    draw from one generator seeded from (ecfg.env_seed, steps used so far).
    Goal-policy controls come from ``planner.submodels.controller``; a replan
    at which it issues no control ends the episode. ``open_loop`` executes
    one whole plan. A ``trace`` list gets one record per replan and control
    and a closing ``EpisodeEnd``.
    """
    env_state = initial
    steps_used = 0
    replan_count = 0
    while steps_used < ecfg.total_budget and not is_complete(env_state, goal, wcfg):
        plan = planner.plan(env_state, goal, pcfg, replan_count)
        if open_loop:
            ecfg = replace(ecfg, frames_per_plan=len(plan.frames()) - 1)
        replan_count += 1
        if trace is not None:
            trace.append(
                {
                    "kind": "PlanStep",
                    "replan": replan_count - 1,
                    "final_value": tracing.round9(plan.final_value),
                    "n_segments": len(plan.segments),
                }
            )
        env_state, issued = execute_segmentwise(
            env_state,
            plan,
            goal,
            ecfg,
            planner.submodels.controller,
            wcfg,
            steps_used=steps_used,
            trace=trace,
        )
        steps_used += issued
        if issued == 0 or open_loop:
            break  # open loop, or no progress possible (degenerate plan or exhausted budget)
    final = reward(env_state, goal, wcfg)
    done = is_complete(env_state, goal, wcfg)
    if trace is not None:
        trace.append(
            {
                "kind": "EpisodeEnd",
                "reward": tracing.round9(final),
                "completed": done,
                "steps_used": steps_used,
                "replan_count": replan_count,
            }
        )
    return EpisodeResult(final, done, steps_used, replan_count)

