"""Closed-loop execution of plans in the true environment.

Converts plan frames into low-level controls via the goal-conditioned policy
(every frame or segment-last frames only) or inverse dynamics, and wraps the
planner in a receding-horizon loop: plan from the current true state, execute
a fixed prefix of the plan, replan, until completion or budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import tracing
from .errors import ConfigError
from .planner import Plan, Planner, PlannerConfig
from .seeding import derive
from .submodels import ModelConfig, goal_policy, inverse_dynamics, simulator_submodels
from .world import TaskGoal, WorldConfig, WorldState, is_complete, reward, step_true


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
        for name in ("controls_per_frame", "frames_per_plan", "total_budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.env_seed < 0:
            raise ConfigError(f"env_seed must be >= 0, got {self.env_seed}")


@dataclass
class EpisodeResult:
    final_reward: float
    completed: bool
    steps_used: int
    replan_count: int
    trace: list[dict] = field(default_factory=list)


def _segment_last_indices(n_segments: int, frames_per_segment: int) -> list[int]:
    """Flattened indices of each segment's last frame (junctions deduplicated)."""
    per = frames_per_segment - 1
    return [(k + 1) * per for k in range(n_segments)]


def execute_segmentwise(
    env_state: WorldState,
    plan: Plan,
    goal: TaskGoal,
    cfg: ExecutionConfig,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    steps_used: int = 0,
    trace: list[dict] | None = None,
    controller=None,
) -> tuple[WorldState, int]:
    """Execute the first ``frames_per_plan`` frames of a plan against the true
    environment, returning the new state and the number of controls issued.

    Goal-policy extractors issue ``controls_per_frame`` controls per selected
    frame through ``controller(state, goal_frame)`` (default: the unlimited
    `goal_policy` servo); a ``None`` from the controller skips the rest of
    that frame without spending budget. Inverse dynamics issues one control
    per consecutive frame pair. Stops early on completion or budget exhaustion.
    """
    if controller is None:
        def controller(state, goal_state):
            return goal_policy(state, goal_state, wcfg, mcfg)

    frames = plan.frames()
    n_exec = min(cfg.frames_per_plan, len(frames) - 1)
    if cfg.extractor is Extractor.INVERSE_DYNAMICS:
        tracked, repeats = range(1, n_exec + 1), 1

        def control(state, t):
            return inverse_dynamics(frames[t - 1], frames[t], wcfg)

    else:
        if cfg.extractor is Extractor.GOAL_POLICY_LAST_FRAME:
            per_seg = len(plan.segments[0].frames) if plan.segments else 2
            last_idx = _segment_last_indices(len(plan.segments), per_seg)
            tracked = [t for t in last_idx if 1 <= t <= n_exec]
        else:
            tracked = range(1, n_exec + 1)
        repeats = cfg.controls_per_frame

        def control(state, t):
            return controller(state, frames[t])

    issued = 0
    for t in tracked:
        for _ in range(repeats):
            if steps_used + issued >= cfg.total_budget:
                return env_state, issued
            u = control(env_state, t)
            if u is None:
                break  # goal frame out of the controller's reach
            env_state = step_true(
                env_state, u, derive(cfg.env_seed, steps_used + issued), wcfg
            )
            issued += 1
            if trace is not None:
                trace.append(
                    {
                        "kind": "Control",
                        "step": steps_used + issued,
                        "block": u.target_block,
                        "displacement": [u.displacement[0], u.displacement[1]],
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
    planner: Planner | None = None,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    collect_trace: bool = False,
) -> EpisodeResult:
    """Receding-horizon closed loop: plan, execute a prefix, replan.

    Deterministic in (initial, goal, pcfg, ecfg): each replan uses a root seed
    derived from (pcfg.root_seed, replan index), and every environment step
    uses a seed derived from (ecfg.env_seed, global step index). Goal-policy
    controls come from ``planner.submodels.controller``; a replan at which it
    issues no control ends the episode.
    """
    planner = planner if planner is not None else Planner(simulator_submodels(wcfg, mcfg))
    trace: list[dict] | None = [] if collect_trace else None
    env_state = initial
    steps_used = 0
    replan_count = 0
    while steps_used < ecfg.total_budget and not is_complete(env_state, goal, wcfg):
        plan = planner.plan(env_state, goal, pcfg, root_seed=derive(pcfg.root_seed, replan_count))
        replan_count += 1
        if trace is not None:
            trace.append(
                {
                    "kind": "PlanStep",
                    "replan": replan_count - 1,
                    "final_value": plan.final_value,
                    "n_segments": len(plan.segments),
                }
            )
        env_state, issued = execute_segmentwise(
            env_state,
            plan,
            goal,
            ecfg,
            wcfg,
            mcfg,
            steps_used=steps_used,
            trace=trace,
            controller=planner.submodels.controller,
        )
        steps_used += issued
        if issued == 0:
            break  # no progress possible (degenerate plan or exhausted budget)
    final = reward(env_state, goal, wcfg)
    done = is_complete(env_state, goal, wcfg)
    result = EpisodeResult(
        final_reward=final,
        completed=done,
        steps_used=steps_used,
        replan_count=replan_count,
        trace=trace if trace is not None else [],
    )
    if trace is not None:
        trace.append(
            {
                "kind": "EpisodeEnd",
                "reward": final,
                "completed": done,
                "steps_used": steps_used,
                "replan_count": replan_count,
            }
        )
    return result


def run_open_loop(
    initial: WorldState,
    goal: TaskGoal,
    pcfg: PlannerConfig,
    ecfg: ExecutionConfig,
) -> EpisodeResult:
    """Baseline without replanning: plan once with the default simulator
    submodels, execute the whole plan with their controller."""
    if is_complete(initial, goal):
        return EpisodeResult(100.0, True, 0, 0)
    planner = Planner()
    plan = planner.plan(initial, goal, pcfg, root_seed=derive(pcfg.root_seed, 0))
    all_frames = replace(ecfg, frames_per_plan=len(plan.frames()) - 1)
    env_state, issued = execute_segmentwise(
        initial, plan, goal, all_frames, controller=planner.submodels.controller
    )
    return EpisodeResult(
        final_reward=reward(env_state, goal),
        completed=is_complete(env_state, goal),
        steps_used=issued,
        replan_count=1,
    )
