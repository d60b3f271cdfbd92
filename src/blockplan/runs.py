"""Trace-producing run wrappers shared by the CLI and the replay verifier.

Each wrapper is a pure function of (RunConfig, seed) returning the full record
stream for one run; replay simply regenerates the stream and diffs it against
the stored trace.
"""

from __future__ import annotations

from dataclasses import replace

from .config import RunConfig
from .executor import run_episode
from .planner import Planner
from .seeding import derive
from .submodels import simulator_submodels
from .tracing import plan_to_dict, round9, state_to_dict
from .world import reward, sample_initial_state


def plan_records(cfg: RunConfig, seed: int) -> list[dict]:
    """Plan once from a seeded initial state; emit search events and the plan."""
    x0 = sample_initial_state(cfg.n_blocks, derive(seed), cfg.world)
    planner = Planner(simulator_submodels(cfg.world, cfg.model, cfg.faults))
    plan = planner.plan(x0, cfg.task, cfg.planner, seed)
    records: list[dict] = [{"kind": "InitialState", "state": state_to_dict(x0)}]
    records.extend(planner.events)
    last = plan.last_frame
    records.append({"kind": "Reward", "value": round9(reward(last, cfg.task, cfg.world))})
    records.append({"kind": "PlanResult", "plan": plan_to_dict(plan)})
    return records


def episode_records(cfg: RunConfig, seed: int) -> list[dict]:
    """Run one closed-loop episode; emit per-control records and the outcome."""
    x0 = sample_initial_state(cfg.n_blocks, derive(seed), cfg.world)
    planner = Planner(simulator_submodels(cfg.world, cfg.model, cfg.faults))
    ecfg = replace(cfg.execution, env_seed=int(cfg.execution.env_seed) + seed)
    result = run_episode(
        x0,
        cfg.task,
        cfg.planner,
        ecfg,
        planner=planner,
        wcfg=cfg.world,
        collect_trace=True,
    )
    records: list[dict] = [{"kind": "InitialState", "state": state_to_dict(x0)}]
    records.extend(result.trace)
    return records
