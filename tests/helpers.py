"""Fixtures shared by the test modules; `greedy_chain`, the no-search
reference that criterion 7 pins the degenerate `Planner.plan` to; and
`reference_resolve`, the array target rule that `Target.point` is pinned to."""

import numpy as np

from blockplan.planner import _SEED_PROPOSE, _SEED_ROLLOUT, Plan, PlannerConfig
from blockplan.seeding import derive, rollout_streams
from blockplan.errors import InvalidActionError
from blockplan.submodels import ModelConfig, Submodels, Target
from blockplan.world import Color, TaskGoal, WorldConfig, WorldState

EXACT_WORLD = WorldConfig(sigma_env=0.0)
EXACT_MODEL = ModelConfig(sigma_model=0.0)


def make_state(positions, colors=None):
    n = len(positions)
    if colors is None:
        colors = [list(Color)[i % 4] for i in range(n)]
    return WorldState(colors=tuple(colors), positions=np.array(positions, dtype=float))


def greedy_chain(sm: Submodels, x0: WorldState, goal: TaskGoal, cfg: PlannerConfig) -> Plan:
    """No-search baseline over the bundle ``sm``: chain propose(1) -> rollout
    -> append with no selection and no guard (the "no value function"
    structure), stopping at a frame whose value is 0, a complete one. With
    beams = text_branch = video_branch = 1 and a non-binding guard,
    ``Planner(sm).plan`` reduces to exactly this chain."""
    beam = Plan(start=x0, final_value=sm.value([x0], goal)[0])
    stream = rollout_streams(derive(cfg.root_seed, _SEED_ROLLOUT))
    for h in range(1, cfg.horizon + 1):
        if beam.final_value == 0:
            break
        frame = beam.last_frame
        action = sm.propose(
            frame,
            goal,
            1,
            cfg.policy_temperature,
            derive(cfg.root_seed, 0, _SEED_PROPOSE, 0, h),
        )[0]
        r = sm.rollout(frame, action, stream(0, 0, h, 0, 0))
        r.start_heuristic = beam.final_value
        [r.end_heuristic] = sm.value([r.last], goal)
        beam.segments.append(r)
        beam.final_value = r.end_heuristic
    return beam


def reference_resolve(target: Target, state: WorldState, subject: int, cfg: WorldConfig):
    """The target point as the array rule before `Target.point` gave it as
    two floats: a centroid is ``np.add.reduce`` over its peers' rows, divided
    by their count, and with no peer the subject's own row. A target naming
    a block or a color that the state lacks raises `InvalidActionError`."""
    if target.kind == "corner":
        return np.array(cfg.corner_xy(target.corner))
    if target.kind == "center":
        return np.array([cfg.width / 2.0, cfg.height / 2.0])
    if target.kind == "block":
        return state.positions[state.index_of(target.block)].copy()
    if target.color not in state.colors:
        raise InvalidActionError(f"no {target.color.value} block for a centroid target")
    i = state.index_of(subject)
    peers = [j for j, c in enumerate(state.colors) if c == target.color and j != i]
    if not peers:
        return state.positions[i].copy()
    return np.add.reduce(state.positions[peers], 0) / len(peers)
