"""Pluggable planning submodels and their simulator-backed reference implementations.

Four roles: an action-proposal policy over a closed text grammar, a rollout
dynamics model (with optional fault injection mimicking teleporting and
vanishing objects), a steps-to-go heuristic, and two low-level controllers
(goal-conditioned policy and inverse dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidActionError, InvalidGoalError
from .seeding import SeedLike, rng_from
from .world import (
    SENTINEL_POS,
    Color,
    Corner,
    ControlAction,
    TaskGoal,
    WorldConfig,
    WorldState,
    block_region_distance,
)

_CEIL_EPS = 1e-9  # distances within this of a step multiple do not cost an extra step


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the simulated dynamics model and heuristic.

    One abstract action moves a block by at most ``push_reach``, which is also
    the unit of the heuristic's steps-to-go estimate. Rollouts interpolate at
    ``push_reach / frames_per_rollout`` per frame.
    """

    push_reach: float = 0.1
    frames_per_rollout: int = 16
    sigma_model: float = 0.003
    goal_eps: float = 1e-3

    def __post_init__(self):
        if not self.push_reach > 0:
            raise ConfigError(f"push_reach must be > 0, got {self.push_reach}")
        for name in ("sigma_model", "goal_eps"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.frames_per_rollout < 2:
            raise ConfigError(f"frames_per_rollout must be >= 2, got {self.frames_per_rollout}")

    @property
    def v_model(self) -> float:
        # S frames have S-1 transitions; this ties one full rollout to exactly
        # one push_reach of travel, i.e. one heuristic step.
        return self.push_reach / (self.frames_per_rollout - 1)

    @property
    def controller_reach(self) -> float:
        """Farthest goal frame the simulator's goal-conditioned policy acts on.

        A learned goal-conditioned policy is reliable only for goal frames like
        those it was trained on: frames a short way along one predicted video,
        which is why plans are tracked frame by frame rather than through the
        end frame of each action. Half of one abstract action's travel (the
        midpoint of a rollout) bounds that neighbourhood; reaching the end of
        an action is the video model's job, not the controller's.
        """
        return self.push_reach / 2


@dataclass(frozen=True)
class FaultConfig:
    """Per-rollout fault probabilities for the dynamics model."""

    p_teleport: float = 0.0
    p_vanish: float = 0.0

    def __post_init__(self):
        for name in ("p_teleport", "p_vanish"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


# --- Abstract action grammar -------------------------------------------------
#
# Text form: "push <color><id> to <target-name>" where target-name is one of
# top_left / top_right / bottom_left / bottom_right / center, another block's
# <color><id>, or "<color>_group" (centroid of that color's other blocks).


@dataclass(frozen=True)
class Target:
    kind: str  # "corner" | "center" | "block" | "color_centroid"
    corner: Corner | None = None
    block: int | None = None
    color: Color | None = None

    def name(self, state: WorldState) -> str:
        if self.kind == "corner":
            return self.corner.value
        if self.kind == "center":
            return "center"
        if self.kind == "block":
            return f"{state.color_of(self.block).value}{self.block}"
        return f"{self.color.value}_group"

    def resolve(self, state: WorldState, subject: int, cfg: WorldConfig) -> np.ndarray:
        """Concrete board point the subject block is pushed toward."""
        if self.kind == "corner":
            return cfg.corner_point(self.corner)
        if self.kind == "center":
            return cfg.center_point
        if self.kind == "block":
            return state.pos(self.block).copy()
        peers = [
            i
            for i, c in enumerate(state.colors)
            if c == self.color and state.ids[i] != subject
        ]
        if not peers:
            return state.pos(subject).copy()
        return state.positions[peers].mean(axis=0)


@dataclass(frozen=True)
class AbstractAction:
    """One short-horizon text action: push a block toward a named target."""

    subject: int
    target: Target

    def text(self, state: WorldState) -> str:
        subj = f"{state.color_of(self.subject).value}{self.subject}"
        return f"push {subj} to {self.target.name(state)}"


def action_grammar(state: WorldState) -> list[AbstractAction]:
    """Enumerate the full closed grammar in a fixed, deterministic order."""
    actions: list[AbstractAction] = []
    present_colors = sorted({c for c in state.colors}, key=lambda c: list(Color).index(c))
    for subject in sorted(state.ids):
        for corner in Corner:
            actions.append(AbstractAction(subject, Target("corner", corner=corner)))
        actions.append(AbstractAction(subject, Target("center")))
        for other in sorted(state.ids):
            if other != subject:
                actions.append(AbstractAction(subject, Target("block", block=other)))
        for color in present_colors:
            actions.append(AbstractAction(subject, Target("color_centroid", color=color)))
    return actions


def parse_action(text: str, state: WorldState) -> AbstractAction:
    """The action of `action_grammar` whose text is ``text``: the inverse of
    `AbstractAction.text`."""
    for action in action_grammar(state):
        if action.text(state) == text:
            return action
    raise InvalidActionError(f"not an action of this state's grammar: {text!r}")


# --- Rollout dynamics model --------------------------------------------------


@dataclass
class Rollout:
    """An S-frame predicted state sequence for one abstract action."""

    frames: list[WorldState]
    action: AbstractAction
    start_heuristic: float = 0.0
    end_heuristic: float = 0.0

    @property
    def last(self) -> WorldState:
        return self.frames[-1]


def rollout_dynamics(
    state: WorldState,
    action: AbstractAction,
    faults: FaultConfig = FaultConfig(),
    seed: SeedLike = 0,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> Rollout:
    """Predict S frames for one action.

    The pushed block interpolates toward the resolved target at per-frame speed
    ``v_model`` with noise ``sigma_model``. With probability ``p_teleport`` the
    pushed block jumps the whole remaining distance at a random frame; with
    probability ``p_vanish`` a random block drops to the off-board sentinel for
    the remainder of the rollout. There is no collision handling: the model is
    deliberately an imperfect stand-in for the true dynamics.
    """
    subj = state.index_of(action.subject)
    rng = rng_from(seed)
    target = action.target.resolve(state, action.subject, wcfg)
    S = mcfg.frames_per_rollout

    # Fault draws are fixed up front (stable per seed, independent of frames).
    teleport_frame = -1
    if faults.p_teleport > 0 and rng.random() < faults.p_teleport:
        teleport_frame = int(rng.integers(1, S))
    vanish_frame = -1
    vanish_idx = -1
    if faults.p_vanish > 0 and rng.random() < faults.p_vanish:
        vanish_frame = int(rng.integers(1, S))
        vanish_idx = int(rng.integers(0, state.n_blocks))

    frames = [state]
    pos = state.positions.copy()
    for t in range(1, S):
        if t == teleport_frame:
            pos[subj] = target
        else:
            delta = target - pos[subj]
            d = float(np.linalg.norm(delta))
            if d > mcfg.v_model:
                delta = delta / d * mcfg.v_model
            step = delta
            if mcfg.sigma_model > 0:
                step = step + rng.normal(0.0, mcfg.sigma_model, 2)
            pos[subj] = np.clip(pos[subj] + step, 0.0, wcfg.board)
        if 0 < vanish_frame <= t:
            pos[vanish_idx] = SENTINEL_POS
        frames.append(state.with_positions(pos))
    return Rollout(frames=frames, action=action)


def rollout_final_position(
    state: WorldState,
    action: AbstractAction,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> np.ndarray:
    """Closed form for the pushed block's final position of a noise-free,
    fault-free rollout: advance ``push_reach`` toward the target, capped at
    the target itself. A rollout's (S-1) * v_model of travel is push_reach, so
    this agrees with `rollout_dynamics` (tested)."""
    target = action.target.resolve(state, action.subject, wcfg)
    p = state.pos(action.subject)
    delta = target - p
    d = float(np.linalg.norm(delta))
    if d <= mcfg.push_reach or d < 1e-15:
        return target
    return p + delta / d * mcfg.push_reach


# --- Heuristic ---------------------------------------------------------------


def steps_needed(distance: float, push_reach: float) -> int:
    """Abstract actions needed to cover a distance, one push_reach per action."""
    if distance <= _CEIL_EPS:
        return 0
    return int(math.ceil(distance / push_reach - _CEIL_EPS))


def heuristic(
    state: WorldState,
    goal: TaskGoal,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> float:
    """Negated estimate of abstract actions remaining until goal completion.

    Zero exactly at completion, more negative the farther blocks sit from
    their satisfying regions.
    """
    total = 0
    for i in range(state.n_blocks):
        d = block_region_distance(state, goal, i, wcfg)
        total += steps_needed(d, mcfg.push_reach)
    return -float(total)


# --- Low-level controllers ---------------------------------------------------


def _check_same_ids(a: WorldState, b: WorldState) -> None:
    if a.ids != b.ids:
        raise InvalidGoalError(f"block id sets differ: {a.ids} vs {b.ids}")


def _goal_discrepancies(
    state: WorldState, goal_state: WorldState
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block displacement to the goal frame and its length; blocks at the
    sentinel in the goal frame count as length zero."""
    _check_same_ids(state, goal_state)
    deltas = goal_state.positions - state.positions
    norms = np.linalg.norm(deltas, axis=1)
    sentinel = np.all(goal_state.positions == np.array(SENTINEL_POS), axis=1)
    return deltas, np.where(sentinel, 0.0, norms)


def goal_distance(state: WorldState, goal_state: WorldState) -> float:
    """Largest positional discrepancy between a state and a goal frame
    (sentinel positions in the goal frame ignored)."""
    return float(_goal_discrepancies(state, goal_state)[1].max())


def goal_policy(
    state: WorldState,
    goal_state: WorldState,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> ControlAction:
    """Servo toward a goal frame: push the block with the largest positional
    discrepancy, displacement clipped to u_max. Sentinel positions in the goal
    frame are ignored. Emits a zero-displacement control within ``goal_eps``.
    Exact at any distance; `simulator_submodels` limits its reach."""
    deltas, norms = _goal_discrepancies(state, goal_state)
    idx = int(np.argmax(norms))
    if norms[idx] <= mcfg.goal_eps:
        return ControlAction(target_block=state.ids[idx], displacement=(0.0, 0.0))
    return ControlAction.bounded(state.ids[idx], deltas[idx], norms[idx], wcfg.u_max)


def inverse_dynamics(
    frame_a: WorldState,
    frame_b: WorldState,
    wcfg: WorldConfig = WorldConfig(),
) -> ControlAction:
    """Single control explaining the transition between two frames: the block
    with the largest delta, clipped to u_max."""
    _check_same_ids(frame_a, frame_b)
    deltas = frame_b.positions - frame_a.positions
    norms = np.linalg.norm(deltas, axis=1)
    idx = int(np.argmax(norms))
    return ControlAction.bounded(frame_a.ids[idx], deltas[idx], norms[idx], wcfg.u_max)


# --- Scripted proposal policy ------------------------------------------------


def idealized_outcome(
    state: WorldState,
    action: AbstractAction,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> WorldState:
    """Noise-free, fault-free one-action outcome: the state with the subject at
    its `rollout_final_position`."""
    pos = state.positions.copy()
    pos[state.index_of(action.subject)] = rollout_final_position(state, action, wcfg, mcfg)
    return state.with_positions(pos)


def propose_actions(
    state: WorldState,
    goal: TaskGoal,
    A: int,
    temperature: float,
    seed: SeedLike,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> list[AbstractAction]:
    """Sample A distinct actions from the grammar.

    Each action is scored by the heuristic of its idealized outcome; sampling
    is sequential softmax without replacement at the given temperature, so the
    first k draws of a larger request coincide with a request for k (nested
    proposal sets). Temperature 0 returns the top-A actions by score, grammar
    order breaking ties. If the grammar holds fewer than A actions, all of
    them are returned.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    if not temperature >= 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    grammar = action_grammar(state)
    scores = np.array(
        [heuristic(idealized_outcome(state, a, wcfg, mcfg), goal, wcfg, mcfg) for a in grammar]
    )
    k = min(A, len(grammar))
    if temperature == 0.0:
        order = sorted(range(len(grammar)), key=lambda i: (-scores[i], i))
        return [grammar[i] for i in order[:k]]
    rng = rng_from(seed)
    remaining = list(range(len(grammar)))
    chosen: list[AbstractAction] = []
    for _ in range(k):
        s = scores[remaining]
        w = np.exp((s - s.max()) / temperature)
        w = w / w.sum()
        pick = int(rng.choice(len(remaining), p=w))
        chosen.append(grammar[remaining.pop(pick)])
    return chosen


# --- Submodel bundle ---------------------------------------------------------


@dataclass
class Submodels:
    """The pluggable submodel bundle the planner searches with.

    Callables mirror the four roles; the default factory wires in the
    simulator-backed reference implementations above.

    ``controller(state, goal_frame)`` returns the next ``ControlAction`` toward
    the goal frame, or ``None`` when the goal frame is beyond what the
    controller can reach; the executor then skips that frame without spending
    control budget.
    """

    propose: "callable"
    rollout: "callable"
    value: "callable"
    controller: "callable"


def simulator_submodels(
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    faults: FaultConfig = FaultConfig(),
) -> Submodels:
    """Reference submodels backed by the simulated environment.

    The controller is `goal_policy` limited to goal frames within
    ``mcfg.controller_reach``; farther goal frames get ``None``.
    """

    def _propose(state, goal, A, temperature, seed):
        return propose_actions(state, goal, A, temperature, seed, wcfg, mcfg)

    def _rollout(state, action, seed):
        return rollout_dynamics(state, action, faults, seed, wcfg, mcfg)

    def _value(state, goal):
        return heuristic(state, goal, wcfg, mcfg)

    def _controller(state, goal_state):
        if goal_distance(state, goal_state) > mcfg.controller_reach:
            return None
        return goal_policy(state, goal_state, wcfg, mcfg)

    return Submodels(
        propose=_propose,
        rollout=_rollout,
        value=_value,
        controller=_controller,
    )
