"""Pluggable planning submodels and their simulator-backed reference implementations.

Four roles: an action-proposal policy over a closed text grammar, a rollout
dynamics model (with optional fault injection mimicking teleporting and
vanishing objects), a steps-to-go heuristic, and two low-level controllers
(goal-conditioned policy and inverse dynamics).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InvalidActionError, InvalidGoalError
from .seeding import Rng, SeedLike, rng_from
from .world import (
    GOAL_TOL,
    SENTINEL_POS,
    Color,
    Corner,
    ControlAction,
    TaskGoal,
    WorldConfig,
    WorldState,
    goal_distance,
    lost_rows,
    norms,
    require,
)


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
        require(self, "> 0", "push_reach")
        require(self, ">= 0", "sigma_model", "goal_eps")
        require(self, ">= 2", "frames_per_rollout")

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
    """Per-rollout fault probabilities for the dynamics model, each in [0, 1]."""

    p_teleport: float = 0.0
    p_vanish: float = 0.0

    def __post_init__(self):
        require(self, ">= 0", "p_teleport", "p_vanish")
        require(self, "<= 1", "p_teleport", "p_vanish")


# --- Abstract action grammar -------------------------------------------------
#
# Text form: "push <color><n> to <target-name>", n a block's row, where
# target-name is top_left / top_right / bottom_left / bottom_right / center,
# another block's <color><n>, or "<color>_group" (its other blocks' centroid).


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
            return f"{state.colors[state.index_of(self.block)].value}{self.block}"
        return f"{self.color.value}_group"

    def point(self, state: WorldState, subject: int, cfg: WorldConfig) -> tuple[float, float]:
        """Concrete board point the subject block is pushed toward, as two
        floats. A color centroid sums its peers in index order from ``+0.0``,
        as ``np.add.reduce`` does (never with ``sum``, which compensates float
        sums from Python 3.12), over their count; with no peer it is the
        subject itself. A target naming a block or a color that the state
        lacks raises `InvalidActionError`."""
        if self.kind == "corner":
            return cfg.corner_xy(self.corner)
        if self.kind == "center":
            return cfg.center_point
        if self.kind == "block":
            return tuple(state.positions[state.index_of(self.block)].tolist())
        peers = _grammar(state.colors)[4].get((subject, self.color))
        if peers is None:
            if self.color not in state.colors:
                raise InvalidActionError(f"no {self.color.value} block for a centroid target")
            return tuple(state.positions[state.index_of(subject)].tolist())
        rows, x, y = state.positions.tolist(), 0.0, 0.0
        for j in peers:
            x += rows[j][0]
            y += rows[j][1]
        return x / len(peers), y / len(peers)


@dataclass(frozen=True)
class AbstractAction:
    """One short-horizon text action: push a block toward a named target."""

    subject: int
    target: Target

    def text(self, state: WorldState) -> str:
        subj = f"{state.colors[state.index_of(self.subject)].value}{self.subject}"
        return f"push {subj} to {self.target.name(state)}"


def action_grammar(state: WorldState) -> tuple[AbstractAction, ...]:
    """Enumerate the full closed grammar in a fixed, deterministic order.

    It depends only on colors, which neither the model nor the true
    dynamics changes, so one shared immutable tuple serves each color tuple.
    """
    return _grammar(state.colors)[0]


@functools.lru_cache(maxsize=256)
def _grammar(colors: tuple[Color, ...]) -> tuple:
    """The grammar table of one block set, in one pass in row order. In order:
    the actions; per action, its subject's row of the positions; per action,
    its target's row of the stack [positions; the four corners; the center;
    the color centroids] of `idealized_outcomes`; those centroids' peer rows,
    one ``(m, k)`` array per peer count k, in that order; and the peer rows
    of each ``(subject, color)`` centroid target, as a tuple, which
    `Target.point` reads. A centroid with no peer is the subject itself and
    has no entry. Every part is read-only."""
    n = len(colors)
    actions, subjects, targets, peers_of, by_count = [], [], [], {}, {}
    for i in range(n):
        rows = [(Target("corner", corner=c), n + k) for k, c in enumerate(Corner)]
        rows.append((Target("center"), n + len(Corner)))
        rows += [(Target("block", block=j), j) for j in range(n) if j != i]
        for color in (c for c in Color if c in colors):
            peers = [j for j, c in enumerate(colors) if c == color and j != i]
            if peers:
                peers_of[i, color] = tuple(peers)
                by_count.setdefault(len(peers), []).append((len(actions) + len(rows), peers))
            rows.append((Target("color_centroid", color=color), i))  # with peers, replaced below
        for target, row in rows:
            actions.append(AbstractAction(i, target))
            subjects.append(i)
            targets.append(row)
    groups = [by_count[k] for k in sorted(by_count)]
    for row, (g, _) in enumerate(itertools.chain(*groups), start=n + len(Corner) + 1):
        targets[g] = row
    groups = [np.array([peers for _, peers in group]) for group in groups]
    subjects, targets = np.array(subjects), np.array(targets)
    for a in (subjects, targets, *groups):
        a.flags.writeable = False
    return tuple(actions), subjects, targets, tuple(groups), MappingProxyType(peers_of)


def parse_action(text: str, state: WorldState) -> AbstractAction:
    """The action of `action_grammar` whose text is ``text``: the inverse of
    `AbstractAction.text`."""
    for action in action_grammar(state):
        if action.text(state) == text:
            return action
    raise InvalidActionError(f"not an action of this state's grammar: {text!r}")


# --- Rollout dynamics model --------------------------------------------------


@dataclass(eq=False)
class Rollout:
    """An S-frame predicted state sequence for one abstract action.

    ``positions`` is a read-only ``(S, n, 2)`` array whose row 0 is
    ``start.positions``. The other frames are views of its rows, built on
    first use: a rollout the search only values builds one view, its `last`.
    """

    start: WorldState
    positions: np.ndarray
    action: AbstractAction
    start_heuristic: float = 0.0
    end_heuristic: float = 0.0

    @functools.cached_property
    def frames(self) -> list[WorldState]:
        return [self.start, *map(self.start.with_view, self.positions[1:])]

    @property
    def last(self) -> WorldState:
        return self.start.with_view(self.positions[-1])


def rollout_dynamics(
    state: WorldState,
    action: AbstractAction,
    rng: Rng,
    faults: FaultConfig = FaultConfig(),
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> Rollout:
    """Predict S frames for one action, drawing from ``rng``.

    The pushed block interpolates toward its `Target.point` at per-frame speed
    ``v_model`` with noise ``sigma_model``. With probability ``p_teleport`` the
    pushed block jumps the whole remaining distance at a random frame; with
    probability ``p_vanish`` a random block drops to the off-board sentinel for
    the remainder of the rollout. There is no collision handling: the model is
    deliberately an imperfect stand-in for the true dynamics.

    The fault draws come first, then the noise of every frame but a teleport
    one, in a single flat draw. The subject's track is stepped in floats, each
    frame's distance the square root of two rounded squares, and written as
    two columns into the rollout's one read-only ``(S, n, 2)`` array.
    """
    subj = state.index_of(action.subject)
    tx, ty = action.target.point(state, action.subject, wcfg)
    S = mcfg.frames_per_rollout

    # Fault draws are fixed up front (stable per generator, independent of frames).
    teleport_frame = -1
    if faults.p_teleport > 0 and rng.random() < faults.p_teleport:
        teleport_frame = int(rng.integers(1, S))
    vanish_frame = S  # past the last frame: nothing vanishes
    vanish_idx = -1
    if faults.p_vanish > 0 and rng.random() < faults.p_vanish:
        vanish_frame = int(rng.integers(1, S))
        vanish_idx = int(rng.integers(0, state.n_blocks))
    noise = iter(rng.normal(0.0, mcfg.sigma_model, 2 * (S - 1 - (teleport_frame > 0))).tolist())

    px, py = state.positions[subj].tolist()
    v, (w, h) = mcfg.v_model, wcfg.board
    xs, ys = [], []
    for t in range(1, S):
        if t == teleport_frame:
            px, py = tx, ty
        else:
            dx, dy = tx - px, ty - py
            d = math.sqrt(dx * dx + dy * dy)
            if d > v:
                dx, dy = dx / d * v, dy / d * v
            dx, dy = dx + next(noise), dy + next(noise)
            px, py = px + dx, py + dy
            # min(w, max(0.0, px)), -0.0 and NaN to +0.0 included; likewise py.
            px = px if px > 0.0 else 0.0
            px = px if px < w else w
            py = py if py > 0.0 else 0.0
            py = py if py < h else h
        xs.append(px)
        ys.append(py)
    pos = np.empty((S, *state.positions.shape))
    pos[:] = state.positions
    pos[1:, subj, 0] = xs
    pos[1:, subj, 1] = ys
    if vanish_idx >= 0:
        pos[vanish_frame:, vanish_idx] = SENTINEL_POS
    pos.flags.writeable = False
    return Rollout(start=state, positions=pos, action=action)


# --- Heuristic ---------------------------------------------------------------


def steps_needed(distance: np.ndarray, push_reach: float) -> np.ndarray:
    """Abstract actions needed to cover each `goal_distance`, one push_reach
    per action: none within `GOAL_TOL`, at least one beyond it."""
    steps = np.maximum(np.ceil(distance / push_reach - GOAL_TOL), 1.0)
    return np.where(distance <= GOAL_TOL, 0.0, steps)


def steps_to_go(
    positions: np.ndarray,
    colors: tuple[Color, ...],
    goal: TaskGoal,
    wcfg: WorldConfig,
    mcfg: ModelConfig,
) -> np.ndarray:
    """The value rule: the negated sum of each block's `steps_needed` of its
    `goal_distance`, for each position set of a ``(..., n, 2)`` stack. Terms
    are whole numbers, so each value equals what its set scores alone, the
    ``-0.0`` of a complete set included."""
    d = goal_distance(positions, colors, goal, wcfg)
    return -steps_needed(d, mcfg.push_reach).sum(axis=-1)


def heuristic(
    states: Sequence[WorldState],
    goal: TaskGoal,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> list[float]:
    """Negated estimate of abstract actions remaining until goal completion:
    the `steps_to_go` of a sequence of states of the same blocks, scored as
    one ``(R, n, 2)`` stack, one float per state. Zero exactly when
    `world.is_complete` holds."""
    positions = np.array([s.positions for s in states])
    return steps_to_go(positions, states[0].colors, goal, wcfg, mcfg).tolist()


# --- Low-level controllers ---------------------------------------------------


def _goal_discrepancies(
    state: WorldState, goal_state: WorldState
) -> tuple[list[tuple[float, float]], list[float]]:
    """Per-block displacement to the goal frame and its length, as Python
    floats; a block lost in either frame counts as not displaced."""
    if state.colors != goal_state.colors:
        raise InvalidGoalError(f"block colors differ: {state.colors} vs {goal_state.colors}")
    a = state.positions.tolist()
    b = goal_state.positions.tolist()
    deltas = [
        (0.0, 0.0) if lost_a or lost_b else (bx - ax, by - ay)
        for (ax, ay), (bx, by), lost_a, lost_b in zip(a, b, lost_rows(a), lost_rows(b))
    ]
    # np.linalg.norm(deltas, axis=1), bit for bit, as in `goal_distance`.
    return deltas, [math.sqrt(dx * dx + dy * dy) for dx, dy in deltas]


def _largest(norms: list[float]) -> int:
    """The index ``np.argmax(norms)`` gives for non-negative floats: the first
    NaN if there is one, which makes their sum NaN, else the first of the
    largest. So ``norms[_largest(norms)]`` is ``np.max(norms)``."""
    if math.isnan(sum(norms)):
        return next(i for i, n in enumerate(norms) if math.isnan(n))
    return norms.index(max(norms))


def goal_policy(
    state: WorldState,
    goal_state: WorldState,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
    *,
    reach: float = math.inf,
) -> ControlAction | None:
    """Servo toward a goal frame: push the block with the largest positional
    discrepancy, displacement clipped to u_max, or emit a zero control within
    ``goal_eps``. A block lost in either frame is ignored. A discrepancy past
    ``reach`` gets ``None``: exact at any distance by default, the controller
    of `simulator_submodels` binds ``mcfg.controller_reach``."""
    deltas, norms = _goal_discrepancies(state, goal_state)
    idx = _largest(norms)
    if norms[idx] > reach:
        return None
    if norms[idx] <= mcfg.goal_eps:
        return ControlAction(target_block=idx, displacement=(0.0, 0.0))
    return ControlAction.bounded(idx, *deltas[idx], norms[idx], wcfg.u_max)


def inverse_dynamics(
    frame_a: WorldState,
    frame_b: WorldState,
    wcfg: WorldConfig = WorldConfig(),
) -> ControlAction:
    """Single control explaining the transition between two frames: the block
    with the largest delta, clipped to u_max. A block lost in either frame is
    not displaced, so if no block moves the control is zero."""
    deltas, norms = _goal_discrepancies(frame_a, frame_b)
    idx = _largest(norms)
    return ControlAction.bounded(idx, *deltas[idx], norms[idx], wcfg.u_max)


# --- Scripted proposal policy ------------------------------------------------


def idealized_outcome(
    state: WorldState,
    action: AbstractAction,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> WorldState:
    """Noise-free, fault-free one-action outcome in closed form: the subject
    advances ``push_reach`` toward its target, capped at the target itself. A
    rollout's (S-1) * v_model of travel is push_reach, so this agrees with the
    last frame of `rollout_dynamics` (tested). The reference that tests pin
    `idealized_outcomes` to; it stays here while the benchmark patches it."""
    i = state.index_of(action.subject)
    target = np.array(action.target.point(state, action.subject, wcfg), dtype=float)
    pos = state.positions.copy()
    delta = target - pos[i]
    d = norms(delta)
    pos[i] = target if d <= mcfg.push_reach or d < 1e-15 else pos[i] + delta / d * mcfg.push_reach
    return state.with_positions(pos)


@functools.lru_cache(maxsize=64)
def _fixed_targets(wcfg: WorldConfig) -> np.ndarray:
    """The four corners in `Corner` order, then the center, as the rows of
    one read-only ``(5, 2)`` array: the fixed rows of `idealized_outcomes`."""
    rows = np.array([*(wcfg.corner_xy(c) for c in Corner), wcfg.center_point])
    rows.flags.writeable = False
    return rows


def idealized_outcomes(
    state: WorldState,
    wcfg: WorldConfig = WorldConfig(),
    mcfg: ModelConfig = ModelConfig(),
) -> np.ndarray:
    """The positions of every grammar action's `idealized_outcome`, in grammar
    order, as one ``(G, n, 2)`` array, bit for bit (tested). The subject's
    norm is the square root of the sum of its two rounded squares, as in
    `idealized_outcome`, and a centroid is the same sum of its peers'
    positions over their count."""
    _, subjects, target_rows, peer_groups, _ = _grammar(state.colors)
    p = state.positions
    centroids = (np.add.reduce(p[peers], 1) / peers.shape[1] for peers in peer_groups)
    targets = np.concatenate([p, _fixed_targets(wcfg), *centroids])[target_rows]
    start = p[subjects]
    delta = targets - start
    d = norms(delta)
    reached = (d <= mcfg.push_reach) | (d < 1e-15)
    moved = start + delta / np.where(reached, 1.0, d)[:, None] * mcfg.push_reach
    out = np.empty((len(subjects), *p.shape))
    out[:] = p
    out[np.arange(len(subjects)), subjects] = np.where(reached[:, None], targets, moved)
    return out


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
    scores = steps_to_go(idealized_outcomes(state, wcfg, mcfg), state.colors, goal, wcfg, mcfg)
    k = min(A, len(grammar))
    if temperature == 0.0:
        order = sorted(range(len(grammar)), key=lambda i: (-scores[i], i))
        return [grammar[i] for i in order[:k]]
    rng = rng_from(seed)
    remaining, s = list(range(len(grammar))), scores
    chosen: list[AbstractAction] = []
    # A subnormal temperature overflows a score gap to -inf: its weight is 0.
    with np.errstate(over="ignore"):
        for _ in range(k):
            w = np.exp((s - np.maximum.reduce(s)) / temperature)
            # rng.choice(len(w), p=w / w.sum()) draws this, without its checks
            # of p: each weight is in [0, 1] or NaN, so a finite total is the
            # one check left. The ufuncs are those .max(), .sum() and
            # .cumsum() call.
            cdf = np.add.accumulate(w / np.add.reduce(w))
            if not math.isfinite(cdf[-1]):
                raise ValueError(f"proposal weights must be finite, got {w}")
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), "right"))
            chosen.append(grammar[remaining.pop(pick)])
            s = np.concatenate((s[:pick], s[pick + 1 :]))
    return chosen


# --- Submodel bundle ---------------------------------------------------------


@dataclass
class Submodels:
    """The pluggable submodel bundle the planner searches with.

    Callables mirror the four roles; the default factory wires in the
    simulator-backed reference implementations above.

    ``propose(state, goal, A, temperature, seed)`` returns up to A actions; a
    search step proposes at most min(``text_branch``, grammar size) actions.
    ``rollout(state, action, rng)`` returns one `Rollout`, whose noise and
    faults it draws from the generator ``rng``: the planner hands each
    (beam, step, branch) a stream of one `seeding.rollout_streams` generator.
    Every stream of a plan is that one generator, reset to the rollout's
    counter, so a rollout may draw from ``rng`` only during its call.

    ``value(frames, goal)`` returns one float per frame of a sequence, the
    same whatever else the sequence holds, so the planner values all new
    B x A x D rollouts of a search step in one call. A value is at most 0,
    and 0 means the frame is complete: the planner stops its search once a
    beam ends on one.

    A memo shared by plans (`Planner.plan`) relies on two more rules: propose
    is nested (the first k actions of a request for more equal a request for
    k), and a rollout depends only on its frame, its action and its
    stream. A set built on a larger grid then holds every smaller one.

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
    """Reference submodels backed by the simulated environment: the module's
    role functions with these configs bound. The controller is `goal_policy`
    with ``reach`` bound to ``mcfg.controller_reach``: farther goal frames get
    ``None``."""
    return Submodels(
        propose=functools.partial(propose_actions, wcfg=wcfg, mcfg=mcfg),
        rollout=functools.partial(rollout_dynamics, faults=faults, wcfg=wcfg, mcfg=mcfg),
        value=functools.partial(heuristic, wcfg=wcfg, mcfg=mcfg),
        controller=functools.partial(
            goal_policy, wcfg=wcfg, mcfg=mcfg, reach=mcfg.controller_reach
        ),
    )
