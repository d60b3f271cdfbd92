"""Deterministic 2D block-tabletop environment.

Ground-truth state, true transition dynamics under bounded low-level controls,
and task reward / completion predicates for the three long-horizon goals
(move-to-area, group-by-color, make-line).

All operations are pure functions of their inputs plus an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigError, InvalidActionError
from .seeding import SeedLike, rng_from

# Tolerance for the post-transition non-overlap invariant. Clamping at the
# board edge can leave residual penetration below this bound.
EPS_GEOM = 1e-6

# Off-board position marking a block the dynamics model has "lost".
# Never produced by true dynamics.
SENTINEL_POS = (-1.0, -1.0)

# Rejection-sampling attempts per block before `sample_initial_state` gives up.
MAX_TRIES_PER_BLOCK = 2000


class Color(str, Enum):
    RED = "red"
    BLUE = "blue"
    GREEN = "green"
    YELLOW = "yellow"


class Corner(str, Enum):
    TOP_LEFT = "top_left"
    TOP_RIGHT = "top_right"
    BOTTOM_LEFT = "bottom_left"
    BOTTOM_RIGHT = "bottom_right"


class GoalKind(str, Enum):
    MOVE_TO_AREA = "move_to_area"
    GROUP_BY_COLOR = "group_by_color"
    MAKE_LINE = "make_line"


@dataclass(frozen=True)
class WorldConfig:
    """Board geometry and true-dynamics parameters.

    Defaults are sized so the absolute task thresholds (0.1 group distance,
    0.2 x 0.27 corner area, 0.05 line band) are proportionally meaningful on
    the board.
    """

    width: float = 0.6
    height: float = 0.35
    block_radius: float = 0.02
    u_max: float = 0.03
    sigma_env: float = 0.002
    # Task thresholds.
    group_dist: float = 0.1
    area_dx: float = 0.2
    area_dy: float = 0.27
    line_dist: float = 0.05
    # Collision resolution: pairwise disk separation iterated to fixpoint.
    collision_iters: int = 8

    def __post_init__(self):
        for name in ("width", "height", "block_radius", "u_max"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("sigma_env", "group_dist", "area_dx", "area_dy", "line_dist"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.collision_iters < 1:
            raise ConfigError(f"collision_iters must be >= 1, got {self.collision_iters}")

    @property
    def board(self) -> tuple[float, float]:
        return (self.width, self.height)

    def corner_point(self, corner: Corner) -> np.ndarray:
        x = 0.0 if corner in (Corner.TOP_LEFT, Corner.BOTTOM_LEFT) else self.width
        y = self.height if corner in (Corner.TOP_LEFT, Corner.TOP_RIGHT) else 0.0
        return np.array([x, y])

    @property
    def center_point(self) -> np.ndarray:
        return np.array([self.width / 2.0, self.height / 2.0])


@dataclass(frozen=True)
class WorldState:
    """Positions and colors of all blocks on the board.

    Immutable by convention: `positions` is an (n, 2) array that callers must
    not mutate; use `with_positions` to derive a new state.
    """

    ids: tuple[int, ...]
    colors: tuple[Color, ...]
    positions: np.ndarray
    board: tuple[float, float]
    step_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if self.positions.shape != (len(self.ids), 2):
            raise ValueError("positions must be (n_blocks, 2)")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("block ids must be unique")

    @property
    def n_blocks(self) -> int:
        return len(self.ids)

    def index_of(self, block_id: int) -> int:
        try:
            return self.ids.index(block_id)
        except ValueError:
            raise InvalidActionError(f"unknown block id {block_id}") from None

    def pos(self, block_id: int) -> np.ndarray:
        return self.positions[self.index_of(block_id)]

    def color_of(self, block_id: int) -> Color:
        return self.colors[self.index_of(block_id)]

    def with_positions(self, positions: np.ndarray, step_count: int | None = None) -> "WorldState":
        return replace(
            self,
            positions=np.array(positions, dtype=float),
            step_count=self.step_count if step_count is None else step_count,
        )


@dataclass(frozen=True)
class ControlAction:
    """One bounded low-level control: translate `target_block` by `displacement`."""

    target_block: int
    displacement: tuple[float, float]

    @classmethod
    def bounded(cls, block: int, delta: np.ndarray, norm: float, u_max: float) -> "ControlAction":
        """Move ``block`` by ``delta``, scaled to ``u_max`` if its ``norm`` exceeds it."""
        d = delta / norm * u_max if norm > u_max else delta
        return cls(block, (float(d[0]), float(d[1])))

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.displacement, dtype=float)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class TaskGoal:
    """One of the three long-horizon goals, with its canonical text form."""

    kind: GoalKind
    corner: Corner | None = None

    def __post_init__(self):
        if self.kind is GoalKind.MOVE_TO_AREA and self.corner is None:
            raise ValueError("move_to_area goal requires a corner")
        if self.kind is not GoalKind.MOVE_TO_AREA and self.corner is not None:
            raise ValueError(f"{self.kind.value} goal takes no corner")

    @property
    def text(self) -> str:
        if self.kind is GoalKind.MOVE_TO_AREA:
            where = self.corner.value.replace("_", " ")
            return f"move all blocks to the {where} corner"
        if self.kind is GoalKind.GROUP_BY_COLOR:
            return "group the blocks by color"
        return "push the blocks into a line in the center of the board"


def move_to_area(corner: Corner) -> TaskGoal:
    return TaskGoal(GoalKind.MOVE_TO_AREA, corner)


def group_by_color() -> TaskGoal:
    return TaskGoal(GoalKind.GROUP_BY_COLOR)


def make_line() -> TaskGoal:
    return TaskGoal(GoalKind.MAKE_LINE)


def _resolve_collisions(positions: np.ndarray, cfg: WorldConfig) -> np.ndarray:
    """Push overlapping disks apart, then re-clamp, iterated to a fixpoint."""
    pos = positions.copy()
    n = pos.shape[0]
    min_d = 2.0 * cfg.block_radius
    for _ in range(cfg.collision_iters):
        moved = False
        for i in range(n):
            for j in range(i + 1, n):
                delta = pos[j] - pos[i]
                d = float(np.linalg.norm(delta))
                if d >= min_d:
                    continue
                if d < 1e-12:
                    # Coincident centers: separate along a fixed axis.
                    normal = np.array([1.0, 0.0])
                else:
                    normal = delta / d
                shift = 0.5 * (min_d - d)
                pos[i] -= shift * normal
                pos[j] += shift * normal
                moved = True
        pos = np.clip(pos, 0.0, cfg.board)
        if not moved:
            break
    return pos


def step_true(
    state: WorldState,
    u: ControlAction,
    seed: SeedLike,
    cfg: WorldConfig = WorldConfig(),
) -> WorldState:
    """Apply one low-level control under the true dynamics.

    The target block translates by the commanded displacement plus zero-mean
    noise (std ``sigma_env``); overlapping blocks are separated by disk
    collision resolution; positions stay clamped to the board.
    """
    idx = state.index_of(u.target_block)
    if u.magnitude > cfg.u_max + 1e-9:
        raise InvalidActionError(
            f"control magnitude {u.magnitude:.6f} exceeds u_max {cfg.u_max}"
        )
    rng = rng_from(seed)
    noise = rng.normal(0.0, cfg.sigma_env, 2) if cfg.sigma_env > 0 else np.zeros(2)
    pos = state.positions.copy()
    pos[idx] = pos[idx] + u.vec + noise
    pos = np.clip(pos, 0.0, cfg.board)
    pos = _resolve_collisions(pos, cfg)
    return state.with_positions(pos, step_count=state.step_count + 1)


def _region_distance(
    state: WorldState, goal: TaskGoal, block_index: int, p: np.ndarray, cfg: WorldConfig
) -> float:
    """Distance from position ``p`` of one block to its goal-satisfying region
    (0 inside it). For group-by-color the distance is to the disk of the
    farthest same-color peer, a lower bound on the distance to the full
    intersection region."""
    if goal.kind is GoalKind.MOVE_TO_AREA:
        c = cfg.corner_point(goal.corner)
        dx = max(0.0, abs(p[0] - c[0]) - cfg.area_dx)
        dy = max(0.0, abs(p[1] - c[1]) - cfg.area_dy)
        return math.hypot(dx, dy)
    if goal.kind is GoalKind.MAKE_LINE:
        return max(0.0, abs(p[0] - cfg.width / 2.0) - cfg.line_dist)
    peers = [
        j
        for j in range(state.n_blocks)
        if j != block_index and state.colors[j] == state.colors[block_index]
    ]
    if not peers:
        return 0.0
    d = np.linalg.norm(state.positions[peers] - p, axis=1)
    return max(0.0, float(np.max(d)) - cfg.group_dist)


def block_region_distance(
    state: WorldState, goal: TaskGoal, block_index: int, cfg: WorldConfig
) -> float:
    """Distance from one block to its goal-satisfying region (0 if satisfied).

    Off-board sentinel positions are first projected onto the board so the
    distance stays finite.
    """
    p = state.positions[block_index]
    if p[0] < 0.0 or p[1] < 0.0:
        p = np.clip(p, 0.0, cfg.board)
    return _region_distance(state, goal, block_index, p, cfg)


def _satisfied(state: WorldState, goal: TaskGoal, cfg: WorldConfig):
    """Per block, whether its own (unprojected) position lies in its goal region."""
    return (_region_distance(state, goal, i, p, cfg) == 0.0 for i, p in enumerate(state.positions))


def reward(state: WorldState, goal: TaskGoal, cfg: WorldConfig = WorldConfig()) -> float:
    """Percentage of blocks satisfying the goal predicate, in [0, 100]."""
    if state.n_blocks == 0:
        return 100.0
    return 100.0 * sum(_satisfied(state, goal, cfg)) / state.n_blocks


def is_complete(state: WorldState, goal: TaskGoal, cfg: WorldConfig = WorldConfig()) -> bool:
    """True iff every block satisfies the goal predicate (reward 100)."""
    return all(_satisfied(state, goal, cfg))


def sample_initial_state(
    n_blocks: int,
    seed: SeedLike,
    cfg: WorldConfig = WorldConfig(),
) -> WorldState:
    """Place non-overlapping blocks uniformly at random; colors cycle the enum."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    # Crude disk-packing bound before attempting rejection sampling.
    r = cfg.block_radius
    capacity = (cfg.width * cfg.height) / (math.pi * (2 * r) ** 2)
    if n_blocks > capacity:
        raise CapacityError(
            f"{n_blocks} blocks cannot be packed on a {cfg.width}x{cfg.height} board"
        )
    rng = rng_from(seed)
    placed: list[np.ndarray] = []
    for _ in range(n_blocks):
        for attempt in range(MAX_TRIES_PER_BLOCK):
            p = rng.uniform([r, r], [cfg.width - r, cfg.height - r])
            if all(np.linalg.norm(p - q) >= 2.0 * r for q in placed):
                placed.append(p)
                break
        else:
            raise CapacityError(
                f"failed to place block {len(placed)} after {MAX_TRIES_PER_BLOCK} tries"
            )
    colors = tuple(list(Color)[i % len(Color)] for i in range(n_blocks))
    return WorldState(
        ids=tuple(range(n_blocks)),
        colors=colors,
        positions=np.array(placed),
        board=cfg.board,
    )
