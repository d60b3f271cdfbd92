"""Deterministic 2D block-tabletop environment.

Ground-truth state, true transition dynamics under bounded low-level controls,
and task reward / completion predicates for the three long-horizon goals
(move-to-area, group-by-color, make-line).

All operations are pure functions of their inputs plus an explicit seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigError, InvalidActionError
from .seeding import Rng, SeedLike, rng_from

# Intended bound on residual penetration after a transition. It does not
# hold yet: a block pinned at the board edge has half of each separation
# undone by the re-clamp, and `collision_iters` passes can leave overlaps of
# up to about 4.8e-5: 12 of 16,000 steps of 10 blocks broke the bound (ROADMAP
# defect "`step_true` can leave blocks overlapping by more than `EPS_GEOM`").
EPS_GEOM = 1e-6

# Off-board position marking a block the dynamics model has "lost".
# Never produced by true dynamics.
SENTINEL_POS = (-1.0, -1.0)

# A block this close to its goal region is in it, for the goal predicate and
# the heuristic's step count alike.
GOAL_TOL = 1e-9

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


def require(cfg, rule: str, *names: str) -> None:
    """Reject a config dataclass whose named fields are NaN or infinite floats
    or break ``rule``, ``"> n"``, ``">= n"`` or ``"<= n"`` for an integer n."""
    op, bound = rule.split()
    bound = int(bound)
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if not (value > bound if op == ">" else value >= bound if op == ">=" else value <= bound):
            raise ConfigError(f"{name} must be {rule}, got {value}")


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
    # Collision resolution: at most this many passes of pairwise disk
    # separation; a run that reaches the cap can leave overlaps (`EPS_GEOM`).
    collision_iters: int = 8

    def __post_init__(self):
        require(self, "> 0", "width", "height", "block_radius", "u_max")
        require(self, ">= 0", "sigma_env", "group_dist", "area_dx", "area_dy", "line_dist")
        require(self, ">= 1", "collision_iters")

    @property
    def board(self) -> tuple[float, float]:
        return (self.width, self.height)

    def corner_xy(self, corner: Corner) -> tuple[float, float]:
        x = 0.0 if corner in (Corner.TOP_LEFT, Corner.BOTTOM_LEFT) else self.width
        y = self.height if corner in (Corner.TOP_LEFT, Corner.TOP_RIGHT) else 0.0
        return x, y

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

    def with_positions(self, positions: np.ndarray) -> "WorldState":
        """The same blocks at a copy of ``positions``."""
        return WorldState(self.ids, self.colors, np.array(positions, dtype=float))

    def with_view(self, positions: np.ndarray) -> "WorldState":
        """The same blocks at ``positions`` itself, neither copied nor checked:
        an (n_blocks, 2) float array that nothing writes to afterwards."""
        state = object.__new__(WorldState)
        state.__dict__.update(self.__dict__, positions=positions)
        return state


@dataclass(frozen=True)
class ControlAction:
    """One bounded low-level control: translate `target_block` by `displacement`."""

    target_block: int
    displacement: tuple[float, float]

    @classmethod
    def bounded(
        cls, block: int, dx: float, dy: float, norm: float, u_max: float
    ) -> "ControlAction":
        """Move ``block`` by ``(dx, dy)``, scaled to ``u_max`` if its ``norm``
        exceeds it."""
        if norm > u_max:
            dx, dy = dx / norm * u_max, dy / norm * u_max
        return cls(block, (dx, dy))


@dataclass(frozen=True)
class TaskGoal:
    """One of the three long-horizon goals, with its canonical text form."""

    kind: GoalKind = GoalKind.GROUP_BY_COLOR
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


def _clamp(pos: list[list[float]], cfg: WorldConfig) -> None:
    """Clamp each ``[x, y]`` of ``pos`` to the board in place, byte for byte
    as ``np.clip(pos, 0.0, cfg.board)``: -0.0 becomes 0.0, NaN stays."""
    w, h = cfg.board
    for p in pos:
        x, y = p
        p[0] = 0.0 if x <= 0.0 else (w if x > w else x)
        p[1] = 0.0 if y <= 0.0 else (h if y > h else y)


def _resolve_collisions(pos: list[list[float]], cfg: WorldConfig) -> list[list[float]]:
    """Push overlapping disks apart, then re-clamp, for up to
    ``collision_iters`` passes, stopping early after a pass that moves no
    block. A capped run can end with overlaps left (see `EPS_GEOM`).

    ``pos`` holds one ``[x, y]`` list of Python floats per block and is
    updated in place. Each pass is Gauss-Seidel over every pair i < j in
    order: a pair whose centre distance is at least the block diameter is
    left alone, and any other is moved apart along the line of its centres.
    Then `_clamp` puts every block back on the board.
    """
    min_d = 2.0 * cfg.block_radius
    n = len(pos)
    for _ in range(cfg.collision_iters):
        moved = False
        for i in range(n):
            pi = pos[i]
            for j in range(i + 1, n):
                pj = pos[j]
                dx = pj[0] - pi[0]
                dy = pj[1] - pi[1]
                d = math.sqrt(dx * dx + dy * dy)
                if d >= min_d:
                    continue
                # Coincident centers: separate along a fixed axis.
                nx, ny = (1.0, 0.0) if d < 1e-12 else (dx / d, dy / d)
                shift = 0.5 * (min_d - d)
                pi[0] -= shift * nx
                pi[1] -= shift * ny
                pj[0] += shift * nx
                pj[1] += shift * ny
                moved = True
        _clamp(pos, cfg)
        if not moved:
            break
    return pos


def step_true(
    state: WorldState,
    u: ControlAction,
    rng: Rng,
    cfg: WorldConfig = WorldConfig(),
) -> WorldState:
    """Apply one low-level control under the true dynamics, drawing from
    ``rng``.

    The target block translates by the commanded displacement plus zero-mean
    noise (std ``sigma_env``); positions are clamped to the board, and
    overlapping blocks are separated by `_resolve_collisions`. The step runs
    on Python floats, from one ``tolist`` to the one array it returns.
    """
    idx = state.index_of(u.target_block)
    dx, dy = (float(v) for v in u.displacement)
    magnitude = math.sqrt(dx * dx + dy * dy)
    if not magnitude <= cfg.u_max + 1e-9:  # a NaN magnitude is refused too
        raise InvalidActionError(f"control magnitude {magnitude:.6f} exceeds u_max {cfg.u_max}")
    nx, ny = rng.normal(0.0, cfg.sigma_env, 2).tolist()
    pos = state.positions.tolist()
    p = pos[idx]
    p[0] = p[0] + dx + nx
    p[1] = p[1] + dy + ny
    _clamp(pos, cfg)
    return state.with_view(np.array(_resolve_collisions(pos, cfg), dtype=float))


def is_lost(positions: np.ndarray) -> np.ndarray:
    """Per block of a stack ``(..., n, 2)`` of position sets, whether it is
    lost: off the board. Only a negative coordinate takes a block there (the
    model's `SENTINEL_POS`, or a proposed push toward a lost block)."""
    return (positions < 0.0).any(axis=-1)


def lost_rows(pos: list[list[float]]) -> list[bool]:
    """`is_lost` of one position set given as ``[x, y]`` pairs of Python
    floats, bit for bit (tested)."""
    return [x < 0.0 or y < 0.0 for x, y in pos]


@functools.lru_cache(maxsize=256)
def _peer_rows(colors: tuple[Color, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each block's same-color peers, in index order, as the rows of an
    ``(n, k)`` index array, k the largest peer count, and which of its
    entries are peers: a row with fewer peers ends in other blocks."""
    c = np.array([color.value for color in colors])
    peer = (c[:, None] == c) & ~np.eye(len(colors), dtype=bool)
    rows = np.argsort(~peer, axis=1, kind="stable")[:, : peer.sum(axis=1).max(initial=0)]
    real = np.take_along_axis(peer, rows, axis=1)
    rows.flags.writeable = real.flags.writeable = False
    return rows, real


@functools.lru_cache(maxsize=256)
def _peer_lists(colors: tuple[Color, ...]) -> tuple[tuple[int, ...], ...]:
    """Each block's same-color peers, in index order: the peers of
    `_peer_rows` as tuples of Python ints."""
    rows, real = _peer_rows(colors)
    return tuple(
        tuple(j for j, peer in zip(row, mask) if peer)
        for row, mask in zip(rows.tolist(), real.tolist())
    )


def goal_distance(
    positions: np.ndarray, colors: tuple[Color, ...], goal: TaskGoal, cfg: WorldConfig
) -> np.ndarray:
    """Distance from each block to its goal region (0 inside it), for a stack
    ``(..., n, 2)`` of position sets; returns ``(..., n)``. A lost block is
    measured from the board point nearest to it, while its peers still see it
    where it is. For group-by-color the region is the disk around the farthest
    same-color peer, a lower bound on the distance to the full intersection
    region; only same-color pairs are measured."""
    own = positions
    # Any block lost, as `is_lost` tells it but without the per-block mask;
    # clipping leaves an on-board block where it is.
    if (positions < 0.0).any():
        own = np.clip(positions, 0.0, cfg.board)
    if goal.kind is GoalKind.MOVE_TO_AREA:
        gap = np.abs(own - cfg.corner_xy(goal.corner)) - (cfg.area_dx, cfg.area_dy)
        gap = np.maximum(0.0, gap)
        return np.sqrt(np.add.reduce(gap * gap, -1))
    if goal.kind is GoalKind.MAKE_LINE:
        return np.maximum(0.0, np.abs(own[..., 0] - cfg.width / 2.0) - cfg.line_dist)
    rows, real = _peer_rows(colors)
    diff = positions[..., rows, :] - own[..., :, None, :]
    d = np.sqrt(np.add.reduce(diff * diff, -1))  # np.linalg.norm(diff, axis=-1), bit for bit
    farthest = np.where(real, d, -np.inf).max(axis=-1, initial=-np.inf)
    return np.maximum(0.0, farthest - cfg.group_dist)


def satisfied(
    positions: np.ndarray, colors: tuple[Color, ...], goal: TaskGoal, cfg: WorldConfig
) -> np.ndarray:
    """Per block of a stack ``(..., n, 2)`` of position sets, whether it is
    within `GOAL_TOL` of its goal region: the goal predicate."""
    return goal_distance(positions, colors, goal, cfg) <= GOAL_TOL


def satisfied_rows(
    pos: list[list[float]], colors: tuple[Color, ...], goal: TaskGoal, cfg: WorldConfig
) -> list[bool]:
    """`satisfied` of one position set given as ``[x, y]`` pairs of Python
    floats, bit for bit (tested). It does `goal_distance`'s arithmetic but
    for steps that cannot change the answer: the clamp at 0 before the
    make-line test, and the farthest peer of a group-by-color block, which
    is in its region iff every peer is within ``group_dist`` of it."""
    own = pos
    if any(lost_rows(pos)):
        own = [[x, y] for x, y in pos]
        _clamp(own, cfg)
    if goal.kind is GoalKind.MOVE_TO_AREA:
        cx, cy = cfg.corner_xy(goal.corner)
        out = []
        for x, y in own:
            gx = abs(x - cx) - cfg.area_dx
            gy = abs(y - cy) - cfg.area_dy
            gx = 0.0 if gx <= 0.0 else gx  # np.maximum(0.0, gap): NaN stays
            gy = 0.0 if gy <= 0.0 else gy
            out.append(math.sqrt(gx * gx + gy * gy) <= GOAL_TOL)
        return out
    if goal.kind is GoalKind.MAKE_LINE:
        mid = cfg.width / 2.0
        return [abs(x - mid) - cfg.line_dist <= GOAL_TOL for x, _ in own]
    out = []
    for (ox, oy), peers in zip(own, _peer_lists(colors)):
        ok = True
        for j in peers:
            dx = pos[j][0] - ox
            dy = pos[j][1] - oy
            if not math.sqrt(dx * dx + dy * dy) - cfg.group_dist <= GOAL_TOL:
                ok = False  # a NaN distance too, as numpy's max propagates it
                break
        out.append(ok)
    return out


def reward(state: WorldState, goal: TaskGoal, cfg: WorldConfig = WorldConfig()) -> float:
    """Percentage of blocks satisfying the goal predicate, in [0, 100]."""
    if state.n_blocks == 0:
        return 100.0
    hits = sum(satisfied_rows(state.positions.tolist(), state.colors, goal, cfg))
    return 100.0 * hits / state.n_blocks


def is_complete(state: WorldState, goal: TaskGoal, cfg: WorldConfig = WorldConfig()) -> bool:
    """True iff every block satisfies the goal predicate (reward 100)."""
    return all(satisfied_rows(state.positions.tolist(), state.colors, goal, cfg))


def sample_initial_state(
    n_blocks: int,
    seed: SeedLike,
    cfg: WorldConfig = WorldConfig(),
) -> WorldState:
    """Place non-overlapping blocks uniformly at random; colors cycle the enum."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    r = cfg.block_radius
    if cfg.width - r < r or cfg.height - r < r:
        raise CapacityError(
            f"a block of radius {r} does not fit on a {cfg.width}x{cfg.height} board"
        )
    # Crude disk-packing bound before attempting rejection sampling. A product,
    # not ** 2: a huge radius then gives inf instead of OverflowError. An area
    # that underflows to 0 sets no bound.
    area = math.pi * ((2 * r) * (2 * r))
    if area > 0 and n_blocks > (cfg.width * cfg.height) / area:
        raise CapacityError(
            f"{n_blocks} blocks cannot be packed on a {cfg.width}x{cfg.height} board"
        )
    rng = rng_from(seed)
    placed: list[np.ndarray] = []
    for _ in range(n_blocks):
        for attempt in range(MAX_TRIES_PER_BLOCK):
            p = rng.uniform([r, r], [cfg.width - r, cfg.height - r])
            gaps = ((p - q).tolist() for q in placed)
            if all(math.sqrt(dx * dx + dy * dy) >= 2.0 * r for dx, dy in gaps):
                placed.append(p)
                break
        else:
            raise CapacityError(
                f"failed to place block {len(placed)} after {MAX_TRIES_PER_BLOCK} tries"
            )
    colors = tuple(list(Color)[i % len(Color)] for i in range(n_blocks))
    return WorldState(ids=tuple(range(n_blocks)), colors=colors, positions=np.array(placed))
