"""Run configuration: a single JSON document validated into the library's
config dataclasses. Unknown keys are rejected; CLI flags override fields by
dotted path (e.g. ``planner.beams=4``)."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .executor import ExecutionConfig
from .planner import PlannerConfig
from .submodels import FaultConfig, ModelConfig
from .tracing import unique_keys
from .world import TaskGoal, WorldConfig, require


@dataclass(frozen=True)
class RunConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    task: TaskGoal = field(default_factory=TaskGoal)
    n_blocks: int = 4
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        require(self, ">= 1", "n_blocks")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        # The heuristic measures distances with squared coordinates and counts up
        # to sqrt(w * w + h * h) / push_reach steps per block, inf if a square is.
        w, h = self.world.width, self.world.height
        try:
            steps = self.n_blocks * math.sqrt(w * w + h * h) / self.model.push_reach
        except OverflowError:  # n_blocks beyond any float
            steps = math.inf
        if not math.isfinite(steps):
            raise ConfigError(
                f"a {w}x{h} board with {self.n_blocks} blocks and push_reach "
                f"{self.model.push_reach} is too large for the heuristic to measure"
            )
        # A replayed action gets ceil(push_reach / u_max) controls.
        if not math.isfinite(self.model.push_reach / self.world.u_max):
            raise ConfigError(
                f"u_max {self.world.u_max} is too small for push_reach {self.model.push_reach}"
            )


@functools.cache
def _field_types(cls) -> dict:
    """Resolved field types of a config class (read-only; shared by callers)."""
    return get_type_hints(cls)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(path: str, hint, value):
    """``value`` checked against the type ``hint`` of the field at ``path``.

    Enum values are converted, an int for a float field becomes a float, a
    list of ints for a tuple field becomes a tuple, a section (a
    dataclass-typed field) is built from its object, and an int field keeps
    an int that is not a bool; anything else is rejected with `ConfigError`.
    """
    options = get_args(hint)
    if type(None) in options:  # an optional field
        if value is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    if get_origin(hint) is tuple:  # tuple[int, ...]
        if isinstance(value, (list, tuple)) and all(_is_int(v) for v in value):
            return tuple(value)
        raise ConfigError(f"{path}: expected a list of ints, got {value!r}")
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"{path}: {value!r} is not a valid {hint.__name__}") from None
    if hint is float and (_is_int(value) or isinstance(value, float)):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
    if not _is_int(value):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return value


def _build(cls, data: dict, section: str = ""):
    """``cls`` built from a JSON object, each value checked against the type
    of its field; ``section`` is the dotted path of ``data`` ("" at top level)."""
    where = f"section '{section}'" if section else "the configuration"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    hints = _field_types(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    prefix = f"{section}." if section else ""
    kwargs = {key: _typed(prefix + key, hints[key], value) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except (ValueError, ConfigError) as e:
        raise ConfigError(f"in section '{section}': {e}" if section else str(e)) from None


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, an over-long int, too deep a nesting
        raise ConfigError(f"{path}: {type(e).__name__}: {e}") from None
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """The configuration as a JSON-ready dict: its enums are ``str`` enums and
    JSON writes ``seeds`` as a list."""
    return dataclasses.asdict(cfg)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.field=value`` (or ``field=value``) assignments."""
    data = config_to_dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like path=value: {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError):
            value = raw  # bare strings allowed; the type check rejects the rest
        node = data
        parts = path.split(".")
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise ConfigError(f"unknown override path: {path!r}")
            node = node[p]
        if parts[-1] not in node:
            raise ConfigError(f"unknown override path: {path!r}")
        node[parts[-1]] = value
    return config_from_dict(data)
