"""Serialization, state hashing, and JSONL trace persistence.

Each record rounds its numbers once, where it is built: a length (a
position, a plan frame, a control's displacement) becomes with
`wire_positions` the nearest integer count of 1e-9 board units, exact on the
wire at any board size, and every other float becomes with `round9` a
decimal of 9 significant digits. Records are written as sorted-key, compact
JSON, and hashes are computed over that form. Every distance is the square
root of the sum of two rounded squares, which round alike on every IEEE
host, so replay rests on no BLAS build or CPU kernel; it still rests on
numpy's SIMD ``np.exp`` (the proposal softmax) and its ``SeedSequence``,
``PCG64`` and ``Philox`` algorithms. Trace files are one JSON object per
line with a leading header record: the schema version, the run
configuration and its hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any

import numpy as np

from .errors import ConfigError
from .world import Color, WorldState

SCHEMA_VERSION = 9


def round9(x: float) -> float:
    """Round to 9 significant decimal digits (the wire precision of a float
    that is not a length)."""
    return float(f"{float(x):.9g}")


# What json.dumps(obj, sort_keys=True, separators=(",", ":")) builds per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace. Floats are written as
    given, so a record rounds its own floats when it is built."""
    return _encode(obj)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(obj: Any) -> str:
    return _hash(canonical_json(obj))


_round = np.frompyfunc(round, 1, 1)  # to a Python int, elementwise


def wire_positions(x) -> list:
    """Lengths as nested lists of Python ints, each the nearest count of 1e-9
    board units (half to even). Python ints are unbounded, so a board too
    wide for int64 still writes exactly; a NaN or infinity raises
    `ValueError` or `OverflowError`."""
    return _round(np.multiply(x, 1e9)).tolist()


# --- WorldState --------------------------------------------------------------


def state_to_dict(state: WorldState) -> dict:
    return {
        "ids": list(state.ids),
        "colors": [c.value for c in state.colors],
        "positions": wire_positions(state.positions),
    }


def state_from_dict(d: dict) -> WorldState:
    return WorldState(
        ids=tuple(int(i) for i in d["ids"]),
        colors=tuple(Color(c) for c in d["colors"]),
        positions=np.array(d["positions"], dtype=float) / 1e9,
    )


_SLOT = "\0"  # a positions value whose JSON no ids or colors JSON contains


@functools.lru_cache(maxsize=256)
def _state_json_ends(ids: tuple[int, ...], colors: tuple[Color, ...]) -> tuple[str, str]:
    """The canonical JSON of a `state_to_dict` of these blocks before and
    after its positions, cut from the dict itself at a stand-in value."""
    fields = state_to_dict(WorldState(ids, colors, np.zeros((len(ids), 2))))
    head, tail = _encode({**fields, "positions": _SLOT}).split(_encode(_SLOT))
    return head, tail


def state_digest(state: WorldState) -> str:
    """``digest(state_to_dict(state))``. A state's ids and colors never
    change along a run, so their part of the JSON is encoded once per block
    set and only the positions are encoded per call."""
    head, tail = _state_json_ends(state.ids, state.colors)
    return _hash(head + canonical_json(wire_positions(state.positions)) + tail)


# --- Plan --------------------------------------------------------------------


def plan_to_dict(plan) -> dict:
    """A `planner.Plan` with its blocks' ids and colors written once and each
    frame as the bare list of its positions, in one pass over the plan's
    stacked positions."""
    return {
        "actions": [a.text(plan.start) for a in plan.actions],
        "heuristic_trace": [round9(v) for v in plan.heuristic_trace],
        "final_value": round9(plan.final_value),
        "beam_index": plan.beam_index,
        "ids": list(plan.start.ids),
        "colors": [c.value for c in plan.start.colors],
        "frames": wire_positions(plan.positions()),
    }


# --- Trace files -------------------------------------------------------------


def write_trace(path: str, config_dict: dict, records: list[dict]) -> None:
    """Write a header record, then ``records``; every record gets its ordinal.
    The header holds the run configuration exactly, since a replay reruns it,
    and ``config_hash`` is the `digest` of that configuration as written."""
    header = {
        "kind": "Header",
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest(config_dict),
        "config": config_dict,
    }
    with open(path, "w") as fh:
        for ordinal, rec in enumerate([header, *records]):
            fh.write(canonical_json({**rec, "ordinal": ordinal}) + "\n")


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The ``object_pairs_hook`` of every JSON document read from outside (a
    config file, a ``--set`` value, a trace line): the object as a dict,
    refusing a key that repeats, whose last value ``json`` would keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"repeated JSON key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def read_trace(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line, object_pairs_hook=unique_keys))
    if not all(isinstance(r, dict) for r in records):
        raise ValueError(f"{path}: every record must be a JSON object")
    if not records or records[0].get("kind") != "Header":
        raise ValueError(f"{path}: not a trace file (missing header record)")
    ordinals = [r.get("ordinal") for r in records]
    if ordinals != list(range(len(records))):
        raise ValueError(f"{path}: ordinals are not strictly increasing from 0")
    return records


def first_divergence(expected: list[dict], actual: list[dict]) -> int | None:
    """Ordinal of the first differing record, or None if streams match.
    Records compare as serialized bytes: a dict ``==`` misses ``-0.0``
    against ``0.0``."""
    for i in range(max(len(expected), len(actual))):
        a = expected[i] if i < len(expected) else None
        b = actual[i] if i < len(actual) else None
        if a is None or b is None or canonical_json(a) != canonical_json(b):
            return i
    return None
