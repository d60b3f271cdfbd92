"""Serialization, state hashing, and JSONL trace persistence.

Numbers serialize as decimals with 9 significant digits; hashes are computed
over the serialized form, so replay checks are stable across platforms.
Trace files are one JSON object per line with a leading header record that
carries the schema version, the run configuration and its hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .planner import Plan
from .world import Color, WorldState

SCHEMA_VERSION = 1


def round9(x: float) -> float:
    """Round to 9 significant decimal digits (the wire precision)."""
    return float(f"{float(x):.9g}")


def _canonical(obj: Any) -> Any:
    if isinstance(obj, float):
        return round9(obj)
    if isinstance(obj, (np.floating,)):
        return round9(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: canonical floats, sorted keys, no whitespace."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# --- WorldState --------------------------------------------------------------


def state_to_dict(state: WorldState) -> dict:
    return {
        "ids": list(state.ids),
        "colors": [c.value for c in state.colors],
        "positions": [[round9(x), round9(y)] for x, y in state.positions],
        "board": [round9(state.board[0]), round9(state.board[1])],
        "step_count": state.step_count,
    }


def state_from_dict(d: dict) -> WorldState:
    return WorldState(
        ids=tuple(int(i) for i in d["ids"]),
        colors=tuple(Color(c) for c in d["colors"]),
        positions=np.array(d["positions"], dtype=float),
        board=(float(d["board"][0]), float(d["board"][1])),
        step_count=int(d["step_count"]),
    )


def state_digest(state: WorldState) -> str:
    return digest(state_to_dict(state))


# --- Plan --------------------------------------------------------------------


def plan_to_dict(plan: Plan) -> dict:
    frames = [state_to_dict(f) for f in plan.frames()]
    return {
        "actions": [a.text(plan.start) for a in plan.actions],
        "heuristic_trace": [round9(v) for v in plan.heuristic_trace],
        "final_value": round9(plan.final_value),
        "beam_index": plan.beam_index,
        "frames": frames,
        "frame_hashes": [digest(d) for d in frames],
    }


# --- Trace files -------------------------------------------------------------


def write_trace(path: str, config_dict: dict, records: list[dict]) -> None:
    """Write a header record, then ``records``; every record gets its ordinal.
    The header holds the run configuration exactly, since a replay reruns it;
    the records round to the wire precision."""
    header = {
        "kind": "Header",
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest(config_dict),
        "config": config_dict,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps({**header, "ordinal": 0}, sort_keys=True, separators=(",", ":")) + "\n")
        for ordinal, rec in enumerate(records, 1):
            fh.write(canonical_json({**rec, "ordinal": ordinal}) + "\n")


def read_trace(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not all(isinstance(r, dict) for r in records):
        raise ValueError(f"{path}: every record must be a JSON object")
    if not records or records[0].get("kind") != "Header":
        raise ValueError(f"{path}: not a trace file (missing header record)")
    ordinals = [r.get("ordinal") for r in records]
    if ordinals != list(range(len(records))):
        raise ValueError(f"{path}: ordinals are not strictly increasing from 0")
    return records


def first_divergence(expected: list[dict], actual: list[dict]) -> int | None:
    """Ordinal of the first differing record, or None if streams match."""
    for i in range(max(len(expected), len(actual))):
        a = expected[i] if i < len(expected) else None
        b = actual[i] if i < len(actual) else None
        if a is None or b is None or canonical_json(a) != canonical_json(b):
            return i
    return None
