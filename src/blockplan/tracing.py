"""Serialization, state hashing, and JSONL trace persistence.

Numbers serialize as decimals with 9 significant digits: each record rounds
its floats with `round9` once, where the record is built (a plan's frames in
one pass, to the same values), and records are written as sorted-key,
compact JSON. Hashes are computed over that form. Replay checks are exact on
one numpy and BLAS build running one CPU kernel, not across platforms: every
one-vector norm is a BLAS ``ddot`` call, which OpenBLAS 0.3.31's Haswell
kernel computes for a 2-vector as ``fma(dy, dy, dx*dx)``. Those calls are
the ``v.dot(v)`` of a rollout frame, of `step_true`'s control magnitude, of
its collision pass's pair norm and of `sample_initial_state`'s spacing
check; the ``v @ v`` of `harness.replay_plan`; and the batched ``@`` of
`idealized_outcomes`. Another build or kernel may round them differently in
the last bit and so move a recorded number. Trace files are
one JSON object per line with a leading header record that carries the
schema version, the run configuration and its hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any

import numpy as np

from .world import Color, WorldState

SCHEMA_VERSION = 3


def round9(x: float) -> float:
    """Round to 9 significant decimal digits (the wire precision)."""
    return float(f"{float(x):.9g}")


# What json.dumps(obj, sort_keys=True, separators=(",", ":")) builds per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace. Floats are written as
    given, so a record rounds its own floats when it is built."""
    return _encode(obj)


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# --- WorldState --------------------------------------------------------------


def _positions(state: WorldState) -> list[list[float]]:
    return [[round9(x), round9(y)] for x, y in state.positions.tolist()]


def state_to_dict(state: WorldState) -> dict:
    return {
        "ids": list(state.ids),
        "colors": [c.value for c in state.colors],
        "positions": _positions(state),
    }


def state_from_dict(d: dict) -> WorldState:
    return WorldState(
        ids=tuple(int(i) for i in d["ids"]),
        colors=tuple(Color(c) for c in d["colors"]),
        positions=np.array(d["positions"], dtype=float),
    )


@functools.lru_cache(maxsize=256)
def _state_json_head(ids: tuple[int, ...], colors: tuple[Color, ...]) -> str:
    """The canonical JSON of a `state_to_dict` up to its positions, the last
    key in sorted order."""
    head = _encode({"colors": [c.value for c in colors], "ids": list(ids)})
    return head[:-1] + ',"positions":'


def state_digest(state: WorldState) -> str:
    """``digest(state_to_dict(state))``, with the ids and colors encoded once
    per block set."""
    text = f"{_state_json_head(state.ids, state.colors)}{canonical_json(_positions(state))}}}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- Plan --------------------------------------------------------------------


def plan_to_dict(plan) -> dict:
    """A `planner.Plan` with its blocks' ids and colors written once and each
    frame as the bare list of its positions, rounded as `round9` does in one
    pass over the plan's stacked positions."""
    stack = plan.positions()
    flat = list(map(float, map("{:.9g}".format, stack.ravel().tolist())))
    return {
        "actions": [a.text(plan.start) for a in plan.actions],
        "heuristic_trace": [round9(v) for v in plan.heuristic_trace],
        "final_value": round9(plan.final_value),
        "beam_index": plan.beam_index,
        "ids": list(plan.start.ids),
        "colors": [c.value for c in plan.start.colors],
        "frames": np.array(flat).reshape(stack.shape).tolist(),
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
    """Ordinal of the first differing record, or None if streams match.
    Records compare as serialized bytes: a dict ``==`` misses ``-0.0``
    against ``0.0``."""
    for i in range(max(len(expected), len(actual))):
        a = expected[i] if i < len(expected) else None
        b = actual[i] if i < len(actual) else None
        if a is None or b is None or canonical_json(a) != canonical_json(b):
            return i
    return None
