"""The three workloads: the argv of each op, its output checks, its quality
figures and the digest of its outputs.

Each workload draws its ops from a panel of ``PANELS[workload]`` blockplan
seeds. The benchmark seed shuffles the panel, and op ``i`` takes the ``i``-th
seed of that order, cycling. The same seed therefore gives the same inputs.
A timed run stops only after a whole number of passes over the panel, so
every run, whatever its seed and however fast the code, measures the same mix
of easy and hard inputs. With fresh inputs per op, ``execute``'s median moved
by about 15% from seed to seed through the inputs alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from statistics import fmean

# About 20 s of ops per pass on a 2-core Xeon VM. Execute's ops are shorter
# and its op times differ 9x between inputs: with 48 inputs, a pass's median
# op moved by 0.1 (interquartile range over median) from run to run.
PANELS = {"plan": 32, "execute": 64, "ablate": 32}
WARMUP_SEED = 64  # outside every panel, so no timed op repeats the warm-up
BLOCKS = ["--set", "n_blocks=6"]

# Criterion 2's cells, all four in one op, on criterion 3's teleporting model.
# With one cell per op the op times form four clusters, and the median jumps
# between clusters from run to run.
ABLATE_CELLS = "1,1,1,8;1,1,4,8;1,4,4,8;2,4,4,8"
BUDGET = 1500  # ExecutionConfig.total_budget at its default


def op_seed(workload: str, seed: int, index: int) -> int:
    panel = PANELS[workload]
    return random.Random(seed).sample(range(panel), panel)[index % panel]


def op_argv(workload: str, blockplan_seed: int) -> list[str]:
    s = str(blockplan_seed)
    if workload == "plan":
        return ["plan", "--seed", s, *BLOCKS]
    if workload == "execute":
        return ["execute", "--seed", s, *BLOCKS, "--set", "planner.horizon=2"]
    if workload == "ablate":
        return [
            "ablate", "--cells", ABLATE_CELLS, "--episodes", "1", "--seed", s,
            *BLOCKS, "--set", "faults.p_teleport=0.2",
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class OpResult:
    """One op's outcome; ``errors`` is empty when every check passed."""

    argv: list[str]
    out_dir: str
    seconds: float
    kernel_s: float  # mean of the reference kernel's times just before and after
    exit: object  # the exit code, or the exception's repr
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def quiet_main(main, argv: list[str]) -> object:
    """``main(argv)`` with stdout and stderr discarded; returns the exit code
    or, if the call raised, the exception's repr."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)
    except (Exception, SystemExit) as e:
        return repr(e)


def check(workload: str, op: OpResult, replay: bool) -> None:
    """Check an op's outputs, filling ``op.errors`` and ``op.quality``.

    ``replay`` also regenerates the op's trace through ``blockplan replay``,
    which costs as much as the op itself.
    """
    from blockplan import cli

    if op.exit != 0:
        op.errors.append(f"exit {op.exit}")
        return
    try:
        if workload == "ablate":
            _check_ablate(op)
            return
        name = "plan" if workload == "plan" else "episode"
        path = os.path.join(op.out_dir, f"{name}_{op.argv[2]}.jsonl")
        if replay:
            rc = quiet_main(cli.main, ["replay", path])
            if rc != 0:
                op.errors.append(f"replay exit {rc}")
        if workload == "plan":
            _check_plan(op, path)
        else:
            _check_execute(op, path)
    except (OSError, ValueError, KeyError, IndexError) as e:
        op.errors.append(f"unreadable output: {e!r}")


def _check_plan(op: OpResult, path: str) -> None:
    from blockplan import parse_action
    from blockplan.tracing import read_trace, state_from_dict

    records = read_trace(path)
    x0 = state_from_dict(records[1]["state"])
    plan = records[-1]["plan"]
    texts = plan["actions"] + [r["action"] for r in records if r["kind"] == "PlanStep"]
    for text in texts:
        if parse_action(text, x0).text(x0) != text:
            op.errors.append(f"action does not round-trip: {text!r}")
    op.quality = {"final_value": plan["final_value"], "reward": records[-2]["value"]}


def _check_execute(op: OpResult, path: str) -> None:
    from blockplan.tracing import read_trace

    records = read_trace(path)
    end = records[-1]
    controls = sum(1 for r in records if r["kind"] == "Control")
    if end["kind"] != "EpisodeEnd":
        op.errors.append("trace does not end with EpisodeEnd")
    if not end["steps_used"] <= BUDGET:
        op.errors.append(f"steps_used {end['steps_used']} exceeds {BUDGET}")
    if end["steps_used"] != controls:
        op.errors.append(f"steps_used {end['steps_used']} != {controls} Control records")
    op.quality = {
        "reward": end["reward"],
        "completed": float(end["completed"]),
        "controls": end["steps_used"],
        "replans": end["replan_count"],
    }


def _check_ablate(op: OpResult) -> None:
    with open(os.path.join(op.out_dir, "ablation.csv")) as fh:
        rows = list(csv.DictReader(fh))
    cells = ABLATE_CELLS.count(";") + 1
    if len(rows) != cells:
        op.errors.append(f"{len(rows)} CSV rows, expected {cells}")
        return
    naive = [float(row["naive_success"]) for row in rows]
    replayed = [float(row["replay_success"]) for row in rows]
    for n, r in zip(naive, replayed):
        if not 0.0 <= r <= n <= 1.0:
            op.errors.append(f"not 0 <= replay {r} <= naive {n} <= 1")
    op.quality = {"naive_success": fmean(naive), "replay_success": fmean(replayed)}


# (name, unit, per-op quality key, workloads): means over the fixed ops.
QUALITY = (
    ("final_value_mean", "steps", "final_value", ("plan",)),
    ("reward_mean", "%", "reward", ("plan", "execute")),
    ("completion_rate", "ratio", "completed", ("execute",)),
    ("controls_mean", "controls", "controls", ("execute",)),
    ("replans_mean", "count", "replans", ("execute",)),
    ("naive_success", "ratio", "naive_success", ("ablate",)),
    ("replay_success", "ratio", "replay_success", ("ablate",)),
)


def quality(workload: str, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
    return {
        name: (fmean(op.quality[key] for op in ops), unit)
        for name, unit, key, workloads in QUALITY
        if workload in workloads
    }


def digest_outputs(out_dirs: list[str]) -> str:
    """sha256 over every op's trace and CSV files, in op order, with the
    nondeterministic ``wall_clock_s`` column left out of CSV rows."""
    h = hashlib.sha256()
    for out_dir in out_dirs:
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if name.endswith(".jsonl"):
                with open(path, "rb") as fh:
                    data = fh.read()
            elif name.endswith(".csv"):
                data = _csv_without_wall_clock(path)
            else:
                continue
            h.update(f"{len(name)}:{name}:{len(data)}:".encode())
            h.update(data)
    return h.hexdigest()


def _csv_without_wall_clock(path: str) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_clock_s") if rows and "wall_clock_s" in rows[0] else None
    if drop is not None:
        rows = [row[:drop] + row[drop + 1 :] for row in rows]
    return "\n".join(",".join(row) for row in rows).encode()
