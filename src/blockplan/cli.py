"""Command-line surface.

Subcommands: ``plan``, ``execute``, ``ablate``, ``oracle``, ``replay``.
Exit codes: 0 success, 1 runtime failure, 2 usage error / invalid config /
capacity error / an allocation the machine cannot make / unreadable path /
a JSON object whose key repeats (in a config file, a ``--set`` value or a
trace line) / a trace of another schema version, whose ``config_hash`` is
not the digest of its stored config or whose run is not one seed, 3 replay
divergence.
Output goes to ``out`` or to the ``BLOCKPLAN_OUT`` environment variable's
directory. ``plan`` and ``execute`` write one trace per seed, whose header
lists that seed alone; ``ablate`` and ``oracle`` refuse more than one seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import RunConfig, apply_overrides, config_from_dict, config_to_dict, load_config
from .errors import BlockplanError, CapacityError, ConfigError
from .harness import brute_force_oracle, scaling_suite
from .planner import PlannerConfig
from .runs import episode_records, plan_records
from .seeding import derive
from .tracing import SCHEMA_VERSION, digest, first_divergence, read_trace, write_trace
from .world import sample_initial_state


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if len(cfg.seeds) > 1 and args.command in ("ablate", "oracle"):
        raise ConfigError(f"{args.command} runs one seed, got seeds {list(cfg.seeds)}")
    return cfg


def _outdir() -> str:
    out = os.environ.get("BLOCKPLAN_OUT", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _header_config(cfg: RunConfig, mode: str, seed: int) -> dict:
    """A trace's run: ``cfg`` with ``seed`` as its whole seed list."""
    return {"run": config_to_dict(replace(cfg, seeds=(seed,))), "mode": mode}


def cmd_plan(args) -> int:
    cfg = _load(args)
    out = _outdir()
    for seed in cfg.seeds:
        records = plan_records(cfg, seed)
        path = os.path.join(out, f"plan_{seed}.jsonl")
        write_trace(path, _header_config(cfg, "plan", seed), records)
        plan = records[-1]["plan"]
        print(
            f"plan: {len(plan['actions'])} actions, final value {plan['final_value']}, "
            f"final-frame reward {records[-2]['value']}"
        )
        for action in plan["actions"]:
            print(f"  {action}")
        print(f"trace written to {path}")
    return 0


def cmd_execute(args) -> int:
    cfg = _load(args)
    out = _outdir()
    rows = ["seed,reward,completed,steps_used,replan_count"]
    for seed in cfg.seeds:
        records = episode_records(cfg, seed)
        end = records[-1]
        rows.append(
            f"{seed},{end['reward']},{int(end['completed'])},"
            f"{end['steps_used']},{end['replan_count']}"
        )
        path = os.path.join(out, f"episode_{seed}.jsonl")
        write_trace(path, _header_config(cfg, "execute", seed), records)
    csv_path = os.path.join(out, "episodes.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"summary written to {csv_path}")
    return 0


def _parse_cells(spec: str, planner: PlannerConfig) -> list[PlannerConfig]:
    """The ``B,A,D[,H]`` cells of ``spec`` as copies of ``planner``, each
    checked here, before any cell runs; H defaults to ``planner.horizon``."""
    cells = []
    for part in spec.split(";"):
        try:
            nums = [int(x) for x in part.split(",")]
        except ValueError:
            nums = []
        if len(nums) == 3:
            nums.append(planner.horizon)
        if len(nums) != 4:
            raise ConfigError(f"cell must be B,A,D[,H]: {part!r}")
        B, A, D, H = nums
        cells.append(replace(planner, beams=B, text_branch=A, video_branch=D, horizon=H))
    return cells


def cmd_ablate(args) -> int:
    cfg = _load(args)
    out = _outdir()
    rows = scaling_suite(cfg, _parse_cells(args.cells, cfg.planner), args.episodes)
    lines = ["label,episodes,naive_success,replay_success,wall_clock_s"]
    lines += [
        f"{r.label},{r.episodes},{r.naive_success:.4f},{r.replay_success:.4f},{r.wall_clock:.3f}"
        for r in rows
    ]
    csv_path = os.path.join(out, "ablation.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for column in ("naive_success", "replay_success"):
        curve = os.path.join(out, f"ablation_{column}.dat")
        with open(curve, "w") as fh:
            for i, row in enumerate(rows):
                fh.write(f"{i} {getattr(row, column):.4f}\n")
    print("\n".join(lines))
    print(f"results written to {csv_path}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args)
    x0 = sample_initial_state(cfg.n_blocks, derive(cfg.seeds[0]), cfg.world)
    value, seq = brute_force_oracle(x0, cfg.task, args.horizon, cfg.world, cfg.model)
    print(f"oracle value over horizon {args.horizon}: {value}")
    for a in seq:
        print(f"  {a.text(x0)}")
    return 0


def cmd_replay(args) -> int:
    try:
        stored = read_trace(args.trace)
        header, run = stored[0], stored[0]["config"]
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
        if header.get("config_hash") != digest(run):
            raise ValueError("config_hash is not the digest of the stored config")
        seeds = run["run"]["seeds"]
        if not isinstance(seeds, list) or len(seeds) != 1:
            raise ValueError(f"a trace holds one seed, got seeds {seeds!r}")
        cfg, mode = config_from_dict(run["run"]), run["mode"]
        (seed,) = cfg.seeds
    except (ConfigError, ValueError, KeyError, TypeError, RecursionError) as e:
        reason = f"{type(e).__name__}: {e}"
        raise ConfigError(f"{args.trace}: not a replayable trace ({reason})") from None
    if mode == "plan":
        regenerated = plan_records(cfg, seed)
    elif mode == "execute":
        regenerated = episode_records(cfg, seed)
    else:
        raise ConfigError(f"unknown trace mode {mode!r}")
    # Compare against stored records, skipping the header (ordinal 0).
    stored_body = [{k: v for k, v in r.items() if k != "ordinal"} for r in stored[1:]]
    div = first_divergence(stored_body, regenerated)
    if div is not None:
        print(f"replay divergence at ordinal {div + 1}", file=sys.stderr)
        return 3
    print(f"replay verified: {len(stored_body)} records match")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, so they end
    on the one ``error:`` line with exit 2; sub-parsers share its class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockplan",
        description="Tree-search planning over model rollouts on a block tabletop",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        p.add_argument("--seed", type=int, help="replace the seed list with one seed")

    p = sub.add_parser("plan", help="generate one plan and write its trace")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("execute", help="run closed-loop episodes over the seed list")
    common(p)
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("ablate", help="sweep planner budgets and write CSV + plot data")
    common(p)
    p.add_argument(
        "--cells",
        default="1,1,1;1,1,4;1,4,4;2,4,4",
        help="semicolon-separated B,A,D[,H] tuples",
    )
    p.add_argument("--episodes", type=int, default=100)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("oracle", help="exhaustive search value on a micro-instance")
    common(p)
    p.add_argument("--horizon", type=int, default=3)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("replay", help="re-simulate a trace and verify it byte-for-byte")
    p.add_argument("trace", help="path to a previously written trace file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, CapacityError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BlockplanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
