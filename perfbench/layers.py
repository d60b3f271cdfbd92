"""Where the traced run wraps blockplan, and the per-layer metrics it derives.

Each wrapper goes on the attribute the caller resolves at call time: a
function imported with ``from .x import f`` is wrapped in the importing
module, and ``executor.execute_segmentwise`` imports ``goal_policy`` inside
its body, so that one is wrapped in ``blockplan.submodels``. The span name's
first component is the layer that owns the code.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from dataclasses import replace

from .tracer import Patches, Tracer, counted, self_times, timed

LAYERS = (
    "cli",
    "config",
    "runs",
    "planner",
    "submodels",
    "executor",
    "world",
    "harness",
    "tracing",
    "seeding",
)


def modules():
    """Every blockplan module the traced run patches or scans; each layer is
    named after its module."""
    return [importlib.import_module(f"blockplan.{name}") for name in LAYERS]


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary of blockplan; undo with ``patches.restore``."""
    from blockplan import cli, executor, harness, planner, runs, submodels, tracing, world

    counts = tracer.counts

    def span(owner, attr, name, after=None):
        patches.replace(owner, attr, lambda fn: timed(tracer, name, fn, after))

    def count_frames(rollout, args, kwargs):
        counts["submodels.rollout.frames"] += len(rollout.frames)

    def timed_bundle(factory):
        def make(*args, **kwargs):
            sm = factory(*args, **kwargs)
            return replace(
                sm,
                propose=timed(tracer, "submodels.propose", sm.propose),
                rollout=timed(tracer, "submodels.rollout", sm.rollout, after=count_frames),
                value=timed(tracer, "submodels.value", sm.value),
            )

        return make

    def after_plan(plan, args, kwargs):
        self, cfg = args[0], (args[3] if len(args) > 3 else kwargs["cfg"])
        counts["planner.segments"] += len(plan.segments)
        counts["planner.guard.resamples"] += sum(
            1
            for e in self.events
            if e["kind"] == "GuardDiscard" and e["discarded"] == e["of"]
        )
        counts["planner.guard.fallbacks"] += sum(
            1
            for seg in plan.segments
            if seg.end_heuristic - seg.start_heuristic > cfg.guard_threshold
        )

    def after_segmentwise(result, args, kwargs):
        counts["executor.controls"] += result[1]

    def after_write(result, args, kwargs):
        counts["tracing.bytes_written"] += os.path.getsize(args[0])

    span(cli, "main", "cli.main")
    span(cli, "_load", "config.load")
    span(cli, "config_to_dict", "config.config_to_dict")
    span(cli, "plan_records", "runs.plan_records")
    span(cli, "episode_records", "runs.episode_records")
    span(cli, "scaling_suite", "harness.scaling_suite")
    span(cli, "write_trace", "tracing.write_trace", after_write)

    for owner in (runs, harness):
        patches.replace(owner, "simulator_submodels", timed_bundle)
    patches.replace(
        submodels,
        "idealized_outcome",
        lambda fn: counted(tracer, "submodels.propose.actions_scored", fn),
    )
    patches.replace(
        submodels, "heuristic", lambda fn: counted(tracer, "submodels.heuristic.calls", fn)
    )
    span(submodels, "goal_policy", "submodels.controller")
    span(executor, "inverse_dynamics", "submodels.controller")

    span(planner.Planner, "plan", "planner.plan", after_plan)
    patches.replace(
        planner,
        "apply_guard",
        lambda fn: counted(tracer, "planner.guard.checked", fn, truthy="planner.guard.kept"),
    )

    span(runs, "run_episode", "executor.run_episode")
    span(executor, "execute_segmentwise", "executor.execute_segmentwise", after_segmentwise)
    for owner in (executor, harness):
        span(owner, "step_true", "world.step_true")
        span(owner, "is_complete", "world.is_complete")

    span(harness, "plan_accuracy_suite", "harness.plan_accuracy_suite")
    span(harness, "replay_plan", "harness.replay_plan")

    span(tracing, "canonical_json", "tracing.canonical_json")
    span(tracing, "state_digest", "tracing.state_digest")
    span(runs, "plan_to_dict", "tracing.plan_to_dict")

    for owner in (submodels, world):
        span(owner, "rng_from", "seeding.rng_from")


# (metric, unit) in report order; every workload reports all of them.
PER_LAYER = [
    ("submodels.propose.calls", "count"),
    ("submodels.propose.total_s", "s"),
    ("submodels.propose.actions_scored", "count"),
    ("submodels.heuristic.calls", "count"),
    ("submodels.rollout.calls", "count"),
    ("submodels.rollout.total_s", "s"),
    ("submodels.rollout.frames", "count"),
    ("submodels.value.calls", "count"),
    ("submodels.value.total_s", "s"),
    ("submodels.controller.calls", "count"),
    ("submodels.controller.total_s", "s"),
    ("planner.plan.calls", "count"),
    ("planner.plan.self_s", "s"),
    ("planner.guard.checked", "count"),
    ("planner.guard.kept_ratio", "ratio"),
    ("planner.guard.resamples", "count"),
    ("planner.guard.fallbacks", "count"),
    ("planner.rollouts_per_segment", "ratio"),
    ("world.step_true.calls", "count"),
    ("world.step_true.total_s", "s"),
    ("world.is_complete.calls", "count"),
    ("world.is_complete.total_s", "s"),
    ("executor.execute_segmentwise.calls", "count"),
    ("executor.execute_segmentwise.self_s", "s"),
    ("executor.controls", "count"),
    ("harness.replay_plan.calls", "count"),
    ("harness.replay_plan.total_s", "s"),
    ("harness.plan_accuracy_suite.self_s", "s"),
    ("tracing.canonical_json.calls", "count"),
    ("tracing.canonical_json.total_s", "s"),
    ("tracing.state_digest.calls", "count"),
    ("tracing.state_digest.total_s", "s"),
    ("tracing.plan_to_dict.total_s", "s"),
    ("tracing.bytes_written", "B"),
    ("seeding.rng_from.calls", "count"),
    ("seeding.rng_from.total_s", "s"),
    ("cli.self_s", "s"),
    ("config.self_s", "s"),
    ("runs.self_s", "s"),
    *[(f"{layer}.share", "ratio") for layer in LAYERS],
    ("trace.overhead", "ratio"),
]


def per_layer(tracer: Tracer, n_ops: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per op, averaged over the ``n_ops`` traced ops.

    ``overhead`` is the traced time of the ops over their untraced time.
    """
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    self_s = self_times(tracer.spans)
    op_wall = 0.0
    for span_id, parent, _, name, start, end in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_by_name[name] += self_s[span_id]
        if parent is None:
            op_wall += end - start
    layer_self: defaultdict[str, float] = defaultdict(float)
    for name, value in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += value
    counts = tracer.counts
    checked = counts["planner.guard.checked"]
    segments = counts["planner.segments"]

    raw = {
        "submodels.propose.calls": calls["submodels.propose"],
        "submodels.propose.total_s": total["submodels.propose"],
        "submodels.propose.actions_scored": counts["submodels.propose.actions_scored"],
        "submodels.heuristic.calls": counts["submodels.heuristic.calls"],
        "submodels.rollout.calls": calls["submodels.rollout"],
        "submodels.rollout.total_s": total["submodels.rollout"],
        "submodels.rollout.frames": counts["submodels.rollout.frames"],
        "submodels.value.calls": calls["submodels.value"],
        "submodels.value.total_s": total["submodels.value"],
        "submodels.controller.calls": calls["submodels.controller"],
        "submodels.controller.total_s": total["submodels.controller"],
        "planner.plan.calls": calls["planner.plan"],
        "planner.plan.self_s": self_by_name["planner.plan"],
        "planner.guard.checked": checked,
        "planner.guard.resamples": counts["planner.guard.resamples"],
        "planner.guard.fallbacks": counts["planner.guard.fallbacks"],
        "world.step_true.calls": calls["world.step_true"],
        "world.step_true.total_s": total["world.step_true"],
        "world.is_complete.calls": calls["world.is_complete"],
        "world.is_complete.total_s": total["world.is_complete"],
        "executor.execute_segmentwise.calls": calls["executor.execute_segmentwise"],
        "executor.execute_segmentwise.self_s": self_by_name["executor.execute_segmentwise"],
        "executor.controls": counts["executor.controls"],
        "harness.replay_plan.calls": calls["harness.replay_plan"],
        "harness.replay_plan.total_s": total["harness.replay_plan"],
        "harness.plan_accuracy_suite.self_s": self_by_name["harness.plan_accuracy_suite"],
        "tracing.canonical_json.calls": calls["tracing.canonical_json"],
        "tracing.canonical_json.total_s": total["tracing.canonical_json"],
        "tracing.state_digest.calls": calls["tracing.state_digest"],
        "tracing.state_digest.total_s": total["tracing.state_digest"],
        "tracing.plan_to_dict.total_s": total["tracing.plan_to_dict"],
        "tracing.bytes_written": counts["tracing.bytes_written"],
        "seeding.rng_from.calls": calls["seeding.rng_from"],
        "seeding.rng_from.total_s": total["seeding.rng_from"],
        "cli.self_s": layer_self["cli"],
        "config.self_s": layer_self["config"],
        "runs.self_s": layer_self["runs"],
    }
    out = {name: value / n_ops for name, value in raw.items()}
    out["planner.guard.kept_ratio"] = counts["planner.guard.kept"] / checked if checked else 0.0
    out["planner.rollouts_per_segment"] = (
        calls["submodels.rollout"] / segments if segments else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / op_wall if op_wall else 0.0
    out["trace.overhead"] = overhead
    return {name: out[name] for name, _ in PER_LAYER}
