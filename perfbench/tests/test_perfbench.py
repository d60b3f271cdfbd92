"""Tests of the benchmark's own code: tail percentiles, self time, patching,
the output digest and the op loop's stopping rule. Run with
``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import types

import pytest

from perfbench import layers
from perfbench.tracer import (
    Patches,
    Tracer,
    covered,
    find_wrappers,
    nearest_rank,
    self_times,
    tail_percentile,
    timed,
)
from perfbench.run import MIN_OPS, keep_going
from perfbench.workloads import PANELS, digest_outputs, op_seed

# --- tail percentile -----------------------------------------------------------


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (30, 66), (100, 90), (101, 90), (1000, 99)])
def test_tail_percentile_known_values(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", [0, 1, 10])
def test_no_tail_with_ten_or_fewer_samples(n):
    assert tail_percentile(n) is None


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 600):
        values = list(range(n))
        p = tail_percentile(n)
        assert sum(v > nearest_rank(values, p) for v in values) >= 10
        if p < 100:
            assert sum(v > nearest_rank(values, p + 1) for v in values) < 10


# --- self time ---------------------------------------------------------------


def span(span_id, parent, start, end, name="x"):
    return (span_id, parent, 0, name, start, end)


def test_self_time_nested_and_back_to_back_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),  # child, back to back with the next one
        span(2, 0, 3.0, 6.0),
        span(3, 1, 1.5, 2.5),  # grandchild counts against span 1 only
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 1.0, 2: 3.0, 3: 1.0})


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_tracer_links_parents_and_ops():
    tracer = Tracer()
    inner = timed(tracer, "inner", lambda: 1)
    outer = timed(tracer, "outer", lambda: inner() + inner())
    assert outer() == 2 and tracer.spans == []  # outside an op: no spans
    tracer.begin_op(7)
    outer()
    tracer.end_op()
    by_name = {}
    for span_id, parent, op, name, _, _ in tracer.spans:
        assert op == 7
        by_name.setdefault(name, []).append((span_id, parent))
    [(outer_id, outer_parent)] = by_name["outer"]
    assert outer_parent is None
    assert [parent for _, parent in by_name["inner"]] == [outer_id, outer_id]


# --- patching ----------------------------------------------------------------


def make_module():
    mod = types.ModuleType("fake")

    def f(x):
        return x + 1

    class C:
        __module__ = "fake"

        def m(self):
            return "m"

    mod.f, mod.C = f, C
    return mod


def test_patches_restore_originals():
    mod = make_module()
    f, m = mod.f, mod.C.m
    tracer, patches = Tracer(), Patches()
    patches.replace(mod, "f", lambda fn: timed(tracer, "f", fn))
    patches.replace(mod.C, "m", lambda fn: timed(tracer, "m", fn))
    patches.replace(mod, "f", lambda fn: timed(tracer, "f2", fn))  # wrapped twice
    assert sorted(find_wrappers([mod])) == ["C.m", "fake.f"]
    tracer.begin_op(0)
    assert mod.f(1) == 2 and mod.C().m() == "m"
    tracer.end_op()
    assert sorted(s[3] for s in tracer.spans) == ["f", "f2", "m"]
    patches.restore()
    assert vars(mod)["f"] is f and vars(mod.C)["m"] is m
    assert find_wrappers([mod]) == []


def test_patching_a_missing_attribute_fails():
    with pytest.raises(KeyError):
        Patches().replace(make_module(), "missing", lambda fn: fn)


def test_blockplan_install_restores_every_attribute(tmp_path, monkeypatch):
    from blockplan import cli

    mods = layers.modules()
    owners = mods + [m.__dict__[n] for m in mods for n in vars(m) if isinstance(vars(m)[n], type)]
    before = [dict(vars(owner)) for owner in owners]
    tracer, patches = Tracer(), Patches()
    layers.install(tracer, patches)
    assert find_wrappers(mods)
    monkeypatch.setenv("BLOCKPLAN_OUT", str(tmp_path))
    argv = ["execute", "--seed", "0", "--set", "n_blocks=6", "--set", "planner.horizon=1"]
    try:
        tracer.begin_op(0)
        assert cli.main(argv) == 0
        tracer.end_op()
    finally:
        patches.restore()
    assert find_wrappers(mods) == []
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[k] is v for k, v in saved.items()), owner
    # Each boundary was reached through the attribute its caller resolves.
    names = {s[3] for s in tracer.spans}
    for name in (
        "cli.main",
        "config.load",
        "runs.episode_records",
        "executor.run_episode",
        "executor.execute_segmentwise",
        "planner.plan",
        "submodels.propose",
        "submodels.rollout",
        "submodels.value",
        "submodels.controller",
        "world.step_true",
        "world.is_complete",
        "tracing.write_trace",
        "tracing.canonical_json",
        "tracing.state_digest",
        "seeding.rng_from",
    ):
        assert name in names, name
    assert tracer.counts["submodels.heuristic.calls"] > 0
    assert tracer.counts["planner.guard.checked"] > 0


# --- digest ------------------------------------------------------------------

HEADER = "label,episodes,naive_success,replay_success,mean_reward,completion_rate,wall_clock_s\n"


def write_csv(directory, row):
    directory.mkdir()
    (directory / "ablation.csv").write_text(HEADER + row + "\n")
    (directory / "trace.jsonl").write_text('{"kind":"Header"}\n')
    return str(directory)


def test_digest_ignores_wall_clock_only(tmp_path):
    a = write_csv(tmp_path / "a", "B1_A1_D1_H8,8,1.0000,0.8750,0.0000,0.0000,0.412")
    b = write_csv(tmp_path / "b", "B1_A1_D1_H8,8,1.0000,0.8750,0.0000,0.0000,9.999")
    c = write_csv(tmp_path / "c", "B1_A1_D1_H8,8,1.0000,0.7500,0.0000,0.0000,0.412")
    assert digest_outputs([a]) == digest_outputs([b])
    assert digest_outputs([a]) != digest_outputs([c])
    assert digest_outputs([a, b]) != digest_outputs([a])


# --- op loop -----------------------------------------------------------------


def test_timed_loop_stops_only_at_whole_passes():
    assert keep_going(0, 32, 99.0, 15.0)  # at least one op
    assert keep_going(20, 32, 99.0, 15.0)  # past the time, mid-pass
    assert not keep_going(32, 32, 15.0, 15.0)
    assert keep_going(32, 32, 14.9, 15.0)  # a fast pass is followed by another
    assert not keep_going(64, 32, 20.0, 15.0)


def test_untimed_loop_runs_the_fixed_ops():
    assert keep_going(MIN_OPS - 1, 32, 99.0, None)
    assert not keep_going(MIN_OPS, 32, 0.0, None)


@pytest.mark.parametrize("workload", sorted(PANELS))
def test_a_pass_covers_the_panel_once_and_depends_on_the_seed(workload):
    panel = PANELS[workload]
    assert panel % 16 == 0 and panel >= MIN_OPS
    first = [op_seed(workload, 3, i) for i in range(panel)]
    assert sorted(first) == list(range(panel))
    assert [op_seed(workload, 3, panel + i) for i in range(panel)] == first
    assert [op_seed(workload, 4, i) for i in range(panel)] != first
