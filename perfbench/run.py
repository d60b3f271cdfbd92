"""End-to-end benchmark of blockplan's ``plan``, ``execute`` and ``ablate``.

Usage, from the repository root:

    python3 perfbench/run.py --workload plan --seed 0 --seconds 15 --trace 0

Each op is one ``blockplan.cli.main(argv)`` call on inputs made from
``--seed``, run back to back in this process and thread (a closed loop with
one client). Ops run for ``--seconds`` and then on to the end of the current
pass over the workload's input panel; their outputs are checked afterwards,
outside the timed interval. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` also reruns the first
``MIN_OPS`` ops with wrappers on blockplan's layer boundaries and reports the
per-layer metrics. The last line of stdout is one JSON object; a fuller
report, and in a traced run the spans, go to ``.perfbench_out/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The ops whose outputs give the quality figures and the digest, and which
# the traced run reruns: a fixed count, so these do not depend on how fast
# the machine is. The first REPLAYED_OPS are also replayed; the other ops get
# every check but the replay, which costs as much as the op, so that most of
# a run's time goes to measuring.
MIN_OPS = 12
REPLAYED_OPS = 6
# Fresh-interpreter set-up samples per pass over the panel, evenly spaced
# between ops, so that they spread over the whole run and its drift averages
# out.
SETUP_PER_PASS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Import of blockplan plus the parser build, in a fresh interpreter.
SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blockplan.cli
blockplan.cli.build_parser()
print(time.perf_counter() - t)
print(blockplan.cli.__file__)
"""

# A fixed import of standard-library modules, in a fresh interpreter, timed
# right after each set-up sample. The host's speed was measured drifting by
# 20-40% over minutes; set-up over this reference stayed within 2-4% (window
# medians over 10 minutes). REFERENCE_IMPORT_S is the reference's median time
# on the 2-core Xeon VM this benchmark was built on; changing either changes
# the unit of every recorded setup_s.
REFERENCE_CODE = """
import time
t = time.perf_counter()
import argparse, asyncio, csv, decimal, email.parser, http.client, json, unittest, xml.dom.minidom
print(time.perf_counter() - t)
"""
REFERENCE_IMPORT_S = 0.09


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("plan", "execute", "ablate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_blockplan():
    """Import blockplan from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import blockplan.cli

    if Path(blockplan.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"blockplan was imported from {blockplan.cli.__file__}")
    blockplan.cli.build_parser()


def fresh_python(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.split()


def setup_sample() -> tuple[float, float]:
    """Set-up time and the reference import's time, back to back."""
    seconds, path = fresh_python(SETUP_CODE, str(SRC))
    if Path(path).resolve().parent.parent != SRC:
        raise RuntimeError(f"set-up sample imported blockplan from {path}")
    [reference] = fresh_python(REFERENCE_CODE)
    return float(seconds), float(reference)


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": cpu,
    }


def reference_kernel() -> float:
    """Time a fixed mix of small numpy operations, generator seeding and JSON
    encoding, like blockplan's inner loops but using none of its code.

    A shared 2-core Xeon VM was measured drifting in speed by up to half over
    tens of seconds, which drags every op with it. Reported op times are in units of this kernel's time,
    the mean of its runs just before and just after the op, which cancels
    that drift. Changing this function changes the unit of every recorded
    result.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.arange(12.0).reshape(6, 2)
    for i in range(400):
        rng = np.random.default_rng([i, 1])
        n = np.linalg.norm(a - a[i % 6] + rng.normal(0, 0.01, size=2), axis=1)
        json.dumps({"x": [float(f"{v:.9g}") for v in n.tolist()]}, sort_keys=True)
    return time.perf_counter() - start


def run_ops(workload, seed, out_root, seconds=None, tracer=None, setup=None):
    """Run ops 0, 1, ... back to back, with one reference kernel between
    neighbours.

    With ``seconds``, run whole passes over the workload's panel until
    ``seconds`` have passed, so that the inputs measured do not depend on
    how fast the ops are; otherwise run the first ``MIN_OPS`` ops. With
    ``setup``, append ``SETUP_PER_PASS`` set-up samples per pass to it, each
    outside an op's timed interval.
    """
    from blockplan import cli

    from perfbench.workloads import PANELS, OpResult, op_argv, op_seed, quiet_main

    panel = PANELS[workload]
    setup_every = panel // SETUP_PER_PASS

    ops = []
    start = time.perf_counter()
    kernel_s = reference_kernel()
    while keep_going(len(ops), panel, time.perf_counter() - start, seconds):
        i = len(ops)
        argv = op_argv(workload, op_seed(workload, seed, i))
        out_dir = os.path.join(out_root, f"op-{i}")
        os.environ["BLOCKPLAN_OUT"] = out_dir
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        rc = quiet_main(cli.main, argv)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if setup is not None and i % setup_every == setup_every - 1:
            setup.append(setup_sample())
        after_s = reference_kernel()
        ops.append(OpResult(argv, out_dir, elapsed, (kernel_s + after_s) / 2, rc))
        kernel_s = after_s
    return ops


def keep_going(done: int, panel: int, elapsed: float, seconds: float | None) -> bool:
    """Whether ``run_ops`` starts another op: with ``seconds``, until that
    many have passed and ``done`` is a whole number, at least 1, of panel
    passes; without, until ``MIN_OPS`` ops are done."""
    if seconds is None:
        return done < MIN_OPS
    return done == 0 or done % panel != 0 or elapsed < seconds


def traced_pass(workload, seed, work, ops):
    """Rerun the first MIN_OPS ops with wrappers installed; return per-layer
    metrics, the spans, and how many traced ops differ from the untraced ones."""
    from perfbench import layers
    from perfbench.tracer import Patches, Tracer, find_wrappers
    from perfbench.workloads import digest_outputs

    tracer, patches = Tracer(), Patches()
    try:
        layers.install(tracer, patches)
        traced = run_ops(workload, seed, str(work / "traced"), tracer=tracer)
    finally:
        patches.restore()
    left = find_wrappers(layers.modules())
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    differ = sum(
        1
        for a, b in zip(ops, traced)
        if b.exit != 0 or digest_outputs([a.out_dir]) != digest_outputs([b.out_dir])
    )
    overhead = sum(relative(traced)) / sum(relative(ops[:MIN_OPS]))
    return layers.per_layer(tracer, len(traced), overhead), tracer.spans, differ


def relative(ops) -> list[float]:
    """Each op's time in units of the reference kernel's time around it."""
    return [op.seconds / op.kernel_s for op in ops]


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    load_start = os.getloadavg()
    try:
        import_blockplan()
    except ImportError as e:
        print(f"perfbench: cannot import blockplan from {SRC}: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import layers, tracer, workloads

    setup = []
    env = environment()
    env["loadavg_start"] = load_start
    env["busy_at_start"] = load_start[0] >= 0.75 * env["nproc"]

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{name}-{os.getpid()}"
    try:
        if find := tracer.find_wrappers(layers.modules()):
            raise RuntimeError(f"timed run would execute wrappers: {find}")
        warmup(args.workload, work)
        ops = run_ops(args.workload, args.seed, str(work / "timed"), args.seconds, setup=setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i, op in enumerate(ops):
            workloads.check(args.workload, op, replay=i < REPLAYED_OPS)
        fixed = ops[:MIN_OPS]
        digest = workloads.digest_outputs([op.out_dir for op in fixed])
        quality = workloads.quality(args.workload, fixed) if all(op.quality for op in fixed) else {}
        attempted, failed = len(ops), sum(1 for op in ops if op.errors)
        if args.trace:
            per_layer, spans, differ = traced_pass(args.workload, args.seed, work, ops)
            attempted += MIN_OPS
            failed += differ
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    times, rel = sorted(op.seconds for op in ops), sorted(relative(ops))
    tail_p = tracer.tail_percentile(len(ops))
    end_to_end = {
        "setup_s": (REFERENCE_IMPORT_S * statistics.median(s / r for s, r in setup), "s"),
        "op_rel.p50": (statistics.median(rel), "kernel"),
        "op_rel.tail": (tracer.nearest_rank(rel, tail_p), "kernel"),
        "ops_per_kernel": (len(ops) / sum(rel), "1/kernel"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_clock = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tracer.nearest_rank(times, tail_p), "s"),
        "ops_per_s": (len(ops) / sum(times), "1/s"),
        "kernel_s.p50": (statistics.median(op.kernel_s for op in ops), "s"),
        "setup_raw_s.p50": (statistics.median(s for s, _ in setup), "s"),
        "reference_import_s.p50": (statistics.median(r for _, r in setup), "s"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "ops": len(ops),
        "tail_percentile": tail_p,
        "op_seconds": [op.seconds for op in ops],
        "kernel_seconds": [op.kernel_s for op in ops],
        "setup_samples_s": [s for s, _ in setup],
        "reference_import_s": [r for _, r in setup],
        "fail_rate": failed / attempted,
        "errors": {" ".join(op.argv): op.errors for op in ops if op.errors},
        "output_digest": digest,
        "end_to_end": end_to_end,
        "wall_clock": wall_clock,
        "quality": quality,
    }
    if args.trace:
        report["per_layer"] = {n: (per_layer[n], unit) for n, unit in layers.PER_LAYER}
        report["traced_ops_differing"] = differ
    write_report(name, report, spans if args.trace else None)
    print_report(report)

    metrics = report["per_layer"] if args.trace else end_to_end
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def warmup(workload, work):
    """One untimed op on inputs no timed op uses, so lazy set-up is done."""
    from blockplan import cli

    from perfbench.workloads import WARMUP_SEED, op_argv, quiet_main

    os.environ["BLOCKPLAN_OUT"] = str(work / "warmup")
    quiet_main(cli.main, op_argv(workload, WARMUP_SEED))


def write_report(name, report, spans):
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        with open(reports / f"{name}.spans.jsonl", "w") as fh:
            fh.write('["id","parent","op","name","start","end"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def print_report(report):
    env = report["environment"]
    print(
        f"# {report['workload']} seed {report['seed']}: {report['ops']} ops, "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu']}, "
        f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
        + (" (BUSY at start)" if env["busy_at_start"] else "")
    )
    rows = dict(report["end_to_end"])
    rows.update(report["wall_clock"])
    rows["fail_rate"] = (report["fail_rate"], "ratio")
    rows.update(report["quality"])
    rows.update(report.get("per_layer", {}))
    for n, (v, u) in rows.items():
        print(f"{n:40s} {v:14.6g} {u}")
    print(f"op_s.tail is p{report['tail_percentile']} of {report['ops']} ops")
    print(f"output digest {report['output_digest']} (first {MIN_OPS} ops)")


if __name__ == "__main__":
    sys.exit(main())
