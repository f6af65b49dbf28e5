"""One benchmark process: set up a workload, then run passes on request.

Protocol with bench/run.py: after set-up (imports and seeded inputs) the
worker prints "ready" and reads one line from stdin, either "exit" or
"go <passes> <budget seconds>".  It then runs the passes and prints one JSON
line with the task latencies, the verdicts and its peak memory.  With
--trace it runs one untraced pass, one traced pass and the coverage passes,
and prints the per-layer summary instead.

For the cli workload the worker only writes the command inputs (the
commands run in fresh processes started by bench/run.py); with --trace it
calls nbodyred.cli.main in process.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads
from workloads import GateError, Task

TASK_LIMIT_S = 60.0
MIN_PASSES = 2
# reference_s() on an unloaded core of the machine the baseline was made on
REFERENCE_S = 1.4e-3
WORKLOADS = ("few_body", "hiphop", "cli")


def cli_inprocess(work, size, seed):
    """The cli commands as in-process calls of nbodyred.cli.main."""
    import nbodyred.cli

    files, plan = workloads.cli_plan(seed, work, size)
    workloads.write_files(files)
    tasks = []
    for cmd in plan:
        def run(ctx, argv=cmd.run):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = nbodyred.cli.main(list(argv))
            return code, err.getvalue()

        tasks.append(Task(cmd.name, run, command_check(cmd)))
    return tasks


def outdir(cmd):
    return cmd.run[cmd.run.index("--out") + 1]


def command_check(cmd):
    """Gate of a command's (exit code, stderr): exit code, output gates,
    byte identity with the first pass; counts the bytes written in ctx."""
    def check(result, ctx):
        code, err = result
        if code != cmd.expect:
            raise GateError(f"exit code {code}, expected {cmd.expect}: {err.strip()[-300:]}")
        cmd.check(outdir(cmd), code, err, ctx)
        digest = workloads.digest_dir(outdir(cmd))
        first = ctx["digests"].setdefault(cmd.name, digest)
        ctx["bytes"] += sum(size for size, _ in digest.values())
        if digest != first:
            raise GateError("outputs differ from the first pass")
    return check


def build(workload, seed, work, size="full"):
    if workload == "few_body":
        return workloads.few_body_tasks(seed, size)
    if workload == "hiphop":
        return workloads.hiphop_tasks(seed, size)
    return cli_inprocess(os.path.join(work, size), size, seed)


def verdict(task, result, raised, seconds, ctx):
    """None when the task passed, else the reason it failed."""
    if seconds > TASK_LIMIT_S:
        return f"took {seconds:.1f} s, limit {TASK_LIMIT_S:.0f} s"
    if task.expect is not None:
        if not isinstance(raised, task.expect):
            return f"expected {task.expect.__name__}, got {raised!r}"
        result = raised
    elif raised is not None:
        return f"{type(raised).__name__}: {raised}"
    if task.check is not None:
        try:
            task.check(result, ctx)
        except GateError as exc:
            return str(exc)
        except Exception as exc:  # a gate that cannot evaluate is a failed gate
            return f"gate raised {type(exc).__name__}: {exc}"
    return None


def reference_s(runs=5):
    """Fastest of several runs of a fixed loop of small matrix products and
    interpreter arithmetic: the machine's current speed."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            acc += float((a @ a)[0, 0])
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(tasks, work, shared, tracer=None):
    """[(task name, seconds, failure or None, speed)] of one pass over the
    tasks; speed is REFERENCE_S over the reference loop's time around the
    task (below 1 when the machine runs slow)."""
    shutil.rmtree(os.path.join(work, "full", "out"), ignore_errors=True)
    shutil.rmtree(os.path.join(work, "tiny", "out"), ignore_errors=True)
    ctx = {"digests": shared, "bytes": 0}
    rows = []
    before = reference_s()
    for task in tasks:
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            result, raised = task.run(ctx), None
        except Exception as exc:  # judged by verdict(); expected errors land here
            result, raised = None, exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        after = reference_s()
        speed = 2.0 * REFERENCE_S / (before + after)
        before = after
        rows.append((task.name, seconds, verdict(task, result, raised, seconds, ctx), speed))
    return rows, ctx["bytes"]


# ---------------------------------------------------------------------------
# per-layer metrics


def pair_kernel_us(n, reps=5, batch_s=0.05):
    """Median microseconds per potential_and_gradient call on a fixed
    configuration of n bodies in R^3."""
    import numpy as np
    from nbodyred import geometry

    rng = np.random.default_rng(12345)
    sys_ = geometry.MassSystem(rng.uniform(0.5, 1.5, n))
    x = geometry.Configuration(rng.normal(size=(3, n)), sys_)
    geometry.potential_and_gradient(x, sys_)
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            geometry.potential_and_gradient(x, sys_)
        if time.perf_counter() - start >= batch_s:
            break
        calls *= 2
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            geometry.potential_and_gradient(x, sys_)
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def layer_metrics(summary, counts):
    """Per-layer metric values; None where the spans or counts never
    appeared (the metric is then reported as absent)."""
    def stat(name, k):
        return summary[name][k] if name in summary else None

    calls = lambda name: stat(name, 0)
    total = lambda name: stat(name, 1)
    own = lambda name: stat(name, 2)

    def per(seconds, count):
        return 1e6 * seconds / count if seconds is not None and count else None

    solve, rhs = total("dynamics.solve_ivp"), total("dynamics.rhs")
    return {
        "cli.self_s": own("cli.main"),
        "serialize.write_s": total("serialize.write"),
        "serialize.bytes_written": counts.get("serialize.bytes_written"),
        "geometry.interaction_matrix.calls": calls("geometry.interaction_matrix"),
        "geometry.interaction_matrix.us_per_call": per(total("geometry.interaction_matrix"),
                                                       calls("geometry.interaction_matrix")),
        "dynamics.rhs_evals": counts.get("dynamics.rhs_evals"),
        "dynamics.rhs.us_per_eval": per(rhs, calls("dynamics.rhs")),
        "dynamics.solver_overhead_s": solve - rhs if solve is not None and rhs is not None else None,
        "dynamics.integrate_absolute.self_s": own("dynamics.integrate_absolute"),
        "dynamics.integrate_reduced.s": total("dynamics.integrate_reduced"),
        "dynamics.leapfrog.us_per_step": per(total("dynamics.leapfrog"),
                                             counts.get("dynamics.leapfrog.steps")),
        "dynamics.audit.us_per_sample": per(total("dynamics.audit_invariants"),
                                            counts.get("dynamics.audit.samples")),
        "configurations.find_central.s": total("configurations.find_central"),
        "configurations.find_balanced.s": total("configurations.find_balanced"),
        "configurations.bfgs_iters": counts.get("configurations.bfgs_iters"),
        "motions.state.calls": calls("motions.state"),
        "motions.state.us_per_call": per(total("motions.state"), calls("motions.state")),
        "action.invariant_basis.s": total("action.invariant_basis"),
        "action.project_symmetry.calls": calls("action.project_symmetry"),
        "action.action_grad.calls": calls("action.action_grad"),
        "action.action_grad.us_per_call": per(total("action.action_grad"), calls("action.action_grad")),
        "action.minimize.self_s": own("action.minimize"),
        "action.verify_loop.s": total("action.verify_loop"),
    }


def traced_run(workload, seed, work, tasks, spans_path):
    """Untraced pass, traced pass, then the tiny passes of the other two
    workloads (traced) so that every layer reports a measured value."""
    from tracer import Tracer

    shared = {}
    plain, _ = run_pass(tasks, work, shared)
    tracer = Tracer()
    tracer.install()
    try:
        traced, written = run_pass(tasks, work, shared, tracer)
        coverage = []
        for other in WORKLOADS:
            if other != workload:
                rows, extra = run_pass(build(other, seed, work, "tiny"), work, {}, tracer)
                coverage += [(f"{other}.{name}", *rest) for name, *rest in rows]
                written += extra
    finally:
        tracer.uninstall()
    tracer.counts["serialize.bytes_written"] += written
    if spans_path:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer.summary(), tracer.counts)
    for n in (3, 32, 128):
        metrics[f"geometry.pair_kernel.us_n{n}"] = pair_kernel_us(n)
    untraced_s = sum(s * speed for _, s, _, speed in plain)
    traced_s = sum(s * speed for _, s, _, speed in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "rows": plain + traced + coverage,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "metrics": metrics,
        "counts": dict(tracer.counts),
        "absent": tracer.absent,
        "spans": len(tracer.spans),
    }


def measured_run(tasks, work, passes, budget):
    """Up to `passes` passes; no new one starts when it would likely end
    after `budget` seconds."""
    start = time.perf_counter()
    shared = {}
    rows = []
    for k in range(passes):
        pass_start = time.perf_counter()
        rows.append(run_pass(tasks, work, shared)[0])
        now = time.perf_counter()
        if k + 1 >= MIN_PASSES and now - start + (now - pass_start) > budget:
            break
    return {"passes": rows}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this CSV file")
    args = ap.parse_args(argv)

    if args.workload == "cli" and not args.trace:
        files, _ = workloads.cli_plan(args.seed, os.path.join(args.work, "full"))
        workloads.write_files(files)
        tasks = None
    else:
        tasks = build(args.workload, args.seed, args.work)
    print("ready", flush=True)

    request = sys.stdin.readline().split()
    if not request or request[0] != "go":
        return 0
    passes, budget = int(request[1]), float(request[2])
    if args.trace:
        out = traced_run(args.workload, args.seed, args.work, tasks, args.spans)
    else:
        out = measured_run(tasks, args.work, passes, budget)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
