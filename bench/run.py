"""nbodyred benchmark: one workload, one run.

    python3 bench/run.py --workload few_body --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
./src, nothing is installed.  With --trace 0 the run measures the
end-to-end metrics (set-up time, seconds per pass, peak memory); with
--trace 1 it makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
record (environment, task latency median and tail, per-task times, work
counts, failures), also written to --out when given.  See bench/NOTES.md.
"""

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import (MIN_PASSES, REFERENCE_S, TASK_LIMIT_S, WORKLOADS, command_check,  # noqa: E402
                    reference_s, verdict)

# seconds per pass at the seed commit on 2 CPUs (unloaded); the number of passes is
# fixed from --seconds with these, so every commit does the same work
NOMINAL_PASS_S = {"few_body": 5.0, "hiphop": 7.0, "cli": 14.0}
SETUP_RUNS = 7
PASS_CAP = 1.15
RUN_DEADLINE_S = 160.0
BLAS_THREADS = 1
# the first loops after a command exits run cold; more runs reach a warm one
CLI_REFERENCE_RUNS = 20
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"count": (".calls", "_evals", "_iters"), "bytes": ("bytes_written",),
               "us": (".us_per_eval", ".us_per_call", ".us_per_step", ".us_per_sample", ".us_n3",
                      ".us_n32", ".us_n128")}


class BenchError(Exception):
    """The harness could not run the workload (no result is printed)."""


def layer_unit(name):
    for unit, suffixes in LAYER_UNITS.items():
        if name.endswith(suffixes):
            return unit
    return "s"


class Run:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
        self.started = time.perf_counter()
        self.procs = []
        self.files = []
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # single-threaded BLAS: one client, and no thread spinning on a shared machine
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env["PYTHONHASHSEED"] = "0"
        env.pop("NBODY_LOG", None)
        self.env = env

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv, **kw):
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, **kw)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for fh in self.files:
            fh.close()

    # -- worker protocol ---------------------------------------------------

    def worker(self, trace=False, spans=None):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--work", self.work]
        if trace:
            argv.append("--trace")
        if spans:
            argv += ["--spans", spans]
        err = open(os.path.join(self.work, f"worker-{len(self.procs)}.err"), "w+")
        self.files.append(err)
        start = time.perf_counter()
        proc = self.spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
        line = self.read_line(proc, err)
        if line.strip() != "ready":
            raise BenchError(f"worker did not start: {line!r}")
        return proc, time.perf_counter() - start, err

    def read_line(self, proc, err):
        ready, _, _ = select.select([proc.stdout], [], [], max(self.remaining(), 1.0))
        line = proc.stdout.readline() if ready else ""
        if not line:
            proc.kill()
            proc.wait()
            err.seek(0)
            raise BenchError(f"worker gave no answer: {err.read()[-2000:]}")
        return line

    def budget(self, seconds):
        """Seconds within which passes may start: a slow machine runs fewer."""
        return max(min(PASS_CAP * seconds, self.remaining() - 15.0), 1.0)

    def request(self, proc, err, passes, budget):
        proc.stdin.write(f"go {passes} {budget:.1f}\n")
        proc.stdin.flush()
        out = json.loads(self.read_line(proc, err))
        proc.wait()
        return out

    def setups(self):
        """Fresh-process set-up times at reference speed; the last worker
        stays up."""
        times = []
        before = reference_s()
        for k in range(SETUP_RUNS):
            proc, seconds, err = self.worker()
            after = reference_s()
            times.append(seconds * 2.0 * REFERENCE_S / (before + after))
            before = after
            if k + 1 < SETUP_RUNS:
                proc.communicate("exit\n")
        return times, proc, err

    # -- cli commands in fresh processes ------------------------------------

    def command(self, args):
        """(exit code, seconds, stderr text, peak RSS kB) of one command."""
        err_path = os.path.join(self.work, "command.err")
        with open(err_path, "w+") as err:
            start = time.perf_counter()
            proc = self.spawn([sys.executable, "-m", "nbodyred.cli", *args],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            fd = os.pidfd_open(proc.pid)
            try:
                done, _, _ = select.select([fd], [], [], min(TASK_LIMIT_S, max(self.remaining(), 1.0)))
            finally:
                os.close(fd)
            if not done:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            text = err.read()
        if not done:
            return None, seconds, text, usage.ru_maxrss
        return proc.returncode, seconds, text, usage.ru_maxrss

    def cli_passes(self, passes, budget):
        _, plan = workloads.cli_plan(self.seed, os.path.join(self.work, "full"))
        shared, rows_by_pass, rss = {}, [], 0
        start = time.perf_counter()
        for k in range(passes):
            shutil.rmtree(os.path.join(self.work, "full", "out"), ignore_errors=True)
            ctx = {"digests": shared, "bytes": 0}
            rows = []
            pass_start = time.perf_counter()
            before = reference_s(CLI_REFERENCE_RUNS)
            for cmd in plan:
                code, seconds, err, peak = self.command(cmd.run)
                after = reference_s(CLI_REFERENCE_RUNS)
                speed = 2.0 * REFERENCE_S / (before + after)
                before = after
                rss = max(rss, peak)
                why = (f"no exit within {TASK_LIMIT_S:.0f} s" if code is None else
                       verdict(workloads.Task(cmd.name, None, command_check(cmd)), (code, err), None,
                               seconds, ctx))
                rows.append((cmd.name, seconds, why, speed))
            rows_by_pass.append(rows)
            now = time.perf_counter()
            if k + 1 >= MIN_PASSES and now - start + (now - pass_start) > budget:
                break
        return rows_by_pass, rss

    # -- traced run probes ----------------------------------------------------

    def import_probes(self, reps=3):
        code = ("import time; t = time.perf_counter(); import nbodyred.cli; "
                "print(time.perf_counter() - t)")
        import_s, scipy_s = [], []
        for _ in range(reps):
            out = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                                 capture_output=True, text=True, timeout=60, check=True)
            import_s.append(float(out.stdout))
            out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nbodyred.cli"],
                                 cwd=self.root, env=self.env, capture_output=True, text=True,
                                 timeout=60, check=True)
            scipy_s.append(scipy_import_s(out.stderr))
        return statistics.median(import_s), statistics.median(scipy_s)


def scipy_import_s(text):
    """Seconds of the outermost scipy imports in `python -X importtime` output."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(cumulative)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total * 1e-6


def tail(latencies):
    """(value, percentile, sample count): the highest percentile with at
    least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):  # a bare checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def summarize(passes):
    """(rows, failures, {task: [seconds at reference speed]})."""
    rows = [row for rows in passes for row in rows]
    failures = [f"{name}: {why}" for name, _, why, _ in rows if why]
    by_task = {}
    for name, seconds, _, speed in rows:
        by_task.setdefault(name, []).append(seconds * speed)
    return rows, failures, by_task


def measure(run, seconds):
    planned = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[run.workload]))
    setup, proc, err = run.setups()
    budget = run.budget(seconds)
    if run.workload == "cli":
        proc.communicate("exit\n")
        by_pass, rss_kb = run.cli_passes(planned, budget)
    else:
        out = run.request(proc, err, planned, budget)
        by_pass, rss_kb = out["passes"], out["peak_rss_kb"]
    rows, failures, by_task = summarize(by_pass)
    # each task's time is the median of its times at reference speed; the
    # latency samples are these, one per task and planned pass, so the tail
    # percentile does not depend on how many passes a slow machine ran
    per_task = {name: statistics.median(times) for name, times in by_task.items()}
    latencies = [t for t in per_task.values() for _ in range(planned)]
    tail_s, pct, n = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_task.values()),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = [s for _, s, _, _ in rows]
    detail = {"passes": len(by_pass), "planned_passes": planned, "setup_runs_s": setup,
              "task_p50_s": statistics.median(latencies),
              "task_tail": {"seconds": tail_s, "percentile": pct, "samples": n},
              "fail_ratio": len(failures) / len(rows),
              "task_median_s": per_task, "task_s": by_task,
              "median_pass_s": statistics.median(sum(s for _, s, _, _ in p) for p in by_pass),
              "speed": [round(speed, 4) for _, _, _, speed in rows],
              "raw_task_p50_s": statistics.median(raw), "raw_task_tail_s": tail(raw)[0]}
    return values, UNITS, len(rows), failures, detail


def measure_traced(run, spans):
    proc, _, err = run.worker(trace=True, spans=spans)
    out = run.request(proc, err, 1, run.remaining())
    import_s, scipy_s = run.import_probes()
    values = {k: v for k, v in out["metrics"].items() if v is not None}
    values["cli.import_s"] = import_s
    values["cli.import.scipy_s"] = scipy_s
    rows, failures, by_task = summarize([out["rows"]])
    absent = sorted(set(out["absent"]) | {k for k, v in out["metrics"].items() if v is None})
    detail = {"untraced_wall_s": out["untraced_wall_s"], "traced_wall_s": out["traced_wall_s"],
              "spans": out["spans"], "counts": out["counts"], "absent": absent,
              "fail_ratio": len(failures) / len(rows), "task_s": by_task}
    units = {name: layer_unit(name) for name in values}
    return values, units, len(rows), failures, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this JSON file")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nbodyred", "cli.py")):
        sys.stderr.write("bench: no src/nbodyred here; run from the root of a source checkout\n")
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    run = Run(root, args.workload, args.seed)
    os.makedirs(run.work)
    try:
        if args.trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.csv")
            values, units, attempted, failures, detail = measure_traced(run, spans)
        else:
            values, units, attempted, failures, detail = measure(run, args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root), "metrics": metrics, "failures": failures, **detail}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
