"""Benchmark runner for sklpdm: one workload per call, one JSON result line.

    python3 bench/run.py --workload cv-sklp-rings --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the last stdout line holds the end-to-end metrics
(setup_s, job_s, peak_rss_mb, accuracy); with --trace 1 it holds the
per-layer metrics of one traced job. See bench/README.md.

Every measured step runs in a fresh process, because a process's peak
resident memory is a high-water mark. The parent process only spawns,
times and collects; it never imports sklpdm.

The host is shared and the speed of each of its vCPUs swings by up to
2.7x, for seconds or for minutes. So every process of a run stays on one
CPU, a fixed probe (`host_probe`) is timed between the set-ups, the
library jobs and the CLI commands, and setup_s and job_s report each wall
time scaled by PROBE_REF_S over the mean of the probes on either side of
it: seconds at the host's full speed.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

BLAS_THREADS = "1"
SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
STEP_TIMEOUT_S = 150.0
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux; MB here is 2**20 bytes
PROBE_ROUNDS = 6
PROBE_REF_S = 0.15  # about host_probe's time at the reference VM's full speed (see README)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


# ---------------------------------------------------------------------------
# Child side: set-up, one untraced job, or one traced job.


def host_probe(rounds=PROBE_ROUNDS):
    """Time a fixed piece of work that does not touch sklpdm; returns seconds.

    The work is like the jobs' own: a D x n x n broadcast that streams
    through memory, as in pairwise distances; small dense linear algebra,
    as in an SKLP iteration; and float parsing and formatting, as in the
    CSV layer. Its time tracks how fast the shared host runs at that moment.
    """
    import numpy as np

    A = np.sin(np.arange(60 * 250.0)).reshape(60, 250)
    S = A @ A.T
    text = ",".join(repr(float(x)) for x in A[0])
    start = time.perf_counter()
    for _ in range(rounds):
        ((A[:, :, None] - A[:, None, :]) ** 2).sum(axis=0)
        for _ in range(8):
            np.linalg.eigh(S)
            (A.T @ A).sum()
        for _ in range(4):
            ",".join(repr(v) for v in [float(t) for t in text.split(",")])
    return time.perf_counter() - start


def at_reference_speed(wall, before, after):
    """Scale a wall time by PROBE_REF_S over the mean of the probes on either side of it."""
    return wall * 2 * PROBE_REF_S / (before + after)


def own_peak_rss_mb():
    """Peak resident memory of this process's own address space (VmHWM), in MB.

    Not ru_maxrss: that keeps, across exec, the peak of the process that
    spawned this one, and the parent's probes reach higher than a small job.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / KIB_PER_MB
    raise BenchError("no VmHWM in /proc/self/status")


def pin_to_one_cpu():
    """Run this process and its children on one CPU.

    The vCPUs of the shared host slow down independently of each other, so
    host_probe() tells the speed a job ran at only if both ran on one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_sklpdm():
    import sklpdm

    if not os.path.abspath(sklpdm.__file__).startswith(SRC + os.sep):
        raise BenchError(f"sklpdm imported from {sklpdm.__file__}, not from {SRC}")
    return sklpdm


def run_cli_process(argv):
    """Run one `python -m sklpdm` command; returns (exit code, peak RSS in MB)."""
    proc = subprocess.Popen([sys.executable, "-m", "sklpdm", *argv], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / KIB_PER_MB


class Runner:
    """Executes a job's steps untraced: CLI commands as processes, library calls in-process."""

    def __init__(self):
        self.peak_mb = 0.0

    def call(self, func, *args):
        try:
            return func(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {func.__name__} failed: {exc!r}", file=sys.stderr)
            return None

    def cli(self, argv):
        code, peak = run_cli_process(argv)
        self.peak_mb = max(self.peak_mb, peak)
        return code


class TracedRunner(Runner):
    """Runs CLI commands in-process through sklpdm.cli.run, inside spans."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def cli(self, argv):
        import sklpdm.cli

        with self.tracer.span("cli.startup"):
            # what a fresh `sklpdm` process pays before its command starts
            subprocess.run([sys.executable, "-m", "sklpdm", "--version"], env=child_env(), cwd=ROOT,
                           stdout=subprocess.DEVNULL, timeout=STEP_TIMEOUT_S, check=True)
        with self.tracer.span("cli." + argv[0]):
            try:
                code = sklpdm.cli.run(argv)
            except Exception as exc:
                print(f"sklpdm {argv[0]} raised {exc!r}", file=sys.stderr)
                code = -1
        written = 0
        for flag in ("--out", "--report"):
            if flag in argv:
                path = argv[argv.index(flag) + 1]
                for name in (path, path + ".manifest.json", path + ".model.json"):
                    if os.path.exists(name):
                        written += os.path.getsize(name)
        self.tracer.count("cli.output_mb", written / 2**20)
        return code


def run_job(workload, work, dataset, size, runner):
    """Run one job; returns (wall seconds, scaled seconds or None, outputs, attempted, failed).

    A CLI job is scaled here, step by step: host_probe() runs before its
    first command and after each one. A library job is one step; the
    parent scales it, so that no probe raises its process's peak memory.
    """
    if workload.kind == "library":
        start = time.perf_counter()
        outputs = workload.job(work, dataset, size, runner)
        elapsed = time.perf_counter() - start
        runner.peak_mb = own_peak_rss_mb()
        return elapsed, None, outputs, outputs["attempted"], outputs["failed"]
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    steps = workload.steps(work, out, size)
    failed = 0
    host_probe(rounds=1)  # warm-up
    probes = [host_probe()]
    walls = []
    for argv in steps:
        start = time.perf_counter()
        code = runner.cli(argv)
        walls.append(time.perf_counter() - start)
        probes.append(host_probe())
        if code != 0:
            print(f"sklpdm {' '.join(argv[:2])} failed", file=sys.stderr)
            failed += 1
    return sum(walls), sum(map(at_reference_speed, walls, probes, probes[1:])), out, len(steps), failed


def child_main(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs_dir = os.path.join(args.work, "inputs")
    if args.child == "setup":
        import_sklpdm()
        os.makedirs(inputs_dir)
        workload.make_inputs(inputs_dir, args.seed, args.scale)
        return {}

    import_sklpdm()
    if args.child == "traced":
        return traced_job(workload, inputs_dir, args)
    runner = Runner()
    wall_s, job_s, outputs, attempted, failed = run_job(workload, inputs_dir, args.dataset, args.scale, runner)
    result = {"wall_s": wall_s, "job_s": job_s, "peak_rss_mb": runner.peak_mb, "attempted": attempted,
              "failed": failed}
    result.update(check_outputs(workload, inputs_dir, args, outputs, failed))
    return result


def check_outputs(workload, inputs_dir, args, outputs, failed):
    """Digest of the job's outputs and, with --check, the checked accuracy or the check's error."""
    import workloads

    if failed:
        return {}
    result = {"digest": workload.digest(outputs)}
    if args.check:
        try:
            result["accuracy"] = workload.check(inputs_dir, args.seed, args.scale, outputs)
        except workloads.reference.CheckFailed as exc:
            result["check_error"] = str(exc)
        except Exception as exc:  # malformed output counts as incorrect, not as a crash
            traceback.print_exc()
            result["check_error"] = f"unreadable output: {exc!r}"
    return result


def traced_job(workload, inputs_dir, args):
    """Two traced passes over the same job: spans and counts, then tracemalloc peaks."""
    import sklpdm.cli  # noqa: F401  imported before install(), so its by-name imports get wrapped
    import tracing

    timing = tracing.Tracer()
    timing.install()
    wall_s, _, outputs, attempted, failed = run_job(workload, inputs_dir, args.dataset, args.scale,
                                                    TracedRunner(timing))
    timing.uninstall()
    result = {"wall_s": wall_s, "attempted": attempted, "failed": failed}
    result.update(check_outputs(workload, inputs_dir, args, outputs, failed))
    memory = tracing.Tracer(memory=True)
    memory.install()
    run_job(workload, inputs_dir, args.dataset, args.scale, TracedRunner(memory))
    memory.uninstall()

    timing.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    values = timing.metrics()
    peaks = memory.metrics()
    for name in tracing.PEAK:
        values[name + "_peak_mb"] = peaks[name + "_peak_mb"]
    missing = [m for m in workload.exercised if not values[m] > 0]
    if missing:
        raise BenchError(f"traced run recorded no calls for: {', '.join(missing)}")
    result["per_layer"] = values
    return result


# ---------------------------------------------------------------------------
# Parent side


class Parent:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def spawn(self, kind, work, dataset=0, check=False):
        """Run this script as a child process of the given kind; returns its JSON result."""
        a = self.args
        argv = [sys.executable, os.path.abspath(__file__), "--child", kind, "--workload", a.workload,
                "--seed", str(a.seed), "--work", work, "--scale", a.scale, "--dataset", str(dataset)]
        if check:
            argv.append("--check")
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{kind} process ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{kind} process exited with {proc.returncode}:\n{err.strip()}")
        if err.strip():
            print(err.strip(), file=sys.stderr)
        return json.loads(out.strip().splitlines()[-1])

    def setup(self, number):
        """Time one set-up into a fresh directory, which later steps of the run use."""
        self.inputs = os.path.join(self.work, f"setup{number}")
        start = time.perf_counter()
        self.spawn("setup", self.inputs)
        return time.perf_counter() - start

    def probed(self, wall):
        """Probe again; returns the wall time of the step just run, scaled by the probes around it."""
        self.probes.append(host_probe())
        return at_reference_speed(wall, *self.probes[-2:])

    def measured(self):
        import workloads

        workload = workloads.WORKLOADS[self.args.workload]
        host_probe(rounds=1)  # warm-up
        self.probes = [host_probe()]
        setup_times = [self.probed(self.setup(i)) for i in range(SETUP_RUNS)]
        datasets = workload.sizes[self.args.scale].get("datasets", 1)
        times, peaks, accuracy, digests = [], [], {}, {}
        attempted = failed = 0
        correct = True
        begin = time.perf_counter()
        # Each job is one round of the same operations; jobs cycle through the
        # datasets, every dataset at least once, until the next job would end
        # after --seconds.
        for job in itertools.count():
            r = job % datasets
            first = job < datasets
            res = self.spawn("job", self.inputs, dataset=r, check=first)
            attempted += res["attempted"]
            failed += res["failed"]
            times.append(res["job_s"] if res["job_s"] is not None else self.probed(res["wall_s"]))
            peaks.append(res["peak_rss_mb"])
            if first:
                digests[r] = res.get("digest")
                if "check_error" in res:
                    print(f"dataset {r}: {res['check_error']}", file=sys.stderr)
                    correct = False
                elif "accuracy" in res:
                    accuracy[r] = res["accuracy"]
            elif "digest" in res and res["digest"] != digests[r]:
                print(f"dataset {r}: outputs differ from the checked repetition", file=sys.stderr)
                correct = False
            elapsed = time.perf_counter() - begin
            if job + 1 >= datasets and elapsed * (job + 2) / (job + 1) > self.args.seconds:
                break
        if not accuracy:
            raise BenchError("no repetition produced checked outputs")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "job_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
                "accuracy": {"value": statistics.fmean(accuracy.values()), "unit": "fraction"},
            },
        }

    def traced(self):
        import tracing

        self.setup(0)
        plain = self.spawn("job", self.inputs)
        traced = self.spawn("traced", self.inputs, check=True)
        values = traced["per_layer"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = tracing.metric_names()
        return {
            "correct": "accuracy" in traced and traced.get("digest") == plain.get("digest"),
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: seconds-long sizes for the smoke test")
    parser.add_argument("--child", choices=("setup", "job", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--dataset", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sklpdm", "__init__.py")):
        print(f"no sklpdm sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.child:
            print(json.dumps(child_main(args)))
            return 0
        parent = Parent(args)
        try:
            result = parent.traced() if args.trace else parent.measured()
        finally:
            shutil.rmtree(parent.work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
