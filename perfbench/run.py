"""Benchmark of the strandgp command-line pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-study --seed 1 --seconds 30 --trace 0

Makes the workload's inputs from the seed, runs whole rounds of strandgp
commands for about ``--seconds`` seconds, checks the outputs and prints one
JSON object as the last line of standard output.  With ``--trace 0`` each
command runs in its own subprocess and the end-to-end metrics are reported;
with ``--trace 1`` the same commands run in this process under the tracer of
``tracing.py`` and the per-layer metrics are reported.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported here or in any command's subprocess.
BLAS_THREADS = 1
THREAD_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STRANDGP_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Set-up takes 10-100 ms, and on a shared host a core's speed can switch
# within seconds, so set-up is timed many times across the whole run: at the
# start (at least SETUP_MIN_REPEATS times, SETUP_START_S in all) and again
# after every round (SETUP_SLICE_S).  setup_s is the median of all of them.
SETUP_START_S = 1.0
SETUP_SLICE_S = 0.5
SETUP_MIN_REPEATS = 5
IMPORT_REPEATS = 3


def metric_units(traced):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_subprocess(argv, log_path):
    """Run one command to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_seconds(repeats):
    """Median wall time of interpreter start plus ``import strandgp.cli``."""
    times = []
    for _ in range(repeats):
        code, wall, _ = run_subprocess([sys.executable, "-c", "import strandgp.cli"], os.devnull)
        if code != 0:
            raise SystemExit("strandgp.cli cannot be imported")
        times.append(wall)
    return statistics.median(times)


class Runner:
    def __init__(self, workload, workdir, traced):
        self.workload = workload
        self.workdir = workdir
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.setup_times = []
        self.simulate_times = []
        if traced:
            from tracing import Tracer

            self.tracer = Tracer()

    def setup(self, directory, budget, min_repeats=1):
        """Write the inputs into a fresh ``directory`` until ``budget``
        seconds have been spent in set-up; the last copy is kept.  Each
        set-up's wall time goes to ``setup_times``."""
        times = []
        while len(times) < min_repeats or math.fsum(times) < budget:
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory)
            if self.traced:
                self.tracer.reset()
                with self.tracer.installed():
                    start = time.perf_counter()
                    self.workload.setup(directory)
                    times.append(time.perf_counter() - start)
                self.simulate_times.append(self.tracer.total("simulate.simulate_dataset"))
            else:
                start = time.perf_counter()
                self.workload.setup(directory)
                times.append(time.perf_counter() - start)
        self.setup_times += times

    def round(self):
        """Run the round's commands in order; returns (wall s, per-layer dict)."""
        log = os.path.join(self.workdir, "commands.log")
        seconds = {}
        if self.traced:
            self.tracer.reset()
        for argv in self.workload.commands(self.workdir):
            self.attempted += 1
            if self.traced:
                code, wall = self._in_process(argv, log)
            else:
                code, wall, rss = run_subprocess([sys.executable, "-m", "strandgp.cli", *argv], log)
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
            seconds[argv[0]] = wall
            if code != 0:
                self.failed += 1
                print(f"strandgp {' '.join(argv)} exited {code}; see {log}", file=sys.stderr)
        total = sum(seconds.values())
        if not self.traced:
            return total, None
        samples = os.path.join(self.workdir, "out", "samples.bin")
        if not os.path.exists(samples):
            samples = os.path.join(self.workdir, "samples.bin")
        samples_mb = os.path.getsize(samples) / 2**20 if os.path.exists(samples) else 0.0
        layers = self.tracer.round_metrics(seconds, self.workload.iterations, samples_mb)
        return total, layers

    def _in_process(self, argv, log):
        from strandgp import cli

        buffer = io.StringIO()
        with self.tracer.installed(), contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(buffer):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a failed operation: log it and go on
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        return code, wall


def check(workload, workdir):
    """The workload's checks; an output that cannot be parsed fails them."""
    try:
        return workload.check(workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strandgp", "cli.py")):
        print(f"no strandgp sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path[:0] = [SRC, HERE]
    from tracing import median_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner(workload, workdir, traced=bool(args.trace))
    try:
        runner.setup(workdir, SETUP_START_S, SETUP_MIN_REPEATS)
        # Also warms the bytecode cache before the first timed command.
        cli_import_s = import_seconds(IMPORT_REPEATS if args.trace else 1)
        walls, layers = [], []
        start = time.perf_counter()
        while True:
            wall, layer = runner.round()
            walls.append(wall)
            if layer is not None:
                layers.append(layer)
            runner.setup(workdir + "-setup", SETUP_SLICE_S)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > args.seconds:
                break
        problems = ["a command failed"] if runner.failed else check(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-setup", ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} rounds={len(walls)} "
          f"round_s={[round(w, 3) for w in walls]} setups={len(runner.setup_times)} "
          f"setup_s_median={statistics.median(runner.setup_times):.4f}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = median_metrics(layers)
        values["simulate.simulate_dataset_s"] = statistics.median(runner.simulate_times)
        values["cli.import_s"] = cli_import_s
    else:
        values = {"round_s": statistics.median(walls),
                  "setup_s": statistics.median(runner.setup_times),
                  "peak_rss_mb": runner.peak_rss_mb}
    units = metric_units(args.trace)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
