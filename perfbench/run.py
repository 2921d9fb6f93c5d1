"""Benchmark of the meridian toolkit: one workload per run.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and every file the run writes goes under `.perfbench_out/`.
Inputs come from `--seed` only.  The run repeats closed-loop passes of the
workload for about `--seconds` seconds, checks every report the commands
write, and prints information lines followed by one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.  `attempted` and `failed`
count commands; a command fails when it raises, exits with code 2, or
writes a report that is missing, malformed or wrong.

With `--trace 0` the metrics are the end-to-end ones; the pass time, the
rate of work and the set-up time are scaled to the speed of a reference
host (see `HostSpeed`), and printed as measured as information.  With `--trace 1`
the first half of the window runs untraced and the second half runs the
same passes with every layer's public functions wrapped (see
`tracing.py`), each half completing at least one pass; the metrics are
the per-layer ones.  The spans are written
to `.perfbench_out/<workload>/spans.jsonl`.
"""

import os
import sys

# Thread settings are fixed before NumPy is first imported: one BLAS thread
# and at most one CLI worker per usable core, so compute threads never
# exceed the cores (oversubscribed BLAS threads made roundtrip 40% slower).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import bisect
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import traceback
from time import perf_counter, thread_time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 8       # set-up samples spread over a --trace 0 window
SETUP_MIN = 5           # taken after the window if it fitted fewer
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import meridian.cli as c; c.load_config(sys.argv[2])")
MAX_WORKERS = 2
REF_SIZE = 65536        # float64 elements of the reference block's arrays
# Mean thread CPU time of one reference block (HostSpeed.block) on the
# reference host: 2 cores, NumPy 2.4.6, in its average speed state.
REF_BLOCK_S = 0.0011
SPEED_INTERVAL = 0.05   # seconds between reference blocks


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(workers):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": usable_cores(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_THREADS, "cli_workers": workers}


class SetupSampler:
    """Set-up time: a fresh interpreter importing meridian.cli and loading
    the workload's config, reported as the median of the samples.

    The samples are spread over the window, one before the first command
    list due after each `seconds / SETUP_SAMPLES` step: the speed of the
    cores drifts over seconds to minutes, and samples bunched at the start
    of a run see only one speed."""

    def __init__(self, config, seconds):
        self.config = config
        self.step = seconds / SETUP_SAMPLES
        self.times = []
        self.due = None

    def sample(self):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC,
                               self.config],
                              cwd=ROOT, capture_output=True, timeout=120)
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail("set-up interpreter failed: %s" % proc.stderr.decode()[-500:])

    def __call__(self):
        """Called before each command list of the window."""
        now = perf_counter()
        if self.due is None:
            self.due = now
        if now >= self.due and len(self.times) < SETUP_SAMPLES:
            self.sample()
            self.due += self.step

    def median(self):
        while len(self.times) < SETUP_MIN:
            self.sample()
        return statistics.median(self.times)


class HostSpeed:
    """How slow the host runs, relative to the reference host, over a window.

    On a shared host the speed of the cores switches between states up to
    1.5x apart and stays in each for seconds to minutes, so a 30-s run
    lands in one state or another and its times follow.  While the window
    runs, a timer interrupts the process every SPEED_INTERVAL seconds and
    times a reference block: fixed NumPy work on arrays of REF_SIZE
    floats that uses no meridian code, so no change to the program moves
    it.  The block is timed in thread CPU time, so waits for the
    interpreter lock or for a core are not counted.  It costs about 2% of
    the window, in the command times as well.  `factor(t0, t1)` is the
    mean time of the blocks that started in [t0, t1] (of all blocks, if
    none did) over REF_BLOCK_S; a time divided by it is the time the
    reference host would have taken."""

    def __init__(self):
        self.data = np.random.default_rng(0).random(REF_SIZE)
        self.out = np.empty_like(self.data)
        self.starts = []
        self.blocks = []
        self._previous = None

    def block(self, signum=None, frame=None):
        start = perf_counter()
        t0 = thread_time()
        np.sin(self.data, out=self.out)
        np.multiply(self.out, self.data, out=self.out)
        self.blocks.append(thread_time() - t0)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.block)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL, SPEED_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.blocks:
            self.block()

    def factor(self, t0=-math.inf, t1=math.inf):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        blocks = self.blocks[lo:hi] or self.blocks
        return statistics.fmean(blocks) / REF_BLOCK_S


def dir_bytes(path):
    total = 0
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            total += os.path.getsize(full)
    return total


class Window:
    """Closed-loop command lists until the next would end past `seconds`.

    A pass is `workload.cycle` consecutive command lists (decay alternates
    its two betas, roundtrip cycles through its probe layouts); the window
    always completes one pass.  `between`, if given, is called before each
    command list, outside the command times."""

    def __init__(self, workload, tracer=None, between=None):
        self.wl = workload
        self.tracer = tracer
        self.between = between
        self.times = {}         # command label -> durations
        self.lists = {}         # command label -> index of its command list
        self.list_durations = []
        self.list_spans = []    # (start, end) of each command list
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failed_props = 0
        self.out_bytes = 0

    def wall_s(self, stat=statistics.fmean, speed=None):
        """Time of one pass: the sum over its commands of their mean time.

        With `speed`, each time is first divided by the host's slowness
        over its command list.  The mean, not the median: on a shared host
        the speed of the cores switches between states up to 1.5x apart,
        for seconds to minutes at a time.  A median of command times jumps
        between the states, while the mean moves with the share of time
        spent in each."""
        return sum(stat([dt / self._slowness(speed, i)
                         for dt, i in zip(v, self.lists[label])])
                   for label, v in self.times.items())

    def command_s(self, speed=None):
        """Time of all command lists, each divided as in `wall_s`."""
        return sum(dt / self._slowness(speed, i)
                   for i, dt in enumerate(self.list_durations))

    def _slowness(self, speed, i):
        return 1.0 if speed is None else speed.factor(*self.list_spans[i])

    def passes(self):
        return len(self.list_durations) / self.wl.cycle

    def run(self, seconds):
        start = perf_counter()
        index = 0
        while True:
            if index >= self.wl.cycle:
                expected = sum(statistics.median(self.times[c.label])
                               for c in self.wl.commands(index))
                if perf_counter() - start + expected > seconds:
                    break
            if self.between is not None:
                self.between()
            self.list_durations.append(self._one_index(index))
            index += 1

    def _one_index(self, index):
        start = perf_counter()
        done = [self._run(index, cmd) for cmd in self.wl.commands(index)]
        self.list_spans.append((start, perf_counter()))
        for cmd, _, _, dt in done:
            self.times.setdefault(cmd.label, []).append(dt)
            self.lists.setdefault(cmd.label, []).append(index)
            self.work += cmd.work
        for cmd, result, error, _ in done:
            self._check(cmd, result, error)
        return sum(dt for _, _, _, dt in done)

    def _run(self, index, cmd):
        # reports left by an earlier command must not stand in for the
        # ones this command should write
        if cmd.out_dir is not None:
            shutil.rmtree(cmd.out_dir, ignore_errors=True)
        end = None
        if self.tracer is not None:
            end = self.tracer.begin_command("%d/%s" % (index, cmd.label),
                                            cmd.label)
        t0 = perf_counter()
        try:
            result, error = cmd.run(), None
        except Exception:
            result, error = None, traceback.format_exc()
        dt = perf_counter() - t0
        if end is not None:
            end()
        return cmd, result, error, dt

    def _check(self, cmd, result, error):
        from workloads import CheckError
        self.attempted += 1
        if error is None and result == 2:
            error = "%s: exit code 2 (validation or numerical failure)" % cmd.label
        if error is None:
            try:
                props = cmd.check(result)
                if len(props) != cmd.n_props:
                    raise CheckError("%s: %d properties, expected %d"
                                     % (cmd.label, len(props), cmd.n_props))
            except CheckError as exc:
                error = "%s: %s" % (cmd.label, exc)
        if error is not None:
            # a failed command fails every property it asserts
            print("perfbench: FAILED %s" % error.rstrip(), file=sys.stderr)
            self.failed += 1
            self.failed_props += cmd.n_props
            return
        if cmd.out_dir is not None:
            self.out_bytes += dir_bytes(cmd.out_dir)


def tail(durations):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(durations)
    if n < 11:
        return None
    k = n - 10                                  # samples at or below it
    return 100.0 * k / n, sorted(durations)[k - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "meridian", "cli.py")):
        fail("no meridian sources under %s: run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        from workloads import WORKLOADS
        from tracing import Tracer, layer_metrics, self_shares
    except ImportError as exc:
        fail("cannot import the package: %s" % exc)
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload, sorted(WORKLOADS)))

    workers = max(1, min(MAX_WORKERS, usable_cores() // BLAS_THREADS))
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT, workers)
    env = environment(wl.workers)
    print("info: %s" % json.dumps(env, sort_keys=True))

    if not args.trace:
        setup = SetupSampler(wl.config, args.seconds)
        untraced = Window(wl, between=setup)
        with HostSpeed() as speed:
            untraced.run(args.seconds)
        setup_s = setup.median()
        print("info: host speed: %d reference blocks, mean %.6f s, %.4gx "
              "the reference time" % (len(speed.blocks),
                                      statistics.fmean(speed.blocks),
                                      speed.factor()))
        print("info: setup_s samples %s s, median %.4f s as measured"
              % (" ".join("%.3f" % t for t in setup.times), setup_s))
        windows = [untraced]
    else:
        untraced = Window(wl)
        untraced.run(args.seconds / 2)
        tracer = Tracer()
        traced = Window(wl, tracer)
        tracer.install()
        try:
            traced.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(wl.dir, "spans.jsonl"))
        windows = [untraced, traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    # properties count once per distinct output, and all properties of a
    # failed command count as not held
    props = sum(w.failed_props for w in windows)
    held = 0
    for output in wl.distinct.values():
        props += len(output)
        held += sum(1 for _, ok in output if ok)
        for name, ok in output:
            if not ok:
                print("info: property not held: %s" % name)
    durations = untraced.list_durations
    wall_s = untraced.wall_s()
    print("info: %.3g passes, wall_s %.4f s (from medians %.4f s), "
          "command lists %s s"
          % (untraced.passes(), wall_s, untraced.wall_s(statistics.median),
             " ".join("%.3f" % d for d in durations)))
    t = tail(durations)
    print("info: wall_s tail: %s" % ("p%.0f %.4f s" % t if t else
                                     "fewer than 11 passes, no percentile "
                                     "has ten samples beyond it"))
    print("info: fail_share %.6g (%d of %d properties)"
          % ((props - held) / props if props else 0.0, props - held, props))
    work_per_s = untraced.work / untraced.command_s()
    print("info: work_per_s %.6g 1/s as measured, counting %s"
          % (work_per_s, wl.work_unit))
    for name, (value, unit) in sorted(wl.figures().items()):
        print("info: %s = %.6g %s" % (name, value, unit))

    if not args.trace:
        metrics = {
            "wall_ref_s": metric(untraced.wall_s(speed=speed), "s"),
            "setup_s": metric(setup_s / speed.factor(), "s"),
            "work_per_ref_s": metric(
                untraced.work / untraced.command_s(speed), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "pass_share": metric(held / props if props else 0.0, "share"),
        }
    else:
        passes = traced.passes()
        layer = layer_metrics(tracer.spans, passes, wl.truth)
        metrics = {name: metric(value, _unit(name))
                   for name, value in sorted(layer.items())}
        metrics["cli.out_bytes"] = metric(traced.out_bytes / passes, "B")
        metrics["trace.overhead_s"] = metric(traced.wall_s() - wall_s, "s")
        print("info: traced pass %.4f s; largest self-time shares: %s"
              % (traced.wall_s(), ", ".join(
                  "%s %.1f%%" % (name, 100 * share)
                  for name, share in self_shares(tracer.spans))))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith(("_s", ".s_per_call")):
        return "s"
    if name.endswith(".integrand_evals"):
        return "count_computed"
    if name.endswith("_share"):
        return "share"
    if name.endswith(("quad_err_max", "_per_call")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
