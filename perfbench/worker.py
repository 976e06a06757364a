"""Runs one workload in this (fresh) process and prints its figures as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 [--smoke]

With --trace 0 it first times SETUP_RUNS fresh interpreters getting ready
(setup_s).  The process is then a closed loop with one client: it runs the
workload's job list pass after pass, starting each job when the previous
one has finished, until --seconds have passed (at least one pass).  After
every pass, outside the timed region, each job's outputs go through its
oracle; a job fails if it exits nonzero, raises, or fails its oracle.

With --trace 1 the first half of the time runs untraced passes and the
second half traced ones (see tracing.py); both write their outputs to
separate trees, which must be byte-identical.  perfbench/run.py launches
this script; the last line it prints is the JSON the launcher reads.
"""

import argparse
import bisect
import contextlib
import filecmp
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import perilib  # noqa: E402
from perfbench import oracles, tracing, workloads  # noqa: E402


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    k = n - 10
    if k < 1:
        return None
    return int(100 * k / n), sorted(values)[k - 1]


def job_stats(times, ref):
    """Host-normalized median and tail of one kind of job, with the raw median."""
    out = {"p50": statistics.median(ref), "n": len(ref),
           "p50_raw": statistics.median(times)}
    t = tail(ref)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out


def environment():
    def getconf(name):
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True,
                                  timeout=10)
            return int(proc.stdout)
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# Host-speed calibration.  On a shared host (measured: a 2-core Intel Xeon
# KVM guest) speed drifts by up to 1.6x over tens of seconds, which no
# statistic within one run removes.  During untraced passes a SIGALRM
# handler therefore times a short fixed probe every PROBE_PERIOD_S of wall
# time, and each job's time is also reported host-normalized:
# (raw time - time spent in probes) * PROBE_NOMINAL_S / (mean probe time
# during the job), i.e. seconds at the reference host's quiet speed.  The
# probe adds about 2.5% to a job's raw time, which is subtracted.
PROBE_PERIOD_S = 0.025
PROBE_NOMINAL_S = 0.0006  # quiet reference host, Python 3.11, numpy 2.4
_PROBE_ARRAY = np.random.default_rng(0).standard_normal((64, 16, 20))
_PROBE_X = np.linspace(0.0, 1.0, 256)


def probe():
    """A fixed mix of the workloads' kinds of work: an interpreter loop,
    small numpy calls and one DCT."""
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(30):
        acc += float(np.mean(_PROBE_X / np.sqrt(1.0 + _PROBE_X * _PROBE_X)))
    scipy.fft.dct(_PROBE_ARRAY, type=1, axis=2)
    return acc


class HostSampler:
    """Probe timings taken from a timer signal while jobs run."""

    def __init__(self):
        self.at = []
        self.took = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._tick(None, None)  # every pass has at least one probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0, t1):
        """(seconds spent probing within [t0, t1], mean probe time there);
        a window without a probe borrows its two nearest ones."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        inside = self.took[lo:hi]
        near = inside or self.took[max(lo - 1, 0):lo + 1]
        return sum(inside), statistics.fmean(near)


SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import numpy, scipy; "
    "import perilib.cli; perilib.cli.load_config(None)"
)


def host_probe_seconds(n=5):
    """Median time of n probes run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_seconds():
    """(raw, host-normalized) median time for a fresh interpreter to import
    perilib, numpy and scipy and load the default config."""
    raw, ref = [], []
    for _ in range(SETUP_RUNS):
        before = host_probe_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       timeout=60)
        seconds = time.perf_counter() - t0
        after = host_probe_seconds()
        raw.append(seconds)
        ref.append(seconds * 2 * PROBE_NOMINAL_S / (before + after))
    return statistics.median(raw), statistics.median(ref)


class Run:
    """State of one workload run: job list, outcomes and timings."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.jobs = workloads.build(workload, seed, smoke)
        self.out = os.path.join(OUT_ROOT, workload)
        self.attempted = 0
        self.failed = 0
        self.job_times = {}  # kind -> raw seconds, untraced passes only
        self.job_ref = {}  # kind -> host-normalized seconds
        self.ref_walls = []  # host-normalized time of each untraced pass
        self.margins = {}
        self.passes = 0

    def one_pass(self, tree, tracer=None):
        """Run every job once; returns the pass's wall time in seconds,
        not counting the probes run during an untraced pass."""
        base = os.path.join(self.out, tree)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        outcomes = []
        sampler = HostSampler() if tracer is None else contextlib.nullcontext()
        t_pass = time.perf_counter()
        with sampler:
            for i, job in enumerate(self.jobs):
                out_dir = os.path.join(base, job.name)
                if tracer is not None:
                    tracer.job_id = self.passes * len(self.jobs) + i
                t0 = time.perf_counter()
                try:
                    code, payload = job.run(out_dir)
                    error = None
                except SystemExit as exc:  # argparse rejecting the job's arguments
                    code, payload, error = exc.code, None, None
                except Exception:
                    code, payload, error = None, None, traceback.format_exc()
                t1 = time.perf_counter()
                outcomes.append((job, out_dir, t0, t1, code, payload, error))
        t_end = time.perf_counter()
        wall = t_end - t_pass
        self.passes += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            wall -= sampler.window(t_pass, t_end)[0]
            ref_wall = 0.0
            for job, _, t0, t1, *_ in outcomes:
                spent, probe_s = sampler.window(t0, t1)
                seconds = t1 - t0 - spent
                ref = seconds * PROBE_NOMINAL_S / probe_s
                ref_wall += ref
                self.job_times.setdefault(job.kind, []).append(seconds)
                self.job_ref.setdefault(job.kind, []).append(ref)
            self.ref_walls.append(ref_wall)
        for job, out_dir, _, _, code, payload, error in outcomes:
            self.attempted += 1
            problems = self.verdict(job, out_dir, code, payload, error)
            if problems:
                self.failed += 1
                print("FAIL %s/%s: %s" % (self.workload, job.name, "; ".join(problems)),
                      file=sys.stderr)
        return wall

    def verdict(self, job, out_dir, code, payload, error):
        if error is not None:
            return ["raised:\n" + error]
        if code != 0:
            return ["exit code %r" % (code,)]
        if payload is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "result.json"), "w") as fh:
                json.dump(payload, fh, sort_keys=True, default=float)
        try:
            problems, margins = oracles.check(job, out_dir, payload)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return ["unreadable output: %r" % (exc,)]
        for name, value in margins.items():
            self.margins[name] = max(self.margins.get(name, value), value)
        return problems

    def loop(self, deadline, tree, tracer=None):
        walls = [self.one_pass(tree, tracer)]
        while time.perf_counter() < deadline:
            walls.append(self.one_pass(tree, tracer))
        return walls


def same_tree(a, b):
    """True when directories a and b hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def layer_metrics(tracer, walls_traced, walls_untraced, root_time, margins):
    """Per-pass figures of the traced passes (see BENCHMARK.json per_layer)."""
    n = len(walls_traced)
    per_name = tracer.self_times()
    metrics = {}
    module_self = dict.fromkeys(tracing.MODULES, 0.0)
    for name, (self_s, calls) in per_name.items():
        metrics[name + ".calls"] = calls / n
        metrics[name + ".self_s"] = self_s / n
        module_self[name.split(".", 1)[0]] += self_s / n
    for module, self_s in module_self.items():
        metrics[module + ".self_s"] = self_s
    counts = {k: v / n for k, v in tracer.counts.items()}
    samples = counts.pop("potentials.check_renorm_identity.samples")
    rejected = counts.pop("potentials.check_renorm_identity.rejected")
    segments = counts.pop("portraits.marching_squares.segments")
    metrics.update(counts)
    metrics["potentials.check_renorm_identity.accept_ratio"] = (
        samples / (samples + rejected) if samples else 0.0)
    cells = counts["portraits.marching_squares.cells"]
    metrics["portraits.marching_squares.active_ratio"] = segments / cells if cells else 0.0
    for name in MARGINS:
        metrics[name] = margins.get(name, 0.0)
    wall = statistics.fmean(walls_traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.outside_s"] = (sum(walls_traced) - root_time) / n
    metrics["trace.overhead_s"] = wall - statistics.fmean(walls_untraced)
    metrics["trace.spans"] = len(tracer) / n
    return metrics


MARGINS = ("potentials.renorm_residual_max", "dynamics.energy_drift_max",
           "normalform.residual_max", "normalform.contraction_max")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced job sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src", "perilib")
    if os.path.dirname(os.path.abspath(perilib.__file__)) != src:
        raise SystemExit("perilib imported from %s, not from %s" % (perilib.__file__, src))

    result = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if not args.trace:
        result["setup_raw_s"], setup_s = setup_seconds()
    t0 = time.perf_counter()
    run = Run(args.workload, args.seed, args.smoke)
    if not args.trace:
        walls = run.loop(t0 + args.seconds, "untraced")
        result["end_to_end"] = {
            "wall_s": statistics.median(run.ref_walls),
            "setup_s": setup_s,
            "peak_rss_mb": run.peak_rss_mb,
        }
        result["wall_raw_s"] = statistics.median(walls)
        identical = True
    else:
        walls_untraced = run.loop(t0 + args.seconds / 2, "untraced")
        tracer = tracing.Tracer()
        tracer.install()
        walls, roots, first = [], 0.0, 0
        try:
            while not walls or time.perf_counter() < t0 + args.seconds:
                walls.append(run.one_pass("traced", tracer))
                roots += tracer.root_time(first)
                first = len(tracer)
        finally:
            tracer.uninstall()
        identical = same_tree(os.path.join(run.out, "untraced"),
                              os.path.join(run.out, "traced"))
        if not identical:
            print("FAIL %s: traced outputs differ from untraced ones" % args.workload,
                  file=sys.stderr)
        tracer.save(os.path.join(run.out, "spans.npz"))
        result["per_layer"] = layer_metrics(tracer, walls, walls_untraced, roots,
                                            run.margins)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        correct=run.failed == 0 and identical,
        passes=len(walls),
        pass_walls=walls,
        jobs={kind: job_stats(times, run.job_ref[kind])
              for kind, times in run.job_times.items()},
        margins=run.margins,
        threads=threading.active_count(),
    )
    with open(os.path.join(run.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
