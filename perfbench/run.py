"""perilib benchmark: three seeded closed-loop workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload cylinder|flow|normalform|all
                             --seed N --seconds S --trace 0|1

Run from the root of a perilib checkout; perilib is imported from its
``src`` directory, and the script exits with status 2 when there is none.
For one workload it runs one fresh worker process (perfbench/worker.py),
with BLAS and OpenMP pinned to one thread, which checks every output
against its oracle, and prints the figures on stderr and, as the last line
of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.

End-to-end metrics (--trace 0):
  setup_s      median time for a fresh interpreter to import perilib, numpy
               and scipy and load the default config (s);
  wall_s       median over the run's passes of the time of one pass over
               the job list (s);
  peak_rss_mb  peak resident memory of the worker (MiB).
Both times are host-normalized seconds (see worker.py): a shared host's
speed drifts too much for raw times to compare across runs.  The raw times, and
per kind of job its median, the highest percentile with ten samples beyond
it and the sample count, are printed alongside with the failed fraction.

``--workload all`` runs the three workloads one after another, each in its
own processes, and prints every end-to-end figure with its unit, including
the time per job of each kind and the failed fraction.  Outputs, the
per-run record (result.json, with the environment) and the trace spans
(spans.npz) go to .bench_out/<workload>/ in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cylinder", "flow", "normalform")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# no extra threads: BLAS/OpenMP pools pinned to one, hashing made repeatable
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# kinds of job per workload and the end-to-end metric each one's time feeds
JOB_METRICS = {
    "portrait": "portrait_s",
    "renorm": "renorm_s",
    "evolve": "evolve_s",
    "libration": "libration_s",
    "normalform": "normalform_s",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its %g s limit" % RUN_LIMIT_S)
    return left


def run_worker(args, workload, deadline):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker for %s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def run_workload(args, workload):
    res = run_worker(args, workload, time.monotonic() + RUN_LIMIT_S)
    report(res)
    return res


def fmt(value):
    return "%.6g" % value


def report(res):
    """Human-readable figures of one workload, on stderr."""
    wl = res["workload"]
    out = [("fail_frac", res["failed"] / res["attempted"], "1")]
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    for name, value in sorted(res.get("end_to_end", {}).items()):
        out.append((name, value, units[name]))
    for name in ("wall_raw_s", "setup_raw_s"):
        if name in res:
            out.append((name, res[name], "s (raw)"))
    for kind, st in sorted(res["jobs"].items()):
        tail = (" p%d=%s" % (st["tail_pct"], fmt(st["tail"]))) if "tail" in st else ""
        out.append((JOB_METRICS[kind], "p50=%s%s n=%d (raw p50=%s)" % (
            fmt(st["p50"]), tail, st["n"], fmt(st["p50_raw"])), "s"))
    for name, value in sorted(res.get("per_layer", {}).items()):
        out.append((name, value, ""))
    env = res["env"]
    print("# %s seed=%d passes=%d jobs=%d failed=%d correct=%s | python %s numpy %s "
          "scipy %s nproc %s cpu %r L2 %s L3 %s"
          % (wl, res["seed"], res["passes"], res["attempted"], res["failed"],
             res["correct"], env["python"], env["numpy"], env["scipy"], env["nproc"],
             env["cpu"], env["l2_bytes"], env["l3_bytes"]), file=sys.stderr)
    for name, value, unit in out:
        shown = fmt(value) if isinstance(value, (int, float)) else value
        print("%-12s %-52s %s %s" % (wl, name, shown, unit), file=sys.stderr)


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_line(results, args):
    e2e_units, layer_units = metric_units()
    units = layer_units if args.trace else e2e_units
    metrics = {}
    for res in results:
        values = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="perilib benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced job sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "perilib", "cli.py")):
        print("no perilib sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, wl) for wl in workloads]
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print("benchmark failed: %s" % (exc,), file=sys.stderr)
        return 1
    print(json.dumps(result_line(results, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
