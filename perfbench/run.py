"""Benchmark for isokernel: one workload per run, from the repository root.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn, each reported as below.

The workload's inputs are generated from ``--seed`` and written as LIBSVM
files under ``.bench_work/`` before anything is timed; the package under
``src/`` sees only those files. The work then runs in a fresh worker
process (see ``workloads.py``) with ``ISOKERNEL_THREADS`` unset and the
BLAS threads capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their times are scaled by the host's speed, taken from a reference kernel
timed between units of work (see ``calibrate.py``); the unscaled figures
are printed beside them.
``--trace 1`` runs the same work three times, each in its own process:
untraced, traced, and traced with ``map_many``'s memory recorded. It
reports the per-layer metrics of the traced run, ``map_many``'s peak memory
from the third, and ``trace.overhead_s``, the traced minus the untraced
timed phase.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, every output check with PASS or FAIL,
``fail_ratio``, and the environment. A workload whose work raised, or whose
worker process failed, is reported with ``correct`` false, the failures
counted in ``failed`` and no metrics; ``--workload all`` then goes on.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from calibrate import NOMINAL_S
from stats import percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream-a9a", "serve-point", "batch-sparse-hd",
             "baselines-online")
END_TO_END = (
    # (metric name, unit)
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("pts_per_s", "points/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
)
TIME_LIMIT_S = 170  # per workload, inside the 180 s a run may take
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env(root):
    env = dict(os.environ)
    env.pop("ISOKERNEL_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = cores
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE])
    return env


def run_worker(spec, root, deadline):
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(spec)],
        env=worker_env(root), cwd=root, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def show(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<9} {note}".rstrip())


def summarize(res):
    """Counts for the result line, after printing the output checks."""
    failed_checks = 0
    for name, passed, detail in res["checks"]:
        print(f"  check {'PASS' if passed else 'FAIL'}  {name}  [{detail}]")
        failed_checks += not passed
    attempted = res["scores"] + len(res["checks"]) + res["errors"]
    failed = res["nonfinite"] + failed_checks + res["errors"]
    if res["psi"]:
        print(f"  psi chosen per protocol call: {res['psi']}")
    print(f"  scores {res['scores']}, non-finite {res['nonfinite']}, "
          f"exceptions {res['errors']}")
    show("fail_ratio", failed / max(1, attempted), "fraction",
         f"({failed}/{attempted})")
    return failed == 0, max(1, attempted), failed


def _times(res):
    """Per-unit walls and set-up times, each scaled by the host's speed
    around it (see ``calibrate.py``); unscaled where no scale was taken."""
    walls, setups = res["walls"], res["setup_s"]
    if res.get("wall_scale"):
        walls = [w * k for w, k in zip(walls, res["wall_scale"])]
        setups = [s * k for s, k in zip(setups, res["setup_scale"])]
    return walls, setups


def _timings(walls, points, setups, requests):
    per_point = statistics.median(w / p for w, p in zip(walls, points))
    if requests:
        p50, p99 = percentile(walls, 50), percentile(walls, 99)
    else:
        p50 = p99 = per_point
    return {
        "latency_p50_us": p50 * 1e6,
        "latency_p99_us": p99 * 1e6,
        "pts_per_s": 1 / per_point,
        "setup_s": statistics.median(setups),
    }


def end_to_end(res):
    """End-to-end metric values, and a note on how latency was sampled.

    Throughput is a median over units of work, so that a unit slowed by a
    busy host moves it less: the points of a unit over its time, median over
    the units (one request, or one protocol call). Requests are timed one
    by one. A protocol call scores a whole stream, so there a point's
    latency is the call's time per point, and the median and the p99 are
    that one figure. Every time is scaled by the host's speed around it.
    """
    walls, setups = _times(res)
    values = _timings(walls, res["points"], setups, res["requests"])
    values.update(peak_rss_mb=res["peak_rss_mb"], accuracy=res["accuracy"])
    n = len(walls)
    if res["requests"]:
        note = (f"(n={n} requests; highest percentile with >=10 "
                f"beyond: p{tail_percentile(n)})")
    else:
        note = f"(median time per point over {n} calls)"
    return values, note


def print_unscaled(res):
    """Print the timings without the host-speed scale, and the reference."""
    raw = _timings(res["walls"], res["points"], res["setup_s"],
                   res["requests"])
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for kind, refs in res["reference_s"].items():
        print(f"  reference kernel {kind}: median "
              f"{statistics.median(refs):.6f} s over {len(refs)} "
              f"calibrations, nominal {NOMINAL_S[kind]} s")


def measure(name, args, root, workdir):
    """Run one workload's workers.

    Returns the worker's result, the metrics (None when no unit of work
    completed) and a note on how latency was sampled.
    """
    import workloads  # needs the package on the path

    deadline = time.monotonic() + TIME_LIMIT_S
    wl = workloads.WORKLOADS[name](args.seed)
    spec = {"workload": name, "seed": args.seed,
            "files": wl.inputs(workdir), "seconds": args.seconds,
            "mode": "measure", "units": None}
    if args.trace:
        # Fixed work, so counts repeat exactly and the passes match.
        spec.update(mode="fixed", units=wl.min_units)
        plain = run_worker(spec, root, deadline)
        spec["mode"] = "memory"
        peak = run_worker(spec, root, deadline)
        spec["mode"] = "traced"
        res = run_worker(spec, root, deadline)
        if not (res["walls"] and plain["walls"] and peak["walls"]):
            return res, None, ""
        metrics = res["layers"]
        metrics["featuremap.map_many_peak_mb"] = (
            peak["layers"]["featuremap.map_many_peak_mb"])
        metrics["trace.overhead_s"] = {
            "value": sum(res["walls"]) - sum(plain["walls"]), "unit": "s"}
        print(f"  traced {len(res['walls'])} units: "
              f"{sum(res['walls']):.4f} s traced, "
              f"{sum(plain['walls']):.4f} s untraced")
        return res, metrics, ""
    res = run_worker(spec, root, deadline)
    if not res["walls"]:
        return res, None, ""
    values, note = end_to_end(res)
    print_unscaled(res)
    units = dict(END_TO_END)
    return res, {k: {"value": v, "unit": units[k]}
                 for k, v in values.items()}, note


def run_one(name, args, root):
    """Run one workload and print its report, ending in the result line."""
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    print(f"workload {name}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    try:
        res, metrics, note = measure(name, args, root, workdir)
    except Exception:
        # A worker crashed or timed out, or the package failed to import:
        # one failed operation, reported like any other failure.
        traceback.print_exc()
        show("fail_ratio", 1.0, "fraction", "(1/1)")
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    else:
        env = res["env"]
        print(f"  env: python {env['python']}, numpy {env['numpy']}, "
              f"nproc {len(os.sched_getaffinity(0))}, BLAS threads "
              f"{env['OPENBLAS_NUM_THREADS']}, ISOKERNEL_THREADS "
              f"{env['ISOKERNEL_THREADS']}, package {env['isokernel']}")
        if metrics is None:
            print("  no unit of work completed")
        for metric, m in (metrics or {}).items():
            show(metric, m["value"], m["unit"],
                 note if metric.startswith("latency") else "")
        correct, attempted, failed = summarize(res)
        result = {"correct": correct and metrics is not None,
                  "attempted": attempted, "failed": failed,
                  "metrics": metrics or {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isokernel",
                                       "__init__.py")):
        print("error: run from the repository root; src/isokernel not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_one(name, args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
