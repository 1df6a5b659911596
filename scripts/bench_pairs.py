"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload batch-sparse-hd --seeds 301-310 --seconds 35 \
        --out BENCH_10.json

``--parent`` and ``--change`` are two checkouts of the repository, for
example made with ``git worktree add`` or ``git archive``. For every seed
and workload, ``perfbench/run.py --trace 0`` runs once in each checkout;
the side that runs first alternates from pair to pair. Each side's median
and quartiles of every end-to-end metric in ``BENCHMARK.json`` are written
to ``--out``, with the number of pairs the change won (ties count for
neither side) and every run's values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    """``301-310,4711`` as a list of ints: comma-separated seeds, each a
    single seed or an inclusive range."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision(root):
    """The commit checked out at ``root``, or None if it is not a git
    checkout."""
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(root, workload, seed, seconds):
    """The result line of one benchmark run in the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def spread(values):
    """Median and quartiles of ``values`` (None where there are none)."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    """Per metric: each side's spread, the change's wins and losses over
    the pairs where both sides report it, and whether the gain rule holds:
    at least 9 in 10 pairs won and the medians further apart than the
    parent's interquartile range."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        both = [(p["parent"]["metrics"][name]["value"],
                 p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["parent"]["metrics"]
                and name in p["change"]["metrics"]]
        if not both:
            continue
        parent = spread([a for a, _ in both])
        change = spread([b for _, b in both])
        wins = sum(sign * (b - a) > 0 for a, b in both)
        losses = sum(sign * (b - a) < 0 for a, b in both)
        gap = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": parent, "change": change,
            "pairs": len(both), "wins": wins, "losses": losses,
            "relative_change": (change["median"] / parent["median"] - 1
                                if parent["median"] else None),
            "gain": wins >= 0.9 * len(both)
            and gap > parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/run.py; may repeat")
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="one pair per seed, as 301-310,4711")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}
    report = {
        "revisions": {side: revision(root) for side, root in roots.items()},
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed,
                                      args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "failed": {side: sum(p[side]["failed"] for p in pairs)
                       for side in roots},
            "metrics": summarize(pairs, end_to_end),
            "runs": pairs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
