#!/usr/bin/env python3
"""Compare perfbench results of two builds against BENCHMARK.json's bounds.

    tools/bench_compare.py --parent p1.json p2.json ... --change c1.json ...
    tools/bench_compare.py ... --claim uobm-cluster.op_wall_s

Each file holds the output of one `python3 perfbench/run.py` run (its last
non-empty line is the result object; a whole captured stdout is fine).  A
single-workload run names its metrics bare (`op_wall_s`), a run of every
workload `<workload>.<metric>`; both sides must use the same form.

For every end_to_end metric of BENCHMARK.json the medians over the runs of
each side are compared: a change worse than the parent's median by more
than the metric's bound (a fraction of the parent's median) is a breach.
So is a change side with a larger share of failed operations, or one that
is not correct.  With --claim METRIC the runs are also taken as pairs, in
the order given: the claim holds when the change is better on at least 90%
of the pairs and its median beats the parent's by more than the parent's
interquartile range.  Per-layer metrics are listed, never judged.

Exit status: 0 when nothing breaches (and every claim holds), 1 otherwise,
2 on unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_result(path):
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise ValueError("%s is empty" % path)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def metric_base(name, bounded):
    """The BENCHMARK.json name of `name` (bare or <workload>.<metric>)."""
    if name in bounded:
        return name
    workload, _, rest = name.partition(".")
    return rest if workload and rest in bounded else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        help="metric whose improvement must be resolved")
    args = parser.parse_args()

    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        parent = [load_result(p) for p in args.parent]
        change = [load_result(c) for c in args.change]
    except (OSError, ValueError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2

    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}
    names = sorted(set(parent[0]["metrics"]) & set(change[0]["metrics"]))
    breaches = []

    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / max(attempted, 1)

    if share(change) > share(parent):
        breaches.append("failed share %.6f > parent %.6f"
                        % (share(change), share(parent)))
    if not all(r["correct"] for r in change):
        breaches.append("a change run is not correct")

    print("%-40s %14s %14s %9s %8s  %s"
          % ("metric", "parent median", "change median", "delta", "bound",
             "verdict"))
    for name in names:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        delta = (cm - pm) / pm if pm else 0.0
        base = metric_base(name, bounded)
        verdict, bound = "", ""
        if base is not None:
            limit = bounded[base]["bound"]
            bound = "%.0f%%" % (100 * limit)
            worse = delta if bounded[base]["better"] == "lower" else -delta
            verdict = "BREACH" if worse > limit else "ok"
            if verdict == "BREACH":
                breaches.append("%s: %+.1f%% against a %s bound"
                                % (name, 100 * delta, bound))
        print("%-40s %14.6g %14.6g %+8.1f%% %8s  %s"
              % (name, pm, cm, 100 * delta, bound, verdict))

    for name in args.claim:
        if name not in names:
            breaches.append("claimed metric %s is missing" % name)
            continue
        base = name if name in better else name.partition(".")[2]
        lower = better.get(base, "lower") == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
        q1, q3 = quartiles(p)
        gain = statistics.median(p) - statistics.median(c)
        gain = gain if lower else -gain
        holds = wins >= 0.9 * len(pairs) and gain > q3 - q1
        print("claim %s: better on %d/%d pairs, median gain %.6g vs parent "
              "IQR %.6g: %s" % (name, wins, len(pairs), gain, q3 - q1,
                                "holds" if holds else "NOT RESOLVED"))
        if not holds:
            breaches.append("claim on %s not resolved" % name)

    for b in breaches:
        print("breach:", b)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
