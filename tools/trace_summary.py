#!/usr/bin/env python3
"""Summarize a parowl Chrome-trace file (--trace-out output).

    tools/trace_summary.py trace.json [--category parallel] [--markdown]

Prints three views of the trace:
  * per-category span totals (count, total/mean duration),
  * per-worker round skew (for parallel runs: each worker's time per round,
    plus the round's max/min ratio — the straggler factor),
  * per-worker communication breakdown (compute vs send/recv/retransmit),
  * async steal/idle breakdown (--exec-mode async runs: drain/steal/idle
    time per worker, steal counts, stolen tuples, victims),
  * equality-rewrite breakdown (--equality-mode rewrite runs: store
    rebuild passes with remapped-triple counts from reason.eq.rewrite,
    query-time class-map expansion with row amplification from
    reason.eq.expand).

The input is the {"traceEvents": [...]} JSON written by the tracer; only
"X" (complete) events are consumed, "M" metadata names the worker tracks.
"""

import argparse
import collections
import json
import sys


def load_events(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    return spans, names


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


class Table:
    def __init__(self, header):
        self.header = header
        self.rows = []

    def add(self, row):
        self.rows.append([str(c) for c in row])

    def print(self, markdown=False):
        widths = [
            max(len(str(h)), *(len(r[i]) for r in self.rows)) if self.rows
            else len(str(h))
            for i, h in enumerate(self.header)
        ]
        if markdown:
            print("| " + " | ".join(
                str(h).ljust(w) for h, w in zip(self.header, widths)) + " |")
            print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
            for row in self.rows:
                print("| " + " | ".join(
                    c.ljust(w) for c, w in zip(row, widths)) + " |")
        else:
            print("  ".join(str(h).ljust(w)
                            for h, w in zip(self.header, widths)))
            for row in self.rows:
                print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        print()


def category_totals(spans, markdown):
    by_name = collections.defaultdict(lambda: [0, 0.0])
    for e in spans:
        agg = by_name[e["name"]]
        agg[0] += 1
        agg[1] += e.get("dur", 0)
    table = Table(["span", "count", "total", "mean"])
    for name in sorted(by_name):
        count, total = by_name[name]
        table.add([name, count, fmt_us(total), fmt_us(total / count)])
    print("== span totals ==")
    table.print(markdown)


def worker_label(tid, names):
    return names.get(tid, f"track {tid}")


def round_skew(spans, names, markdown):
    # parallel.round spans carry a "round" arg and a per-worker track.
    per_round = collections.defaultdict(dict)  # round -> tid -> dur
    for e in spans:
        if e["name"] != "parallel.round":
            continue
        rnd = e.get("args", {}).get("round")
        if rnd is None:
            continue
        # A worker can appear once per round; keep the sum to be safe.
        per_round[rnd][e["tid"]] = per_round[rnd].get(e["tid"], 0) + e["dur"]
    if not per_round:
        return
    tids = sorted({tid for durs in per_round.values() for tid in durs})
    table = Table(["round"] + [worker_label(t, names) for t in tids]
                  + ["skew (max/min)"])
    for rnd in sorted(per_round):
        durs = per_round[rnd]
        row = [rnd] + [fmt_us(durs.get(t, 0)) for t in tids]
        present = [d for d in durs.values() if d > 0]
        skew = (max(present) / max(min(present), 1)) if present else 0.0
        row.append(f"{skew:.2f}x")
        table.add(row)
    print("== per-worker round skew ==")
    table.print(markdown)


def comm_breakdown(spans, names, markdown):
    stages = ["parallel.compute", "parallel.send", "parallel.recv",
              "parallel.retransmit", "parallel.aggregate"]
    per_worker = collections.defaultdict(lambda: collections.defaultdict(float))
    for e in spans:
        if e["name"] in stages:
            per_worker[e["tid"]][e["name"]] += e["dur"]
    # Round-driver tracks only: async workers also retransmit, but they
    # compute in drain/steal spans (see async_breakdown).
    per_worker = {t: d for t, d in per_worker.items()
                  if "parallel.compute" in d}
    if not per_worker:
        return
    table = Table(["worker"] + [s.split(".", 1)[1] for s in stages]
                  + ["comm share"])
    for tid in sorted(per_worker):
        durs = per_worker[tid]
        compute = durs.get("parallel.compute", 0.0)
        comm = sum(durs.get(s, 0.0) for s in stages[1:])
        total = compute + comm
        share = 100.0 * comm / total if total > 0 else 0.0
        table.add([worker_label(tid, names)]
                  + [fmt_us(durs.get(s, 0.0)) for s in stages]
                  + [f"{share:.1f}%"])
    print("== per-worker communication breakdown ==")
    table.print(markdown)


def async_breakdown(spans, names, markdown):
    # Asynchronous executor (--exec-mode async / async-threaded): each
    # worker's activity lands on its own track as parallel.drain (inbox
    # polls), parallel.steal (thief-side shard evaluations, with victim /
    # tuples / derived args), and parallel.idle (polls with no backlog, no
    # steal target, nothing arriving).  The table shows where each worker's
    # wall time went and how much work it took from whom — the steal /
    # backlog story behind the idle numbers.
    stages = ["parallel.drain", "parallel.steal", "parallel.idle"]
    per_track = collections.defaultdict(
        lambda: collections.defaultdict(float))
    steal_counts = collections.defaultdict(int)
    stolen_tuples = collections.defaultdict(int)
    victims = collections.defaultdict(collections.Counter)
    for e in spans:
        if e["name"] not in stages:
            continue
        per_track[e["tid"]][e["name"]] += e.get("dur", 0)
        if e["name"] == "parallel.steal":
            args = e.get("args", {})
            steal_counts[e["tid"]] += 1
            stolen_tuples[e["tid"]] += args.get("tuples", 0)
            if "victim" in args:
                victims[e["tid"]][args["victim"]] += 1
    if not any(durs.get("parallel.steal") or durs.get("parallel.idle")
               for durs in per_track.values()) and not steal_counts:
        return
    table = Table(["worker", "drain", "steal", "idle", "idle share",
                   "steals", "stolen tuples", "victims"])
    for tid in sorted(per_track):
        durs = per_track[tid]
        total = sum(durs.values())
        idle = durs.get("parallel.idle", 0.0)
        share = 100.0 * idle / total if total > 0 else 0.0
        victim_str = ",".join(
            f"w{v}x{c}" for v, c in sorted(victims[tid].items())) or "-"
        table.add([worker_label(tid, names)]
                  + [fmt_us(durs.get(s, 0.0)) for s in stages]
                  + [f"{share:.1f}%", steal_counts.get(tid, 0),
                     stolen_tuples.get(tid, 0), victim_str])
    print("== async steal/idle breakdown ==")
    table.print(markdown)


def eq_breakdown(spans, markdown):
    # Equality rewriting: reason.eq.rewrite spans are the engine's in-place
    # store rebuilds after sameAs merges (args: keep_end — the prefix that
    # may survive untouched, remapped — triples moved to a new
    # representative), reason.eq.expand spans are query-time class-map
    # expansions (args: rows_in — representative-space solutions, rows_out
    # — expanded answer rows).  The rows_out/rows_in ratio is the
    # amplification the smaller store pays back at answer time.
    rewrites = [e for e in spans if e["name"] == "reason.eq.rewrite"]
    expands = [e for e in spans if e["name"] == "reason.eq.expand"]
    if not rewrites and not expands:
        return
    table = Table(["phase", "count", "total", "mean", "detail"])
    if rewrites:
        total = sum(e.get("dur", 0) for e in rewrites)
        remapped = sum(e.get("args", {}).get("remapped", 0)
                       for e in rewrites)
        table.add(["rewrite (store rebuild)", len(rewrites), fmt_us(total),
                   fmt_us(total / len(rewrites)),
                   f"{remapped} triples remapped"])
    if expands:
        total = sum(e.get("dur", 0) for e in expands)
        rows_in = sum(e.get("args", {}).get("rows_in", 0) for e in expands)
        rows_out = sum(e.get("args", {}).get("rows_out", 0) for e in expands)
        amp = rows_out / rows_in if rows_in else 0.0
        table.add(["expand (query answers)", len(expands), fmt_us(total),
                   fmt_us(total / len(expands)),
                   f"{rows_in} rows in, {rows_out} out ({amp:.2f}x)"])
    print("== equality-rewrite breakdown ==")
    table.print(markdown)


def dist_breakdown(spans, names, markdown):
    # Distributed serving tier: the router's per-request phases
    # (dist.route footprint computation, dist.fanout scatter/gather,
    # dist.merge gathered-store build + evaluation, and dist.gather, the
    # store build inside it) land on the "dist router" track; each
    # replica's scan service time (dist.scan) lands on its own
    # "dist replica p<P>/r<R>" track, so rows double as the per-partition
    # fan-out breakdown.
    stages = ["dist.route", "dist.fanout", "dist.merge", "dist.gather",
              "dist.scan"]
    per_track = collections.defaultdict(
        lambda: collections.defaultdict(float))
    scan_counts = collections.defaultdict(int)
    for e in spans:
        if e["name"] in stages:
            per_track[e["tid"]][e["name"]] += e["dur"]
            if e["name"] == "dist.scan":
                scan_counts[e["tid"]] += 1
    if not per_track:
        return
    table = Table(["track"] + [s.split(".", 1)[1] for s in stages]
                  + ["scans"])
    for tid in sorted(per_track):
        durs = per_track[tid]
        table.add([worker_label(tid, names)]
                  + [fmt_us(durs.get(s, 0.0)) for s in stages]
                  + [scan_counts.get(tid, 0)])
    print("== distributed serving fan-out/merge breakdown ==")
    table.print(markdown)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON written by --trace-out")
    parser.add_argument("--category", help="only spans whose cat matches")
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavored markdown tables")
    args = parser.parse_args()

    spans, names = load_events(args.trace)
    if args.category:
        spans = [e for e in spans if e.get("cat") == args.category]
    if not spans:
        print("no spans in trace", file=sys.stderr)
        return 1
    category_totals(spans, args.markdown)
    round_skew(spans, names, args.markdown)
    comm_breakdown(spans, names, args.markdown)
    async_breakdown(spans, names, args.markdown)
    eq_breakdown(spans, args.markdown)
    dist_breakdown(spans, names, args.markdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
