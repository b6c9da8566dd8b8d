#!/usr/bin/env python3
"""End-to-end benchmark for parowl: one command, four workloads.

    python3 perfbench/run.py --workload lubm-build --seed 1 --trace 0
    python3 perfbench/run.py              # every workload, one result

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs reuse it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
Without --workload the object sums attempted and failed over the workloads
and names each metric <workload>.<metric>.  The exit status is 0 exactly
when correct is true.  A traced run also prints the layer table: self time
per module, read from the spans of that run (see README.md for how it is
computed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["lubm-build", "uobm-cluster", "lubm-serve-rw", "lubm-serve-dist"]
MODULES = ["rdf", "reason", "partition", "parallel", "query", "serve", "dist"]
# In-program spans that belong to a module under another name: the
# maintainer is part of reason, and serve.eval is the query evaluation the
# service runs on a cache miss.
SPAN_MODULE = {"maintain": "reason", "serve.eval": "query"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# The end-to-end figures, printed by name for the workloads that have them.
E2E = ["op_wall_s", "build_s", "cluster_s", "read_p50_s", "read_p99_s",
       "read_qps", "update_p50_s", "update_p90_s", "setup_s", "setup_wall_s",
       "cpu_per_op_s", "peak_rss_mb"]


def log(*parts):
    print(*parts, flush=True)


def err(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure (once) and build the benchmark; return its path or None."""
    cache = out / "CMakeCache.txt"
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4",
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            err("perfbench: build timed out")
            return None
        if proc.returncode != 0:
            err(proc.stdout[-4000:])
            err("perfbench: build failed:", " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Layer table from a Chrome trace.

def module_of(name):
    if name in SPAN_MODULE:
        return SPAN_MODULE[name]
    prefix = name.split(".", 1)[0]
    prefix = SPAN_MODULE.get(prefix, prefix)
    return prefix if prefix in MODULES else "bench"


def self_times(events, lo, hi):
    """Self time (us) per module for spans of one track inside [lo, hi].

    A span's self time is its duration minus the part of it that its child
    spans cover; spans on one track nest (RAII), and any overlap that does
    not nest is clipped to the parent.
    """
    spans = []
    for e in events:
        start = max(e["ts"], lo)
        end = min(e["ts"] + e["dur"], hi)
        if end > start:
            spans.append([start, end, e["name"], end - start])
    spans.sort(key=lambda s: (s[0], -s[1]))
    stack = []
    for s in spans:
        while stack and stack[-1][1] <= s[0]:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent[3] -= min(s[1], parent[1]) - s[0]
        stack.append(s)
    out = {}
    for s in spans:
        m = module_of(s[2])
        out[m] = out.get(m, 0) + max(s[3], 0)
    return out


def layer_tables(trace_path):
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    timed = [e for e in events if e["name"] == "bench.timed"]
    if len(timed) != 1:
        raise RuntimeError("trace has %d bench.timed spans" % len(timed))
    main_tid = timed[0]["tid"]
    lo = timed[0]["ts"]
    hi = lo + timed[0]["dur"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    main = self_times(by_tid[main_tid], lo, hi)
    busy = {}
    for tid, evs in by_tid.items():
        for m, us in self_times(evs, lo, hi).items():
            busy[m] = busy.get(m, 0) + us
    return (hi - lo) / 1e6, main, busy, len(by_tid)


def print_layer_table(wall, main, busy, tracks):
    log("  layer table (self time; main = the driving thread, busy = all %d "
        "tracks; shares of the traced wall %.6f s)" % (tracks, wall))
    log("    %-10s %12s %8s %14s"
        % ("module", "main s", "share", "busy thread-s"))
    row = "    %-10s %12.6f %7.1f%% %14.6f"
    for m in MODULES:
        s = main.get(m, 0) / 1e6
        log(row % (m, s, 100 * s / wall, busy.get(m, 0) / 1e6))
    total = sum(main.get(m, 0) for m in MODULES) / 1e6
    log("    %-10s %12.6f %7.1f%%" % ("sum", total, 100 * total / wall))
    bench = main.get("bench", 0) / 1e6
    log(row % ("(no module)", bench, 100 * bench / wall,
               busy.get("bench", 0) / 1e6))


# --------------------------------------------------------------------------

def run_workload(binary, spec, workload, seed, seconds, trace):
    work = binary.parent / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    trace_out = work / "trace.json"
    if trace_out.exists():
        trace_out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work), "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err("perfbench: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err("perfbench: %s failed (exit %d)" % (workload, proc.returncode))
        return None
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]

    log("%s (seed %d, %gs, trace %d): attempted %d, failed %d, "
        "error_rate %.6f%s"
        % (workload, seed, seconds, trace, raw["attempted"], raw["failed"],
           raw["failed"] / max(raw["attempted"], 1),
           "" if raw["valid"] else ", INVALID"))
    for problem in raw["problems"]:
        log("  problem:", problem)
    samples = metrics["bench.samples"]["value"]
    serving = "read_p50_s" in metrics
    for name in E2E:
        if name not in metrics:
            continue
        m = metrics[name]
        note = ""
        if name == "op_wall_s":
            note = "  (host stolen share %.1f%%)" % (
                100 * metrics["host.stolen_share"]["value"])
        elif name.startswith("read_p"):
            note = "  (%d open-loop samples)" % samples
        elif name.startswith("update_p"):
            note = "  (%d updates)" % metrics["update_samples"]["value"]
        elif name == "cpu_per_op_s" and serving:
            note = "  (open-loop phase CPU / %d reads)" % samples
        elif name in ("cpu_per_op_s", "build_s", "cluster_s"):
            note = "  (median of %d runs)" % samples
        log("  %-14s %14.6f %s%s" % (name, m["value"], m["unit"], note))

    if trace:
        wall, main, busy, tracks = layer_tables(trace_out)
        print_layer_table(wall, main, busy, tracks)
        for m in MODULES + ["bench"]:
            metrics["layer.%s_s" % m] = {"value": main.get(m, 0) / 1e6,
                                        "unit": "s"}
            metrics["busy.%s_s" % m] = {"value": busy.get(m, 0) / 1e6,
                                       "unit": "s"}
        # Module rows only: time on the driving thread in no module span
        # is reported apart, so a run the modules do not explain shows.
        measured = metrics["trace.wall_s"]["value"]
        ratio = sum(main.get(m, 0) for m in MODULES) / 1e6 / measured
        bench_share = main.get("bench", 0) / 1e6 / measured
        metrics["trace.layer_sum_ratio"] = {"value": ratio, "unit": "ratio"}
        metrics["trace.bench_share"] = {"value": bench_share, "unit": "ratio"}
        log("  module rows sum to %.1f%% of the measured traced wall "
            "%.6f s (%.1f%% in no module); tracing overhead %+.6f s"
            % (100 * ratio, measured, 100 * bench_share,
               metrics["trace.overhead_s"]["value"]))

    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": m["unit"]}
        elif trace:
            # A layer this workload does not run.
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            err("perfbench: %s did not report %s" % (workload, name))
            return None
    return {"correct": bool(raw["valid"]) and raw["failed"] == 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").exists():
        err("perfbench: run from a parowl checkout (src/ and BENCHMARK.json)")
        return 1
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build(build_dir())
    if binary is None:
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        result = run_workload(binary, spec, workload, args.seed, seconds,
                              args.trace)
        if result is None:
            return 1
        results[workload] = result
        for name, m in result["metrics"].items():
            log("    %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s.%s" % (w, name): m
                           for w, r in results.items()
                           for name, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
