#!/usr/bin/env bash
# Regenerate the checked-in google-benchmark baselines:
#   bench/BENCH_reason.json — forward-engine closure over 1/2/4/8 matching
#     threads, LUBM-1 and MDC-2.
#   bench/BENCH_ingest.json — parallel-ingest thread sweep (N-Triples and
#     Turtle), serial-parse baseline, codec encode/decode throughput and
#     bytes-per-triple, snapshot save/load.
#   bench/BENCH_serving.json — distributed serving tail-latency sweep
#     (p50/p99 vs partition count × replica count under the open-loop
#     driver, plus the single-store serve baseline).
#   bench/BENCH_async.json — executor ablation (sync rounds vs the
#     asynchronous token-ring executor, steal on/off, threaded) with
#     measured wall-clock p50/p99 per configuration.
#   bench/BENCH_incremental.json — incremental maintenance sweep: mixed
#     add+delete batches through DRed vs additions-only incremental
#     closure vs full re-materialization, batch sizes {1, 10, 100}
#     students.
#   bench/BENCH_sameas.json — equality-rewriting sweep on the clique-heavy
#     generator: naive sameAs closure vs representative rewriting × clique
#     density {3, 6, 10} × threads {1, 4}, plus query-time class-map
#     expansion vs naive BGP evaluation.
#   bench/BENCH_partition.json — Fig. 5 partitioner comparison: the five
#     owner policies (0 multilevel graph, 1 domain, 2 hash, 3 HDRF, 4 NE)
#     × 2/4/8/16 partitions with speedup/IR/OR/RF/cut counters.
# Usage: tools/record_bench.sh [extra benchmark args...]
#
# The baselines answer "did this PR make a hot path slower?" — compare a
# fresh run against the checked-in files with benchmark/tools/compare.py
# or by eye.  Absolute times are machine-bound; the meaningful columns are
# the ratios between sweep points.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
cmake --preset default
cmake --build --preset default -j "$jobs" --target micro_reason \
  extension_ingest extension_distributed_serving ablation_async \
  extension_incremental extension_sameas fig5_partitioner_comparison

build/bench/micro_reason \
  --benchmark_filter='BM_Closure' \
  --benchmark_out=bench/BENCH_reason.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_reason.json"

build/bench/extension_ingest \
  --benchmark_out=bench/BENCH_ingest.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_ingest.json"

build/bench/extension_distributed_serving \
  --benchmark_out=bench/BENCH_serving.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_serving.json"

build/bench/ablation_async \
  --benchmark_out=bench/BENCH_async.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_async.json"

build/bench/extension_incremental \
  --benchmark_out=bench/BENCH_incremental.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_incremental.json"

build/bench/extension_sameas \
  --benchmark_out=bench/BENCH_sameas.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_sameas.json"

build/bench/fig5_partitioner_comparison \
  --benchmark_out=bench/BENCH_partition.json \
  --benchmark_out_format=json \
  "$@"

echo "wrote bench/BENCH_partition.json"
