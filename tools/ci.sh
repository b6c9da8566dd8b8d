#!/usr/bin/env bash
# The commit gate: configure, build, run the tier1 test label (fast,
# deterministic), then ASan, UBSan and TSan passes over test subsets.
#
#   tools/ci.sh           # tier1 + asan, ubsan and tsan subsets
#   tools/ci.sh --full    # adds tier2 (stress/property/fault sweeps)
#   tools/ci.sh --compare # adds the benchmark compare stage (opt-in, slow)
#
# The compare stage runs `python3 perfbench/run.py` (every workload) ten
# times (seeds 1..10) on a git archive of HEAD~1 and on this tree, the side
# that goes first alternating from seed to seed, then applies
# BENCHMARK.json's end-to-end bounds to the medians with
# tools/bench_compare.py; a breach fails the gate.  Both sides build and
# keep their results in a fresh temporary directory, which the stage
# prints: a change that claims a gain checks it by running
# `tools/bench_compare.py --parent <dir>/parent_*.json --change
# <dir>/change_*.json --claim <workload>.<metric>` on those results.
#
# Tier labels are assigned in tests/CMakeLists.txt via parowl_add_test:
# tier1 is every fast deterministic suite, tier2 the slower sweeps.  The
# ASan subset covers the transport/worker/cluster/fault layers plus the
# ingest pipeline, triple codec, partitioner suite (streaming state
# machines), the serving front end both tiers share (admission, shedding,
# deadlines), incremental maintenance (in-place erasure), and the forward
# engine's clique operator, BGP queries over the shared rule-body join,
# plus the mutated-input robustness suite
# (N-Triples, Turtle, SPARQL, rule and snapshot parsers) — the places where
# serialization, parsing and concurrency bugs would live.  The UBSan subset
# (-fno-sanitize-recover=all, so any undefined behaviour fails the test)
# runs the mutated-input suite, the codec and ingest paths, the
# transport/worker/fault/cluster layers that decode envelopes and
# checkpoints, and the rule matcher (rules/match.hpp) with its callers: the
# forward engine, maintenance, queries and the explainer, whose joins shift
# `1u << n` masks.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
full=0
compare=0
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    --compare) compare=1 ;;
    *) echo "usage: tools/ci.sh [--full] [--compare]" >&2; exit 2 ;;
  esac
done

echo "=== configure ==="
cmake --preset default

echo "=== build ==="
cmake --build --preset default -j "$jobs"

echo "=== tier1 tests ==="
ctest --preset default -j "$jobs" -L tier1

if [ "$full" = 1 ]; then
  echo "=== tier2 tests ==="
  ctest --preset default -j "$jobs" -L tier2
fi

echo "=== asan subset (transport/worker/cluster/fault/async/ingest/codec/serve front end/dist/incremental/sameas/partition/clique/BGP queries/mutated parser, snapshot + shard input) ==="
cmake --preset asan
cmake --build --preset asan -j "$jobs" \
  --target transport_test worker_test cluster_test fault_injection_test \
  async_test async_equivalence_test codec_test ingest_equivalence_test \
  serve_test dist_test incremental_test incremental_equivalence_test \
  sameas_equivalence_test sameas_serve_test graph_partition_test clique_test \
  parser_robustness_test query_test
ctest --preset asan -j "$jobs" -R 'Transport|Worker|Cluster|Fault|Async|Ingest|Codec|Varint|Zigzag|TripleBlock|TermTable|QueryService|QueryTest|Dist|Incremental|SameAs|Partition|Streaming|Clique|Parser|SnapshotRobustness|ShardCatalogRobustness'

echo "=== ubsan subset (mutated parser, snapshot + shard input, codec, ingest, transport, worker, fault sweep, cluster, dist scatter/gather, the rule matcher and its callers) ==="
cmake --preset ubsan
cmake --build --preset ubsan -j "$jobs" \
  --target parser_robustness_test codec_test ingest_equivalence_test \
  transport_test worker_test fault_injection_test cluster_test \
  rules_test forward_test engine_equivalence_test incremental_test \
  query_test explain_test lubm_queries_test dist_test
ctest --preset ubsan -j "$jobs" -R 'Parser|SnapshotRobustness|ShardCatalogRobustness|Dist|TermTable|TripleBlock|Varint|Zigzag|Ingest|AtomMatchesTuple|Transport|OwnerRouter|RuleMatchRouter|Worker|Fault|RoundFlavour|Cluster|ForwardTest|EngineEquivalence|IncrementalMaintain|IncrementalServe|QueryTest|ExplainTest|LubmQueries|BindAtom|ToPattern|Compiler|HorstRules|DispatchIndex'

echo "=== tsan subset (obs, dist executor + replica RCU, async steal/token, incremental serve loop + serve oracles, QueryService readers vs the copy-on-write updater, equality rewrite, reader->partitioner chunk sink, parallel ingest merge + bulk insert, engine round barrier, clique operator, async-threaded executor on UOBM, cluster load + end-of-run aggregation team, threaded round driver under the fault sweep, transports + the worker's shared envelope path) ==="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target obs_test dist_test async_test \
  incremental_test incremental_equivalence_test sameas_equivalence_test \
  sameas_serve_test serve_test \
  graph_partition_test ingest_equivalence_test engine_equivalence_test \
  rdf_test util_test clique_test async_equivalence_test cluster_test \
  fault_injection_test transport_test worker_test
ctest --preset tsan -j "$jobs" -R 'Obs|Dist|Async|IncrementalServe|IncrementalEquivalence|SameAs|QueryService|StreamingPartitioner|Ingest|EngineEquivalence|TripleStore|Dictionary|ThreadTeam|Clique|Cluster|Fault|Transport|Worker'

if [ "$compare" = 1 ]; then
  dir=$(mktemp -d)
  echo "=== compare against HEAD~1 (10 runs each, in $dir) ==="
  mkdir -p "$dir/parent"
  git archive HEAD~1 | tar -x -C "$dir/parent"
  run_parent() {
    (cd "$dir/parent" && CARGO_TARGET_DIR="$dir/parent_build" \
      python3 perfbench/run.py --seed "$1") > "$dir/parent_$1.json"
  }
  run_change() {
    CARGO_TARGET_DIR="$dir/change_build" \
      python3 perfbench/run.py --seed "$1" > "$dir/change_$1.json"
  }
  parent_runs=()
  change_runs=()
  for seed in $(seq 1 10); do
    # Alternate which side runs first, so drift on the host does not
    # favour one side in every pair.
    if [ $((seed % 2)) = 1 ]; then
      run_parent "$seed"
      run_change "$seed"
    else
      run_change "$seed"
      run_parent "$seed"
    fi
    parent_runs+=("$dir/parent_$seed.json")
    change_runs+=("$dir/change_$seed.json")
  done
  python3 tools/bench_compare.py --parent "${parent_runs[@]}" \
    --change "${change_runs[@]}"
fi

echo "=== ci green ==="
