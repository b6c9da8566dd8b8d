#!/usr/bin/env bash
# The commit gate: configure, build, run the tier1 test label (fast,
# deterministic), then an ASan pass over the fault-tolerance surface.
#
#   tools/ci.sh           # tier1 + asan subset
#   tools/ci.sh --full    # adds tier2 (stress/property/fault sweeps)
#
# Tier labels are assigned in tests/CMakeLists.txt via parowl_add_test:
# tier1 is every fast deterministic suite, tier2 the slower sweeps.  The
# ASan subset covers the transport/worker/cluster/fault layers plus the
# ingest pipeline, triple codec, partitioner suite (streaming state
# machines), incremental maintenance (in-place erasure), and the forward
# engine's clique operator — the places where serialization and
# concurrency bugs would live.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
full=0
[ "${1:-}" = "--full" ] && full=1

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

echo "=== asan subset (transport/worker/cluster/fault/async/ingest/codec/dist/incremental/sameas/partition/clique) ==="
cmake --preset asan
cmake --build --preset asan -j "$jobs" \
  --target transport_test worker_test cluster_test fault_injection_test \
  async_test async_equivalence_test codec_test ingest_equivalence_test \
  dist_test incremental_test incremental_equivalence_test \
  sameas_equivalence_test sameas_serve_test graph_partition_test clique_test
ctest --preset asan -j "$jobs" -R 'Transport|Worker|Cluster|Fault|Async|Ingest|Codec|Varint|Zigzag|TripleBlock|TermTable|Dist|Incremental|SameAs|Partition|Streaming|Clique'

echo "=== tsan subset (obs, dist executor + replica RCU, async steal/token, incremental serve loop + serve oracles, QueryService readers vs the copy-on-write updater, equality rewrite, reader->partitioner chunk sink, parallel ingest merge + bulk insert, engine round barrier, clique operator, async-threaded executor on UOBM, cluster load + end-of-run aggregation team, threaded round driver under the fault sweep, transports + the worker's shared envelope path) ==="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target obs_test dist_test async_test \
  incremental_test incremental_equivalence_test sameas_equivalence_test \
  sameas_serve_test serve_test \
  graph_partition_test ingest_equivalence_test engine_equivalence_test \
  rdf_test util_test clique_test async_equivalence_test cluster_test \
  fault_injection_test transport_test worker_test
ctest --preset tsan -j "$jobs" -R 'Obs|Dist|Async|IncrementalServe|IncrementalEquivalence|SameAs|QueryService|StreamingPartitioner|Ingest|EngineEquivalence|TripleStore|Dictionary|ThreadTeam|Clique|Cluster|Fault|Transport|Worker'

echo "=== ci green ==="
