#!/usr/bin/env bash
# Build the test suite under ASan, UBSan, and TSan and run it under each.
# Usage: tools/run_sanitizers.sh [asan|ubsan|tsan ...]   (default: all three)
#
# Uses the `asan`/`ubsan`/`tsan` presets from CMakePresets.json; build trees
# land in build-asan/, build-ubsan/, and build-tsan/ next to the default
# build/.  The TSan pass runs only the concurrency-sensitive tests (the
# threaded forward engine, the serving/parallel layers): TSan slows
# execution ~10x and the remaining tests are single-threaded.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
presets=("${@:-asan ubsan tsan}")
# Word-split the default so `run_sanitizers.sh` runs all of them.
read -r -a presets <<<"${presets[*]}"

tsan_filter='Forward|EngineEquivalence|Serve|Worker|Cluster|Async|Parallel|Updater|Snapshot|Fault|Ingest|Obs|Dist|Incremental|SameAs|TripleStore|Dictionary|ThreadTeam|Clique'

for preset in "${presets[@]}"; do
  case "$preset" in
    asan|ubsan|tsan) ;;
    *) echo "unknown preset '$preset' (want asan, ubsan, or tsan)" >&2; exit 2 ;;
  esac
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] test ==="
  if [ "$preset" = tsan ]; then
    ctest --preset "$preset" -j "$jobs" -R "$tsan_filter"
  else
    ctest --preset "$preset" -j "$jobs"
  fi
done

echo "=== sanitizers clean: ${presets[*]} ==="
