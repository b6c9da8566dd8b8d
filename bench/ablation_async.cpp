// Ablation / paper-extension bench: synchronous rounds vs the asynchronous
// execution the paper proposes in §VI-B ("by making a partition not wait
// till all other partitions finish, but rather start immediately using all
// the currently received tuples will reduce the synchronization time").
//
// BM_ClusterExec/mode/k materializes the LUBM closure under one executor
// and partition count; every iteration is a full run, and the counters
// report the measured wall-clock p50/p99 across iterations plus the
// executor's own accounting (modeled makespan, barrier-wait or idle time,
// steals).  tools/record_bench.sh captures the sweep as
// bench/BENCH_async.json.
//
// Only kAsyncThreaded runs its workers on threads of their own; the other
// rows step every worker on the calling thread, so their wall-clock
// compares *executor overhead* (barrier bookkeeping vs token ring + steal
// machinery), while the modeled makespan/idle columns carry the parallel
// story — async removes barrier waits, most visibly where partitions are
// imbalanced.  See EXPERIMENTS.md "Asynchronous execution".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "parowl/util/timer.hpp"

namespace {

using namespace parowl;
using namespace parowl::bench;

enum Mode : std::int64_t {
  kSync = 0,
  kAsync = 1,
  kAsyncNoSteal = 2,
  kAsyncThreaded = 3,
};

Universe& lubm_universe() {
  static Universe* u = [] {
    auto* fresh = new Universe();
    make_lubm(*fresh, 10 * scale_factor());
    return fresh;
  }();
  return *u;
}

// Dense cross-university links: many rounds, imbalanced exchanges — the
// workload where §VI-B predicts the barrier hurts most.
Universe& uobm_universe() {
  static Universe* u = [] {
    auto* fresh = new Universe();
    make_uobm(*fresh, 4 * scale_factor());
    return fresh;
  }();
  return *u;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

void run_cluster_exec(benchmark::State& state, Universe& u) {
  const auto mode = static_cast<Mode>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const partition::GraphOwnerPolicy policy;

  parallel::ParallelOptions opts;
  opts.partitions = k;
  opts.policy = &policy;
  opts.build_merged = false;
  switch (mode) {
    case kSync:
      opts.mode = parallel::ExecutionMode::kSequentialSimulated;
      break;
    case kAsync:
      opts.mode = parallel::ExecutionMode::kAsync;
      break;
    case kAsyncNoSteal:
      opts.mode = parallel::ExecutionMode::kAsync;
      opts.async.steal = false;
      break;
    case kAsyncThreaded:
      opts.mode = parallel::ExecutionMode::kAsyncThreaded;
      break;
  }

  std::vector<double> wall;
  parallel::ParallelResult last;
  for (auto _ : state) {
    util::Stopwatch watch;
    last = parallel::parallel_materialize(u.store, u.dict, *u.vocab, opts);
    wall.push_back(watch.elapsed_seconds());
    benchmark::DoNotOptimize(last.inferred);
  }

  state.counters["wall_p50_ms"] = percentile(wall, 0.50) * 1e3;
  state.counters["wall_p99_ms"] = percentile(wall, 0.99) * 1e3;
  state.counters["model_s"] = last.cluster.simulated_seconds;
  // Worst-case worker wait: barrier-gap envelope (sync) / the most idle
  // worker's total (async) — the §VI-B quantity in both modes.
  state.counters["wait_s"] = last.cluster.sync_seconds;
  state.counters["idle_total_s"] = last.cluster.async_stats.idle_seconds;
  state.counters["steals"] =
      static_cast<double>(last.cluster.async_stats.steals);
  state.counters["inferred"] = static_cast<double>(last.inferred);
}

void BM_ClusterExec(benchmark::State& state) {
  run_cluster_exec(state, lubm_universe());
}

void BM_ClusterExecUobm(benchmark::State& state) {
  run_cluster_exec(state, uobm_universe());
}

}  // namespace

BENCHMARK(BM_ClusterExec)
    ->ArgsProduct({{kSync, kAsync, kAsyncNoSteal, kAsyncThreaded}, {2, 4, 8}})
    ->Iterations(7)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ClusterExecUobm)
    ->ArgsProduct({{kSync, kAsync}, {4, 8}})
    ->Iterations(7)
    ->Unit(benchmark::kMillisecond);
