// Distributed serving tail-latency sweep: p50/p99 vs partition count and
// replica count under the open-loop workload driver.
//
// BM_DistServe/k/R builds a DistService over the materialized LUBM-1
// closure (hash owner policy, MemoryTransport, result cache off so every
// request exercises the scatter/gather path) and offers a fixed-rate open
// loop of the 14-query LUBM mix.  BM_SingleStoreServe is the serve-layer
// baseline under the identical workload.  Counters report the
// client-observed p50/p99 in microseconds plus per-run routing totals.
//
// Fan-out is not parallel: the front end runs two executor threads, so
// two requests proceed at once on a multi-core host, but one request's
// scans run one after another on its executor thread over the in-memory
// transport.  Added partitions/replicas therefore cost fan-out work
// without buying parallel scan time; compare rows for the *shape* (tail
// vs fan-out width, failover overhead), not absolute speedups.  See
// EXPERIMENTS.md "Distributed serving".

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "parowl/serve/workload.hpp"

namespace {

using namespace parowl;

/// Materialized LUBM-1 closure, built once per process.
struct Universe {
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab;
  rdf::TripleStore store;
  std::vector<std::string> queries;

  Universe() : vocab(std::make_unique<ontology::Vocabulary>(dict)) {
    gen::LubmOptions o;
    o.universities = 1;
    gen::generate_lubm(o, dict, store);
    reason::materialize(store, dict, *vocab, {});
    for (const gen::LubmQuery& q : gen::lubm_queries()) {
      queries.push_back(q.sparql);
    }
  }
};

Universe& universe() {
  static Universe u;
  return u;
}

serve::WorkloadOptions open_loop(std::size_t requests) {
  serve::WorkloadOptions wo;
  wo.mode = serve::WorkloadMode::kOpenLoop;
  wo.total_requests = requests;
  wo.arrival_rate_qps = 2000.0;
  wo.seed = 42;
  return wo;
}

void report(benchmark::State& state, const serve::WorkloadReport& r) {
  state.counters["p50_us"] = r.latency.percentile_seconds(0.50) * 1e6;
  state.counters["p99_us"] = r.latency.percentile_seconds(0.99) * 1e6;
  state.counters["qps"] = r.throughput_qps();
  state.counters["completed"] = static_cast<double>(r.completed);
  state.counters["shed"] = static_cast<double>(r.shed);
}

void BM_DistServe(benchmark::State& state) {
  Universe& u = universe();
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto replicas = static_cast<std::uint32_t>(state.range(1));

  const partition::HashOwnerPolicy policy;
  partition::OwnerTable owners =
      partition::partition_data(u.store, u.dict, *u.vocab, policy, k).owners;

  parallel::MemoryTransport transport(
      dist::NodeLayout{k, replicas}.num_nodes());
  dist::DistOptions options;
  options.threads = 2;
  options.queue_capacity = 512;
  options.cache_enabled = false;  // measure the scatter/gather path
  options.replicas = replicas;
  dist::DistService service(u.dict, u.store, std::move(owners), k,
                            transport, options);

  serve::WorkloadReport r;
  for (auto _ : state) {
    r = serve::run_workload(service, u.queries, open_loop(200));
  }
  report(state, r);
  const dist::DistStats stats = service.stats();
  state.counters["scans_per_req"] =
      stats.completed > 0 ? static_cast<double>(stats.scans_sent) /
                                static_cast<double>(stats.completed)
                          : 0.0;
  state.counters["shard_bytes"] =
      static_cast<double>(stats.shard_bytes_shipped);
}

void BM_SingleStoreServe(benchmark::State& state) {
  Universe& u = universe();
  rdf::TripleStore copy = u.store;
  serve::ServiceOptions options;
  options.threads = 2;
  options.queue_capacity = 512;
  options.cache_enabled = false;
  serve::QueryService service(u.dict, *u.vocab, std::move(copy), options);

  serve::WorkloadReport r;
  for (auto _ : state) {
    r = serve::run_workload(service, u.queries, open_loop(200));
  }
  report(state, r);
}

}  // namespace

BENCHMARK(BM_SingleStoreServe)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DistServe)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2}})
    ->Unit(benchmark::kMillisecond);
