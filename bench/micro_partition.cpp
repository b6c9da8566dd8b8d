// Micro-benchmarks for the graph partitioners (multilevel + streaming) and
// the owner policies.

#include <benchmark/benchmark.h>

#include "parowl/gen/lubm.hpp"
#include "parowl/ontology/ontology.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/partition/streaming.hpp"
#include "parowl/util/rng.hpp"

namespace {

using namespace parowl;

partition::Graph random_graph(std::uint32_t n, int degree,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<partition::WeightedEdge> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int d = 0; d < degree; ++d) {
      edges.push_back({i, static_cast<std::uint32_t>(rng.below(n)), 1});
    }
  }
  return partition::build_graph(n, edges);
}

void BM_MultilevelPartition(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const partition::Graph g = random_graph(n, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition_csr_graph(g, 8));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MultilevelPartition)->Arg(10000)->Arg(50000);

void BM_StreamingPartition(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto kind = static_cast<partition::PartitionerKind>(state.range(1));
  const partition::Graph g = random_graph(n, 3, 7);
  partition::PartitionerOptions opts;
  opts.kind = kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition_csr_graph(g, 8, opts));
  }
  state.SetLabel(std::string(partition::to_string(kind)));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StreamingPartition)
    ->Args({50000, static_cast<int>(partition::PartitionerKind::kHdrf)})
    ->Args({50000, static_cast<int>(partition::PartitionerKind::kNe)});

void BM_DataPartitionPolicies(benchmark::State& state) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 4;
  gen::generate_lubm(opts, dict, store);

  partition::PartitionerOptions hdrf_opts;
  hdrf_opts.kind = partition::PartitionerKind::kHdrf;
  const int which = static_cast<int>(state.range(0));
  const partition::GraphOwnerPolicy graph_policy;
  const partition::HashOwnerPolicy hash_policy;
  const partition::DomainOwnerPolicy domain_policy(
      &partition::lubm_university_key);
  const partition::StreamingOwnerPolicy hdrf_policy(hdrf_opts);
  const partition::OwnerPolicy* policy =
      which == 0 ? static_cast<const partition::OwnerPolicy*>(&graph_policy)
      : which == 1
          ? static_cast<const partition::OwnerPolicy*>(&hash_policy)
      : which == 2
          ? static_cast<const partition::OwnerPolicy*>(&domain_policy)
          : static_cast<const partition::OwnerPolicy*>(&hdrf_policy);

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::partition_data(store, dict, vocab, *policy, 8));
  }
  state.SetLabel(policy->name());
}
BENCHMARK(BM_DataPartitionPolicies)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
