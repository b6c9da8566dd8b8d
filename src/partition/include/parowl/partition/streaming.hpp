#pragma once

#include <memory>

#include "parowl/partition/partitioner.hpp"

namespace parowl::partition {

/// Construct a streaming partitioner (kHdrf / kNe — kMultilevel is
/// rejected; use make_partitioner for the dispatching factory).  The
/// streaming implementations keep O(|V| + k + window) state: a dense node
/// table (owner, partial degree, replica bitmask), per-partition load
/// counters, a k x k inter-partition edge matrix, and one re-windowing
/// buffer — never the edge set.  Replica sets are 64-bit masks, so k is at
/// most 64.
[[nodiscard]] std::unique_ptr<Partitioner> make_streaming_partitioner(
    const PartitionerOptions& options, const rdf::Dictionary& dict,
    std::uint32_t num_partitions, const ExcludedTerms* exclude = nullptr);

/// Partition an already-materialized CSR graph by replaying its adjacency
/// as a synthetic edge stream (each merged undirected edge once, in vertex
/// order).  Metrics are recomputed exactly against the graph.
[[nodiscard]] PartitionPlan streaming_csr_plan(
    const Graph& graph, int k, const PartitionerOptions& options);

}  // namespace parowl::partition
