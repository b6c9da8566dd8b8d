#pragma once

#include <vector>

#include "parowl/partition/partitioner.hpp"

namespace parowl::partition {

/// Multilevel recursive-bisection implementation of the Partitioner
/// interface: heavy-edge-matching coarsening, greedy BFS-grown initial
/// bisection, and FM refinement projected back up the hierarchy — the same
/// algorithm family as Metis, which the paper uses for its graph
/// partitioning policy.
///
/// Unlike the streaming partitioners this one needs the whole graph:
/// ingest() buffers the triples and finalize() builds the resource graph,
/// so state is O(|V| + |E|).  It is the quality baseline the streaming
/// heuristics are scored against.
class MultilevelPartitioner final : public Partitioner {
 public:
  MultilevelPartitioner(const PartitionerOptions& options,
                        const rdf::Dictionary& dict,
                        std::uint32_t num_partitions,
                        const ExcludedTerms* exclude = nullptr)
      : options_(options),
        dict_(&dict),
        exclude_(exclude),
        k_(num_partitions) {}

  void ingest(std::span<const rdf::Triple> chunk) override;
  [[nodiscard]] PartitionPlan finalize() override;
  [[nodiscard]] std::string name() const override { return "Multilevel"; }

 private:
  PartitionerOptions options_;
  const rdf::Dictionary* dict_;
  const ExcludedTerms* exclude_;
  std::uint32_t k_;
  std::vector<rdf::Triple> buffer_;
};

/// CSR entry point for the multilevel kind (partition_csr_graph dispatches
/// here): recursive bisection into k parts.
[[nodiscard]] PartitionPlan multilevel_csr_plan(
    const Graph& graph, int k, const PartitionerOptions& options = {});

}  // namespace parowl::partition
