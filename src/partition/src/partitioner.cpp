#include "parowl/partition/partitioner.hpp"

#include "parowl/partition/multilevel.hpp"
#include "parowl/partition/streaming.hpp"

namespace parowl::partition {

std::unique_ptr<Partitioner> make_partitioner(
    const PartitionerOptions& options, const rdf::Dictionary& dict,
    std::uint32_t num_partitions, const ExcludedTerms* exclude) {
  if (options.kind == PartitionerKind::kMultilevel) {
    return std::make_unique<MultilevelPartitioner>(options, dict,
                                                   num_partitions, exclude);
  }
  return make_streaming_partitioner(options, dict, num_partitions, exclude);
}

PartitionPlan partition_csr_graph(const Graph& graph, int k,
                                  const PartitionerOptions& options) {
  if (options.kind == PartitionerKind::kMultilevel) {
    return multilevel_csr_plan(graph, k, options);
  }
  return streaming_csr_plan(graph, k, options);
}

std::optional<PartitionerKind> partitioner_kind_from(std::string_view name) {
  if (name == "multilevel" || name == "graph") {
    return PartitionerKind::kMultilevel;
  }
  if (name == "hdrf") {
    return PartitionerKind::kHdrf;
  }
  if (name == "ne") {
    return PartitionerKind::kNe;
  }
  return std::nullopt;
}

std::string_view to_string(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kMultilevel:
      return "multilevel";
    case PartitionerKind::kHdrf:
      return "hdrf";
    case PartitionerKind::kNe:
      return "ne";
  }
  return "unknown";
}

}  // namespace parowl::partition
