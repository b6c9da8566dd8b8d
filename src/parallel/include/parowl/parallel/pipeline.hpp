#pragma once

#include <optional>

#include "parowl/parallel/cluster.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/partition/metrics.hpp"
#include "parowl/partition/rule_partition.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {

/// Which partitioning approach to use.
enum class Approach {
  kDataPartition,  // §III-A: split the data, replicate the rule-base
  kRulePartition,  // §III-B: split the rule-base, replicate the data
  /// Hybrid partitioning ([18]; the paper lists it as future work in
  /// §VII): both the data AND the rule-base are split.  Worker (d, j)
  /// holds data partition d and rule partition j; total workers =
  /// partitions x rule_partitions.
  kHybrid,
};

/// End-to-end options for a parallel materialization run: the cluster's
/// own options (execution mode, network model, checkpointing, crash
/// injection, async knobs, obs), which parallel_materialize hands to the
/// Cluster as they are, plus the partitioning and pipeline knobs.
struct ParallelOptions : ClusterOptions {
  /// Data partitions (data/hybrid) or rule partitions (rule approach).
  std::uint32_t partitions = 4;

  /// Rule partitions for the hybrid approach (total workers =
  /// partitions x rule_partitions); ignored otherwise.
  std::uint32_t rule_partitions = 2;

  Approach approach = Approach::kDataPartition;

  /// Owner policy for the data-partitioning approach (required there;
  /// ignored for rule partitioning).
  const partition::OwnerPolicy* policy = nullptr;

  /// Per-worker local reasoning strategy.
  reason::Strategy local_strategy = reason::Strategy::kForward;

  /// Weigh the rule-dependency graph with predicate statistics from the
  /// input store (rule/hybrid partitioning only).
  bool weighted_rule_graph = true;

  /// Optional statistics source overriding the input store for the rule
  /// graph weights — e.g. a previously materialized KB, the "stationary
  /// data-set" assumption of statistics-based partitioning ([16] in the
  /// paper).  Only consulted when weighted_rule_graph is true.
  const rdf::TripleStore* rule_statistics = nullptr;

  rules::HorstOptions horst;

  /// External transport (e.g. a FileTransport on a spool directory).  When
  /// null, an in-memory transport is created internally.
  Transport* transport = nullptr;

  /// Fault injection: when non-null (must outlive the call), the transport
  /// is wrapped in a deterministic FaultyTransport driven by this spec.
  /// The closure is provably unaffected; only the overhead accounting
  /// changes.
  const FaultSpec* faults = nullptr;

  /// Build the merged output store (base + schema + every derivation).
  /// Disable for large benchmark sweeps where only counts matter.
  bool build_merged = true;
};

/// Outcome of a parallel run.
struct ParallelResult {
  /// What the cluster run did.
  ClusterResult cluster;

  /// Data-partitioning quality metrics (bal, IR); empty for rule runs.
  std::optional<partition::PartitionMetrics> metrics;

  /// OR: output-duplication excess across processors.
  double output_replication = 0.0;

  /// Wall time of the partitioning step itself.
  double partition_seconds = 0.0;

  /// Master-side aggregation: unioning worker results into the final KB
  /// (the "aggregation" component of the paper's Fig. 2).
  double merge_seconds = 0.0;

  /// Number of instance rules each worker ran (total across partitions for
  /// rule partitioning).
  std::size_t compiled_rules = 0;

  /// Union of everything: input triples, schema ground facts, and every
  /// worker derivation.  Present iff options.build_merged.
  std::optional<rdf::TripleStore> merged;

  /// Total distinct derivations across the cluster.
  std::size_t inferred = 0;
};

/// Materialize `store`'s OWL-Horst closure with the parallel reasoner:
/// compile the ontology once, partition data or rules, run Algorithm 3,
/// and merge.  The input store is not modified.
[[nodiscard]] ParallelResult parallel_materialize(
    const rdf::TripleStore& store, const rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab, const ParallelOptions& options);

}  // namespace parowl::parallel
