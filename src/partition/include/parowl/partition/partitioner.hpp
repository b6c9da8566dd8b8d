#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "parowl/partition/graph.hpp"
#include "parowl/partition/metrics.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::partition {

/// Maps each resource node to the partition that owns it — the "owner list"
/// of the paper's generic data partitioning algorithm (Algorithm 1).
using OwnerTable = std::unordered_map<rdf::TermId, std::uint32_t>;

/// The partitioning algorithms behind the unified Partitioner interface.
///
///  * kMultilevel — Metis-family multilevel recursive bisection.  Best
///    quality; needs the whole resource graph in memory.
///  * kHdrf — HDRF (highest-degree replicated first) streaming heuristic:
///    vertices are placed at first sight, scored by degree-weighted replica
///    affinity, so high-degree hubs absorb the replication.
///  * kNe — neighbor expansion: BFS regions grown inside each streaming
///    window are placed as a unit on the least-loaded affine partition.
enum class PartitionerKind : std::uint8_t {
  kMultilevel,
  kHdrf,
  kNe,
};

/// One options struct for every partitioner — the CLI's `--partitioner`
/// and `--balance-slack` flags map here, shared by `run`, `serve-dist`, and
/// the partition benches.
struct PartitionerOptions {
  PartitionerKind kind = PartitionerKind::kMultilevel;

  /// RNG / tie-break seed (determinism knob, recorded in the plan).
  std::uint64_t seed = 0x5eed;

  /// Allowed imbalance: a partition may carry up to (1 + slack) x its
  /// proportional share of vertex weight.  All partitioners honor it.
  double balance_slack = 0.05;

  /// Streaming kinds (HDRF / NE): when set, triples with this predicate
  /// contribute only their subject as a vertex (the object is a class
  /// IRI — a giant hub if kept).  Used by the streaming bootstrap, where no
  /// schema exclusion set exists yet.
  rdf::TermId type_predicate = rdf::kAnyTerm;
};

/// The outcome of a partitioning run: the assignment itself plus the
/// metrics and provenance needed to audit it.
struct PartitionPlan {
  /// Triple streams: term -> owning partition (Algorithm 1's owner list).
  OwnerTable owners;

  /// CSR graphs: vertex -> partition, parallel to the input vertices.
  /// Empty when the plan was built from a triple stream (and vice versa).
  std::vector<std::uint32_t> assignment;

  /// Plan-level quality metrics (edge cut, balance, replication factor).
  PartitionMetrics metrics;

  // --- provenance ---

  /// Algorithm that produced the plan: "hdrf", "ne" or "multilevel".
  std::string algorithm;

  std::uint32_t partitions = 0;
  std::uint64_t seed = 0;

  /// Triples (or CSR edges) consumed by ingest().
  std::size_t triples_ingested = 0;

  /// Peak number of state entries held while partitioning — O(|V| + k +
  /// window) for the streaming partitioners, O(|V| + |E|) for multilevel.
  /// The streaming-memory acceptance tests pin this.
  std::size_t peak_state_entries = 0;

  /// Wall time of the whole partitioning step (the paper's "Part. Time").
  double partition_seconds = 0.0;
};

/// The unified partitioner interface: feed triples chunk-by-chunk as they
/// come out of the ingest pipeline, then finalize into a PartitionPlan.
///
/// Chunk boundaries never affect the result: implementations re-window the
/// stream internally, so any decomposition of the same triple sequence —
/// one call, per-parser-chunk calls, the whole store at once — produces an
/// identical plan.  Implementations are single-use: ingest() after
/// finalize() is undefined.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Consume the next chunk of instance triples (in stream order).
  virtual void ingest(std::span<const rdf::Triple> chunk) = 0;

  /// Finish: assign any pending vertices and return the plan.
  [[nodiscard]] virtual PartitionPlan finalize() = 0;

  /// Short name used in benchmark tables ("HDRF", "NE", "Multilevel").
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Construct a partitioner bound to (dict, k, exclude).  `dict` and
/// `exclude` must outlive the partitioner; terms in `exclude` (schema
/// elements — replicated, not partitioned) get no owner and induce no
/// edges.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    const PartitionerOptions& options, const rdf::Dictionary& dict,
    std::uint32_t num_partitions, const ExcludedTerms* exclude = nullptr);

/// Partition an already-materialized CSR graph with the selected algorithm
/// (streaming kinds replay the adjacency as a synthetic edge stream).  The
/// plan's `assignment` maps vertex -> partition; `owners` is empty.  This
/// is the entry point for non-RDF graphs (the rule-dependency graph, the
/// rebalancer's cost-weighted resource graph, tests and benches).
[[nodiscard]] PartitionPlan partition_csr_graph(
    const Graph& graph, int k, const PartitionerOptions& options = {});

/// CLI/bench helpers: parse "multilevel" / "hdrf" / "ne" (and
/// the legacy alias "graph" for multilevel); format the kind back.
[[nodiscard]] std::optional<PartitionerKind> partitioner_kind_from(
    std::string_view name);
[[nodiscard]] std::string_view to_string(PartitionerKind kind);

}  // namespace parowl::partition
