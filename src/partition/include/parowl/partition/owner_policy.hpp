#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "parowl/partition/partitioner.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::partition {

/// Strategy interface: a factory of Partitioner instances, one per
/// partitioning run.  This is the policy layer of §III-A — callers that
/// stream (the ingest bootstrap) call create() and feed chunks themselves;
/// one-shot callers (Algorithm 1's partition_data) use the plan()/assign()
/// conveniences below.
///
/// Implementations correspond to §III-A's policies plus the streaming
/// suite:
///  * GraphOwnerPolicy     — multilevel partitioning of the resource graph
///  * HashOwnerPolicy      — streaming hash of the node's lexical form
///  * DomainOwnerPolicy    — locality key extracted from the IRI
///  * StreamingOwnerPolicy — HDRF / NE
///  * FixedOwnerPolicy     — replay of a precomputed owner table
class OwnerPolicy {
 public:
  virtual ~OwnerPolicy() = default;

  /// Construct a fresh partitioner bound to (dict, num_partitions,
  /// exclude).  `dict`, `exclude`, and this policy must outlive it.  Terms
  /// in `exclude` (schema elements — classes/properties, which are
  /// replicated rather than partitioned) get no owner and induce no graph
  /// edges.
  [[nodiscard]] virtual std::unique_ptr<Partitioner> create(
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const = 0;

  /// Short name used in benchmark tables ("Graph", "Hash", "HDRF").
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-shot convenience: create(), ingest the whole span, finalize().
  /// Chunking never changes the result, so feeding everything at once is
  /// equivalent to any streaming decomposition.
  [[nodiscard]] PartitionPlan plan(
      std::span<const rdf::Triple> instance_triples,
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const;

  /// plan() reduced to its owner table.
  [[nodiscard]] OwnerTable assign(
      std::span<const rdf::Triple> instance_triples,
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const;
};

/// A Partitioner for pointwise policies (hash / domain / fixed): the owner
/// of a term is decided at first sight by a callback on (term, lexical),
/// independent of graph structure.  Streams with O(|V| + k^2) state and
/// accounts the same replica-mask metrics as the structural partitioners
/// when k <= 64 (beyond that only the load counters are kept).
class PointwisePartitioner final : public Partitioner {
 public:
  using OwnerFn = std::function<std::uint32_t(rdf::TermId, std::string_view)>;

  PointwisePartitioner(OwnerFn owner_of, std::string algorithm,
                       const rdf::Dictionary& dict,
                       std::uint32_t num_partitions,
                       const ExcludedTerms* exclude);

  void ingest(std::span<const rdf::Triple> chunk) override;
  [[nodiscard]] PartitionPlan finalize() override;
  [[nodiscard]] std::string name() const override { return algorithm_; }

 private:
  struct Node {
    std::uint32_t owner = 0;
    std::uint64_t mask = 0;
  };

  Node* touch(rdf::TermId term);

  OwnerFn owner_of_;
  std::string algorithm_;
  const rdf::Dictionary* dict_;
  const ExcludedTerms* exclude_;
  std::uint32_t k_;
  std::unordered_map<rdf::TermId, Node> nodes_;
  std::vector<std::uint64_t> loads_;
  std::vector<std::uint64_t> cut_matrix_;  // [lo * k + hi], k <= 64 only
  std::size_t triples_ingested_ = 0;
  std::size_t peak_state_ = 0;
  double ingest_seconds_ = 0.0;
};

/// Graph partitioning policy (§III-A-1): build the RDF resource graph and
/// run the multilevel partitioner; the owner of a node is its partition.
class GraphOwnerPolicy final : public OwnerPolicy {
 public:
  explicit GraphOwnerPolicy(PartitionerOptions options = {})
      : options_(options) {
    options_.kind = PartitionerKind::kMultilevel;
  }

  [[nodiscard]] std::unique_ptr<Partitioner> create(
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "Graph"; }

 private:
  PartitionerOptions options_;
};

/// Streaming policy: HDRF or NE, per the options' kind.  The partitioners it creates hold
/// O(|V| + k) state and never materialize the resource graph.
class StreamingOwnerPolicy final : public OwnerPolicy {
 public:
  explicit StreamingOwnerPolicy(PartitionerOptions options,
                                std::string label = "");

  [[nodiscard]] std::unique_ptr<Partitioner> create(
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const override;
  [[nodiscard]] std::string name() const override { return label_; }

 private:
  PartitionerOptions options_;
  std::string label_;
};

/// Hash policy (§III-A-2): owner(node) = hash(lexical form) mod k.
/// Streaming — no global graph is materialized, and the owner table can be
/// recomputed anywhere from the hash function alone.
class HashOwnerPolicy final : public OwnerPolicy {
 public:
  explicit HashOwnerPolicy(std::uint64_t salt = 0) : salt_(salt) {}

  [[nodiscard]] std::unique_ptr<Partitioner> create(
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "Hash"; }

  /// The pure hash (also usable without a table).
  [[nodiscard]] std::uint32_t owner_of(std::string_view lexical,
                                       std::uint32_t num_partitions) const;

 private:
  std::uint64_t salt_;
};

/// Domain-specific policy (§III-A-3): a locality key is extracted from each
/// resource IRI (e.g. the university index in LUBM IRIs); all nodes with
/// the same key land in the same partition.  Keys are distributed over
/// partitions round-robin in first-seen order, which keeps similarly-sized
/// domains balanced.  Nodes without a key fall back to the hash policy.
class DomainOwnerPolicy final : public OwnerPolicy {
 public:
  /// Extracts a locality key from a lexical form; return std::nullopt-like
  /// kNoKey when the IRI carries no domain information.
  using KeyExtractor = std::function<std::int64_t(std::string_view)>;
  static constexpr std::int64_t kNoKey = -1;

  explicit DomainOwnerPolicy(KeyExtractor extractor, std::string label = "Dom sp.")
      : extractor_(std::move(extractor)), label_(std::move(label)) {}

  [[nodiscard]] std::unique_ptr<Partitioner> create(
      const rdf::Dictionary& dict, std::uint32_t num_partitions,
      const ExcludedTerms* exclude = nullptr) const override;
  [[nodiscard]] std::string name() const override { return label_; }

 private:
  KeyExtractor extractor_;
  std::string label_;
};

/// Key extractor for LUBM/UOBM-style IRIs of the form
/// "http://www.UnivN.edu/...": returns N.  Also matches the department
/// sub-authority "http://www.DepartmentM.UnivN.edu/...".
[[nodiscard]] std::int64_t lubm_university_key(std::string_view iri);

}  // namespace parowl::partition
