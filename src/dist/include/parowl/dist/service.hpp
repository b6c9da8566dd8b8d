#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "parowl/dist/query_router.hpp"
#include "parowl/dist/replica.hpp"
#include "parowl/dist/shard_catalog.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/serve/frontend.hpp"
#include "parowl/serve/stats.hpp"

namespace parowl::dist {

struct DistOptions : serve::FrontendOptions {
  /// Replicas per partition.
  std::uint32_t replicas = 1;

  /// Frozen equality class map when the closure was materialized under
  /// sameAs rewriting (null = naive).  Queries are then rewritten into
  /// representative space before routing and the merged rows are expanded
  /// through the map before caching/answering.  `same_as` must be the
  /// owl:sameAs TermId (for the rewrite-mode shape checks).
  std::shared_ptr<const reason::EqualityManager> equality;
  rdf::TermId same_as = rdf::kAnyTerm;
};

/// One consistent view of the distributed service's counters.
struct DistStats : serve::RequestStats {
  std::uint32_t partitions = 0;
  std::uint32_t replicas = 0;
  std::uint64_t scans_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t gathered_triples = 0;
  std::uint64_t shard_bytes_shipped = 0;  // codec bytes decoded by replicas
};

[[nodiscard]] obs::FieldList fields(const DistStats& s);

/// Distributed drop-in for serve::QueryService: the same front end
/// (serve::Frontend: admission control, result cache, parser, counters) —
/// but a query miss is answered by the QueryRouter's scatter/gather over the
/// replica fleet instead of a local snapshot.
///
/// Result cache: entries are keyed on the normalized query text *plus the
/// per-partition shard version vector*, so a shard refresh moves every
/// affected query to a fresh key and stale merged results can never be
/// served (the single-store service gets the same guarantee from its
/// snapshot-version floor; a merged result has no single version, hence
/// the vector key).  `Response.snapshot_version` reports the max shard
/// version.
class DistService : public serve::Frontend {
 public:
  using Response = serve::Response;

  /// `closure` must already be materialized.  `owners` is the partition
  /// owner table the closure was (or would be) partitioned with; `dict`
  /// outlives the service.  `transport` carries the scan traffic and must
  /// have at least NodeLayout{partitions, replicas}.num_nodes() nodes.
  DistService(rdf::Dictionary& dict, const rdf::TripleStore& closure,
              partition::OwnerTable owners, std::uint32_t partitions,
              parallel::Transport& transport, DistOptions options = {});

  ~DistService() override;

  /// Refresh after an incremental maintenance batch: retire `deletions`
  /// (the triples the maintainer removed from the closure) from their
  /// shards, append `additions`, bump the touched shards' versions and
  /// re-ship only those partitions to live replicas.  Untouched shards keep
  /// their bytes and versions, so the re-encode/re-sync cost scales with
  /// the batch's placement footprint, not the catalog size.  Subsequent
  /// queries use the new version vector as their cache key — the
  /// invalidation path.
  void refresh(std::span<const rdf::Triple> additions,
               std::span<const rdf::Triple> deletions = {});

  [[nodiscard]] DistStats stats() const;
  [[nodiscard]] std::vector<std::uint64_t> shard_versions() const;
  [[nodiscard]] const NodeLayout& layout() const { return layout_; }
  [[nodiscard]] ShardCatalog& catalog() { return catalog_; }
  [[nodiscard]] ReplicaSet& replicas() { return replicas_; }

  /// Kill / revive replica r of partition p (fault drills; revive re-syncs
  /// the current shard).
  void kill_replica(std::uint32_t p, std::uint32_t r);
  void revive_replica(std::uint32_t p, std::uint32_t r);

 private:
  class VersionsPin;

  [[nodiscard]] std::unique_ptr<Pin> pin() override;
  [[nodiscard]] std::uint64_t version() const override;

  std::shared_ptr<const reason::EqualityManager> equality_;
  rdf::TermId same_as_;
  NodeLayout layout_;
  ShardCatalog catalog_;
  ReplicaSet replicas_;
  QueryRouter router_;

  /// Guards catalog_ mutation (refresh) against concurrent version reads;
  /// scans themselves are safe via the replicas' RCU stores.
  mutable std::shared_mutex catalog_mutex_;

  std::atomic<std::uint32_t> request_ids_{1};  // wire round ids
  std::atomic<std::uint64_t> scans_sent_{0};
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> gathered_triples_{0};
};

}  // namespace parowl::dist
