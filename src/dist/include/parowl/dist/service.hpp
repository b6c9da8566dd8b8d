#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "parowl/dist/query_router.hpp"
#include "parowl/dist/replica.hpp"
#include "parowl/dist/shard_catalog.hpp"
#include "parowl/obs/options.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/serve/executor.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/service.hpp"
#include "parowl/serve/stats.hpp"
#include "parowl/serve/workload.hpp"

namespace parowl::dist {

struct DistOptions {
  std::size_t threads = 2;
  std::size_t queue_capacity = 64;
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_per_shard = 128;
  bool cache_enabled = true;

  /// Per-request deadline applied at admission; <= 0 means none (same
  /// semantics as serve::ServiceOptions).
  double default_deadline_seconds = 0.0;

  /// Namespace prefixes pre-registered with the SPARQL parser.
  std::vector<std::pair<std::string, std::string>> prefixes;

  /// Replicas per partition.
  std::uint32_t replicas = 1;

  RouterOptions router;

  /// Frozen equality class map when the closure was materialized under
  /// sameAs rewriting (null = naive).  Queries are then rewritten into
  /// representative space before routing and the merged rows are expanded
  /// through the map before caching/answering.  `same_as` must be the
  /// owl:sameAs TermId (for the rewrite-mode shape checks).
  std::shared_ptr<const reason::EqualityManager> equality;
  rdf::TermId same_as = rdf::kAnyTerm;

  obs::ObsOptions obs;
};

/// One consistent view of the distributed service's counters.
struct DistStats {
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t unavailable = 0;  // kUnavailable: a partition never answered
  std::uint64_t unsupported = 0;  // shape not answerable under rewriting

  std::uint32_t partitions = 0;
  std::uint32_t replicas = 0;
  std::uint64_t scans_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t gathered_triples = 0;
  std::uint64_t shard_bytes_shipped = 0;  // codec bytes decoded by replicas

  serve::CacheCounters cache;
  serve::LatencyHistogram latency;

  [[nodiscard]] std::uint64_t total_requests() const {
    return completed + shed + deadline_exceeded + parse_errors + unavailable +
           unsupported;
  }

  void print(std::ostream& os) const;
};

[[nodiscard]] obs::FieldList fields(const DistStats& s);

/// Distributed drop-in for serve::QueryService: same submit/execute/drain
/// surface, same Response type, same admission control (bounded executor,
/// shed-at-admission, deadlines) — but a query miss is answered by the
/// QueryRouter's scatter/gather over the replica fleet instead of a local
/// snapshot.
///
/// Result cache: entries are keyed on the normalized query text *plus the
/// per-partition shard version vector*, so a shard refresh moves every
/// affected query to a fresh key and stale merged results can never be
/// served (the single-store service gets the same guarantee from its
/// snapshot-version floor; a merged result has no single version, hence
/// the vector key).  `Response.snapshot_version` reports the max shard
/// version.
class DistService {
 public:
  using Response = serve::Response;

  /// `closure` must already be materialized.  `owners` is the partition
  /// owner table the closure was (or would be) partitioned with; `dict`
  /// outlives the service.  `transport` carries the scan traffic and must
  /// have at least NodeLayout{partitions, replicas}.num_nodes() nodes.
  DistService(rdf::Dictionary& dict, const rdf::TripleStore& closure,
              partition::OwnerTable owners, std::uint32_t partitions,
              parallel::Transport& transport, DistOptions options = {});

  ~DistService();

  DistService(const DistService&) = delete;
  DistService& operator=(const DistService&) = delete;

  /// Asynchronous path: admit `query_text`; `done` runs exactly once,
  /// inline when shed.  Returns false iff shed.
  bool submit(std::string query_text,
              std::function<void(const Response&)> done);

  /// Synchronous path: route + merge on the caller's thread.
  Response execute(const std::string& query_text);

  /// Append raw triples to the shards they belong on, bump those shards'
  /// versions, and re-ship them to live replicas.  Subsequent queries use
  /// the new version vector as their cache key — the invalidation path.
  void refresh(std::span<const rdf::Triple> additions);

  /// Mixed refresh after an incremental maintenance batch: retire
  /// `deletions` (the triples the maintainer removed from the closure) from
  /// their shards, append `additions`, and re-ship only the touched
  /// partitions.  Untouched shards keep their bytes and versions, so the
  /// re-encode/re-sync cost scales with the batch's placement footprint,
  /// not the catalog size.
  void refresh(std::span<const rdf::Triple> additions,
               std::span<const rdf::Triple> deletions);

  /// Block until the request queue is drained.
  void drain();

  /// Render a result set to aligned text (takes the shared dict lock).
  [[nodiscard]] std::string render(const query::ResultSet& results) const;

  [[nodiscard]] DistStats stats() const;
  [[nodiscard]] std::vector<std::uint64_t> shard_versions() const;
  [[nodiscard]] const DistOptions& options() const { return options_; }
  [[nodiscard]] const NodeLayout& layout() const { return layout_; }
  [[nodiscard]] ShardCatalog& catalog() { return catalog_; }
  [[nodiscard]] ReplicaSet& replicas() { return replicas_; }
  [[nodiscard]] serve::Executor& executor() { return *executor_; }

  /// Kill / revive replica r of partition p (fault drills; revive re-syncs
  /// the current shard).
  void kill_replica(std::uint32_t p, std::uint32_t r);
  void revive_replica(std::uint32_t p, std::uint32_t r);

 private:
  Response execute_locked(const std::string& query_text);
  void count(const Response& response);
  [[nodiscard]] static std::string cache_key(
      const std::string& normalized,
      const std::vector<std::uint64_t>& versions);

  DistOptions options_;
  rdf::Dictionary& dict_;
  mutable std::shared_mutex dict_mutex_;
  NodeLayout layout_;
  ShardCatalog catalog_;
  ReplicaSet replicas_;
  QueryRouter router_;
  serve::ResultCache cache_;
  query::SparqlParser parser_;  // guarded by dict_mutex_ (exclusive)
  std::unique_ptr<serve::Executor> executor_;

  /// Guards catalog_ mutation (refresh) against concurrent version reads;
  /// scans themselves are safe via the replicas' RCU stores.
  mutable std::shared_mutex catalog_mutex_;

  std::atomic<std::uint32_t> request_ids_{1};  // wire round ids
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> unsupported_{0};
  std::atomic<std::uint64_t> scans_sent_{0};
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> gathered_triples_{0};
  std::atomic<std::uint64_t> request_seq_{0};  // obs sampling stride counter
  serve::LatencyHistogram latency_;
};

/// Drive a DistService with the serve-layer workload driver (open or closed
/// loop) — the generic submit-interface overload of serve::run_workload.
serve::WorkloadReport run_workload(DistService& service,
                                   std::span<const std::string> queries,
                                   const serve::WorkloadOptions& options);

}  // namespace parowl::dist
