#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "parowl/obs/options.hpp"
#include "parowl/ontology/ontology.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/serve/executor.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/snapshot.hpp"
#include "parowl/serve/stats.hpp"
#include "parowl/serve/updater.hpp"

namespace parowl::serve {

/// One answered request.
struct Response {
  RequestStatus status = RequestStatus::kOk;
  query::ResultSet results;
  bool cache_hit = false;
  std::uint64_t snapshot_version = 0;
  double latency_seconds = 0.0;  // admission -> completion
  std::string error;  // diagnostic when kParseError / kUnsupported
};

struct ServiceOptions {
  std::size_t threads = 2;
  std::size_t queue_capacity = 64;
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_per_shard = 128;
  bool cache_enabled = true;

  /// Per-request deadline applied at admission; <= 0 means none.  Requests
  /// still queued when it expires are answered kDeadlineExceeded.
  double default_deadline_seconds = 0.0;

  /// Unread (deletions always run DRed); kept for callers that set it.
  reason::MaintainStrategy maintain_strategy =
      reason::MaintainStrategy::kDRed;

  /// Namespace prefixes pre-registered with the SPARQL parser.
  std::vector<std::pair<std::string, std::string>> prefixes;

  /// Observability sinks/sampling (docs/architecture.md "Observability").
  /// `sample_every` strides the per-request serve spans.
  obs::ObsOptions obs;
};

/// The serving layer: turns a materialized TripleStore into a concurrently
/// queryable service.
///
/// Read path:  submit/execute -> normalize -> result cache -> (miss) parse
/// under the dictionary lock -> BGP evaluation against the current immutable
/// snapshot, entirely lock-free -> cache fill.
/// Write path: apply_update -> Updater (copy + incremental closure +
/// footprint invalidation + RCU publish).
///
/// The dictionary is the one shared mutable structure: query parsing interns
/// terms (new IRIs/literals mentioned by queries) and so takes the exclusive
/// lock; everything that only *reads* lexical forms — result rendering, the
/// incremental closure's literal guard — takes the shared lock.  BGP
/// evaluation touches only TermIds and never locks.
class QueryService {
 public:
  /// `store` must already be materialized (the service answers from the
  /// closure; it runs no inference at query time).  `dict`/`vocab` outlive
  /// the service.  `base` is the asserted-triple provenance incremental
  /// deletion maintains against, built into one presized set here (empty =
  /// treat the whole store as asserted; see make_initial_snapshot).  Pass
  /// the frozen `equality` class map when `store` was materialized under
  /// sameAs rewriting: the service then expands answers through it at
  /// query time and threads it through updates (the updater clones +
  /// extends the map per batch).
  QueryService(rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
               rdf::TripleStore store, ServiceOptions options = {},
               std::span<const rdf::Triple> base = {},
               std::shared_ptr<const reason::EqualityManager> equality =
                   nullptr);

  /// Completes pending requests, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Asynchronous path: admit `query_text` to the executor.  `done` is
  /// invoked exactly once, possibly inline when the request is shed
  /// (kOverloaded) at admission.  Returns false iff shed.
  bool submit(std::string query_text,
              std::function<void(const Response&)> done);

  /// Synchronous path: parse + evaluate on the caller's thread (no queue,
  /// no admission control).  Shares the cache and counters.
  Response execute(const std::string& query_text);

  /// Apply one batch (see Updater): retract `deletions` from the asserted
  /// base, add `additions`, and maintain the closure incrementally
  /// (DRed for deletions, the semi-naive delta for pure additions).
  /// Batch-atomic; readers never observe a half-maintained snapshot.  The
  /// triples' terms must already be interned — use with_dict_exclusive to
  /// intern them.
  UpdateOutcome apply_update(std::span<const rdf::Triple> additions,
                             std::span<const rdf::Triple> deletions = {});

  /// Run `fn(dict)` holding the exclusive dictionary lock (interning).
  template <typename Fn>
  auto with_dict_exclusive(Fn&& fn) {
    const std::unique_lock lock(dict_mutex_);
    return fn(dict_);
  }

  /// Run `fn(const dict)` holding the shared dictionary lock (rendering).
  template <typename Fn>
  auto with_dict_shared(Fn&& fn) const {
    const std::shared_lock lock(dict_mutex_);
    return fn(static_cast<const rdf::Dictionary&>(dict_));
  }

  /// Render a result set to aligned text (takes the shared dict lock).
  [[nodiscard]] std::string render(const query::ResultSet& results) const;

  /// Block until the request queue is drained.
  void drain();

  /// Persist the currently served KB (dictionary + the latest snapshot's
  /// store) in the codec-based snapshot format (rdf/snapshot.hpp), so a
  /// warmed or incrementally updated service can be reloaded later without
  /// re-materializing.  Takes the shared dictionary lock; safe while
  /// queries run.  Returns the write stats (terms/triples/bytes).
  rdf::SnapshotStats save_snapshot(std::ostream& out) const;

  [[nodiscard]] SnapshotPtr snapshot() const { return registry_.current(); }
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] Executor& executor() { return *executor_; }

 private:
  Response execute_locked(const std::string& query_text);
  void count(const Response& response);

  ServiceOptions options_;
  rdf::Dictionary& dict_;
  rdf::TermId same_as_;  // owl:sameAs id, for query-time expansion
  mutable std::shared_mutex dict_mutex_;
  SnapshotRegistry registry_;
  ResultCache cache_;
  query::SparqlParser parser_;  // guarded by dict_mutex_ (exclusive)
  Updater updater_;
  std::unique_ptr<Executor> executor_;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> unsupported_{0};
  std::atomic<std::uint64_t> request_seq_{0};  // obs sampling stride counter
  LatencyHistogram latency_;
};

}  // namespace parowl::serve
