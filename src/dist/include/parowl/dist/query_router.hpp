#pragma once

#include <cstdint>
#include <vector>

#include "parowl/dist/layout.hpp"
#include "parowl/dist/replica.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/partition/owner_policy.hpp"
#include "parowl/query/bgp.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::dist {

/// Naming note — this codebase has *two* routers, one per plane:
///   * parallel::Router (parallel/router.hpp) ships freshly *derived
///     tuples* between materialization workers — Algorithm 3 step 4,
///     write-path, runs during closure computation.
///   * dist::QueryRouter (this class) ships *scan requests* from the query
///     front end to shard replicas — read-path, runs at serve time, after
///     the closure is done.
/// See docs/architecture.md "Distributed serving" for the side-by-side.

/// Counters of one routed request.
struct RouteStats {
  std::uint32_t partitions_touched = 0;
  std::uint32_t scans_sent = 0;        // first transmissions + retries
  std::uint32_t retransmissions = 0;   // scans_sent beyond the first per partition
  std::uint32_t failovers = 0;         // replica advances
  std::uint32_t checksum_failures = 0; // corrupt responses discarded
  std::uint32_t redeliveries = 0;      // duplicate responses discarded
  std::uint64_t gathered_triples = 0;  // after cross-partition dedup
  double route_seconds = 0.0;          // footprint computation
  double fanout_seconds = 0.0;         // scatter + replica pump + gather
  double merge_seconds = 0.0;          // central join over the gathered store
};

[[nodiscard]] obs::FieldList fields(const RouteStats& s);

/// Scatter/gather evaluation of one BGP query over the shard fleet.
///
/// Correctness shape: the router does NOT evaluate the whole BGP per
/// partition — a join chain's witness triples need not be colocated on any
/// single shard.  Instead it scatters per-*atom* scan patterns: each atom's
/// matches are gathered from every partition the atom's footprint touches
/// (pattern_footprint: one partition when an endpoint constant is owned,
/// all of them otherwise), the union is deduplicated into a gathered store,
/// and the join runs centrally.  Because each shard holds every triple its
/// owned endpoints appear in, the gathered set equals the atom's matches
/// against the full closure, so the central join sees exactly the triples
/// the single-store evaluation would — answers are bit-identical (modulo
/// the canonical row order the merge imposes).
///
/// Fault tolerance reuses the parallel plane's envelope protocol: requests
/// and responses are checksummed Batches; lost or corrupt legs are
/// retransmitted with a bumped attempt counter, and after two silent tries
/// the router fails over to the partition's next replica, giving up after
/// eight transmissions per partition (constants in query_router.cpp).
/// Replicas re-answer duplicate requests idempotently, so at-least-once
/// delivery composes into exactly-once gathering (responses are
/// deduplicated per partition).
class QueryRouter {
 public:
  QueryRouter(const partition::OwnerTable& owners, NodeLayout layout,
              ReplicaSet& replicas, parallel::Transport& transport);

  /// The query's partition footprint: `patterns[p]` holds the scan patterns
  /// partition p must answer (deduplicated); `partitions` lists the p with
  /// any pattern, sorted.
  struct Footprint {
    std::vector<std::uint32_t> partitions;
    std::vector<std::vector<rdf::Triple>> patterns;  // indexed by partition
  };
  [[nodiscard]] Footprint footprint(const query::SelectQuery& query) const;

  enum class Outcome {
    kOk,
    kUnavailable,  // a partition answered on no replica in time
  };

  /// Evaluate `query` distributed; `request` must be unique per call (it is
  /// the wire round id).  On kOk, `*out` holds the merged results in
  /// canonical row order (sorted lexicographically by TermId).  `*stats` is
  /// always filled.
  Outcome run(const query::SelectQuery& query, std::uint32_t request,
              query::ResultSet* out, RouteStats* stats);

 private:
  const partition::OwnerTable& owners_;
  NodeLayout layout_;
  ReplicaSet& replicas_;
  parallel::Transport& transport_;
};

}  // namespace parowl::dist
