#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>

#include "parowl/ontology/ontology.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/serve/frontend.hpp"
#include "parowl/serve/snapshot.hpp"
#include "parowl/serve/stats.hpp"
#include "parowl/serve/updater.hpp"

namespace parowl::serve {

struct ServiceOptions : FrontendOptions {
  /// Unread (deletions always run DRed); kept for callers that set it.
  reason::MaintainStrategy maintain_strategy =
      reason::MaintainStrategy::kDRed;
};

/// The serving layer: turns a materialized TripleStore into a concurrently
/// queryable service.
///
/// Read path (Frontend): submit/execute -> normalize -> pin the current
/// immutable snapshot -> result cache -> (miss) parse under the dictionary
/// lock -> BGP evaluation against the pinned snapshot, entirely lock-free
/// -> cache fill.  The cache key is the normalized text; the cache's version
/// floor keeps answers computed before an update out of it.
/// Write path: apply_update -> Updater (copy + incremental closure +
/// footprint invalidation + RCU publish).
class QueryService : public Frontend {
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
  ~QueryService() override;

  /// Apply one batch (see Updater): retract `deletions` from the asserted
  /// base, add `additions`, and maintain the closure incrementally
  /// (DRed for deletions, the semi-naive delta for pure additions).
  /// Batch-atomic; readers never observe a half-maintained snapshot.  The
  /// triples' terms must already be interned — use with_dict_exclusive to
  /// intern them.
  UpdateOutcome apply_update(std::span<const rdf::Triple> additions,
                             std::span<const rdf::Triple> deletions = {});

  /// Persist the currently served KB (dictionary + the latest snapshot's
  /// store) in the codec-based snapshot format (rdf/snapshot.hpp), so a
  /// warmed or incrementally updated service can be reloaded later without
  /// re-materializing.  Takes the shared dictionary lock; safe while
  /// queries run.  Returns the write stats (terms/triples/bytes).
  rdf::SnapshotStats save_snapshot(std::ostream& out) const;

  [[nodiscard]] SnapshotPtr snapshot() const { return registry_.current(); }
  [[nodiscard]] ServiceStats stats() const;

 private:
  class SnapshotPin;

  [[nodiscard]] std::unique_ptr<Pin> pin() override;
  [[nodiscard]] std::uint64_t version() const override;

  rdf::TermId same_as_;  // owl:sameAs id, for query-time expansion
  SnapshotRegistry registry_;
  Updater updater_;
};

}  // namespace parowl::serve
