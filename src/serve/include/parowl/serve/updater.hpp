#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "parowl/ontology/ontology.hpp"
#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/snapshot.hpp"

namespace parowl::serve {

/// What one update batch did.
struct UpdateOutcome {
  /// Version of the snapshot the batch produced (0 when nothing was
  /// published: rejected schema change, a deletion touching the equality
  /// class map (maintain.equality_rejected), or an all-no-op batch).
  std::uint64_t version = 0;

  /// The incremental closure's headline statistics, mirrored from
  /// `maintain` so every batch kind reports one shape: schema_changed,
  /// added (asserted triples new to the base), inferred, iterations,
  /// reason_seconds, eq_merges and eq_rebuilds.
  reason::IncrementalResult result;

  /// Full maintenance statistics (overdeleted/rederived/removed and the
  /// per-pass timings; the deletion fields stay zero for pure additions).
  reason::MaintainResult maintain;

  /// Distinct predicates of the delta — the footprint handed to the cache.
  /// Covers the new triples (base + rederived + inferred) AND the removed
  /// ones: a cached answer that contained a deleted (or overdeleted-then-
  /// not-rederived) triple is stale exactly like one missing a new triple.
  std::vector<rdf::TermId> delta_predicates;

  /// Cache entries dropped by this batch.
  std::size_t invalidated = 0;

  /// Bytes the batch cloned out of segments shared with the previous
  /// version (rdf::TripleStore::cow_clone_bytes): it follows the delta,
  /// not the store.
  std::size_t cloned_bytes = 0;

  /// This batch compiled the rule base: the first batch does, and so does
  /// the first one after a batch whose closure delta gained or lost a
  /// schema triple.
  bool compiled_rules = false;

  double copy_seconds = 0.0;   // sharing the store, copying log and base
  double total_seconds = 0.0;  // copy + closure + invalidate + publish
};

/// The write side of the serving layer: applies an instance-triple batch to
/// the current snapshot and publishes the successor version.
///
/// Copy-on-update RCU: the updater copies the current store — sharing its
/// segments, so the batch clones only the predicate segments and pages it
/// writes — and the asserted base, runs `reason::Maintainer` on the copies
/// (the semi-naive delta for pure additions, DRed for deletions)
/// with the rule base it compiled on its first batch (and again after a
/// delta that changed the closure's schema triples), invalidates
/// overlapping cache entries, and atomically swaps the new snapshot in.
/// Readers keep their version until they finish; nothing ever blocks a
/// query, and no query can observe a half-maintained store.  Invalidation
/// runs *before* publication so no reader can hit a stale cached answer
/// under the new version, and the cache's version floor stops in-flight
/// queries from re-inserting answers computed against the old snapshot.
///
/// One Updater serializes its own batches (internal mutex), but the KB
/// design assumes a single logical writer — concurrent Updaters on one
/// registry would race on version numbers.
class Updater {
 public:
  /// `dict` must already contain every term the batches will reference; the
  /// closure itself interns nothing.  `cache` may be null (no caching).
  Updater(SnapshotRegistry& registry, ResultCache* cache,
          const rdf::Dictionary& dict, const ontology::Vocabulary& vocab);

  /// Apply one batch of *instance* triples: retract `deletions` from the
  /// asserted base and add `additions`, maintaining the closure
  /// incrementally.  Batch-atomic: a triple in both lists stays.  Deleting
  /// a never-present triple is a no-op.  Nothing is published (version 0)
  /// for a rejected batch — schema triples (outcome.result.schema_changed;
  /// a schema change invalidates the compiled rule-base and needs a full
  /// re-materialization) or a deletion touching the equality class map
  /// (outcome.maintain.equality_rejected) — nor for a batch that changes
  /// neither the closure, the class map nor a recorded base.
  UpdateOutcome apply(std::span<const rdf::Triple> additions,
                      std::span<const rdf::Triple> deletions = {});

  /// Number of batches successfully published.
  [[nodiscard]] std::uint64_t batches_applied() const;

 private:
  SnapshotRegistry& registry_;
  ResultCache* cache_;
  const rdf::Dictionary& dict_;
  const ontology::Vocabulary& vocab_;
  mutable std::mutex write_mutex_;
  std::uint64_t batches_ = 0;
  // Compiled on the first batch; reset when a closure delta changes the
  // schema triples.
  std::optional<rules::CompiledRules> compiled_;
};

}  // namespace parowl::serve
