#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/equality.hpp"

namespace parowl::serve {

/// An immutable, versioned view of a materialized knowledge base.
///
/// The serving layer never lets a query observe a store mid-update: the
/// updater builds a *new* store (copy + incremental closure), wraps it in a
/// KbSnapshot, and publishes it atomically.  Readers that already hold a
/// snapshot keep using it — the shared_ptr keeps the old version alive until
/// the last in-flight query drops it (RCU-style reclamation).
struct KbSnapshot {
  /// Monotonically increasing publication counter; the initial snapshot is
  /// version 1.
  std::uint64_t version = 0;

  /// The materialized triple store.  Immutable after publication.
  rdf::TripleStore store;

  /// Survivor prefix length: the range [delta_begin, store.size()) is what
  /// this update added (base + rederived + inferred).  For pure-addition
  /// batches that is exactly the previous version's log length; a deletion
  /// batch compacts the log, so the prefix is shorter than the predecessor.
  std::size_t delta_begin = 0;

  /// The *asserted* triples (schema + instance) this closure was
  /// materialized from — what incremental deletion maintains against
  /// (reason::Maintainer).  A set: maintenance only asks membership, never
  /// order.  Null means "everything in the store is asserted": the
  /// conservative default when a service is built from an
  /// already-materialized store with no base provenance.
  std::shared_ptr<const rdf::TripleSet> base;

  /// Frozen equality class map when the store was materialized under
  /// sameAs rewriting (null = naive closure).  Immutable like the store:
  /// the updater clones it before merging new sameAs facts, so readers
  /// expanding answers through this map never race a mutation.
  std::shared_ptr<const reason::EqualityManager> equality;
};

using SnapshotPtr = std::shared_ptr<const KbSnapshot>;

/// The single publication point readers and the updater share.
///
/// Readers call current() — a shared_ptr copy under a briefly-held mutex —
/// and then run entirely lock-free against the immutable snapshot.  Writers
/// (one at a time; see Updater) install the next version with publish().
class SnapshotRegistry {
 public:
  explicit SnapshotRegistry(SnapshotPtr initial);

  /// The latest published snapshot.  Never null.
  [[nodiscard]] SnapshotPtr current() const;

  /// Version number of the latest snapshot.
  [[nodiscard]] std::uint64_t version() const;

  /// Install `next` as the current snapshot.  `next->version` must exceed
  /// the current version (single-writer discipline).
  void publish(SnapshotPtr next);

 private:
  mutable std::mutex mutex_;
  SnapshotPtr current_;
};

/// Build the initial snapshot (version 1) from a materialized store.
/// `base` is the asserted-triple provenance for incremental deletion (built
/// into one presized set here); pass empty to treat the whole store as
/// asserted (deletions then retract any closure triple directly, which is
/// still maintained correctly — there is just no asserted/derived
/// distinction to exploit).  `equality` is the
/// frozen class map of a rewrite-mode closure (null for naive stores).
[[nodiscard]] SnapshotPtr make_initial_snapshot(
    rdf::TripleStore store, std::span<const rdf::Triple> base = {},
    std::shared_ptr<const reason::EqualityManager> equality = nullptr);

}  // namespace parowl::serve
