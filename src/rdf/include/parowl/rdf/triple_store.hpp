#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::util {
class ThreadTeam;
}

namespace parowl::rdf {

/// Duplicate-free triple store with the indexes the inference engines need.
///
/// Materialization only adds triples; incremental maintenance
/// (reason::Maintainer) also retracts them, through erase_all.  Either
/// way the store keeps an insertion-ordered log (used by the semi-naive
/// engine to address deltas by index range) plus three access paths:
///   * by predicate                    — with_predicate(p)
///   * by (predicate, subject) -> objects  — objects(p, s)
///   * by (predicate, object)  -> subjects — subjects(p, o)
/// which are exactly the probes a single-join rule body performs.  After
/// any sequence of inserts and erasures, every observable index equals
/// that of a fresh store built by inserting the current log in order.
///
/// All indexes are open-addressing IdMaps (flat_index.hpp) pointing into
/// deque arenas: probes touch one cache line on average and inserts do no
/// per-key node allocation, while the posting lists themselves stay
/// pointer-stable — a span returned by objects()/subjects()/with_predicate()
/// is invalidated only when a triple with the same key is inserted (or any
/// triple is erased), exactly as with the node-based containers this
/// replaced.
class TripleStore {
 public:
  TripleStore();
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Insert a triple; returns true if it was new, false on duplicate.
  ///
  /// Only the predicate-keyed join indexes are updated eagerly; the
  /// subject/object endpoint postings — needed solely for unbound-predicate
  /// probes — are rebuilt on demand (ensure_endpoint_index), which keeps
  /// the materializer's insert path to three index touches.
  bool insert(const Triple& t) {
    const std::size_t hash = TripleHash{}(t);
    if (!set_[set_shard(hash)].insert(t, hash)) {
      return false;
    }
    log_.push_back(t);
    std::uint32_t& pslot = predicate_slot_[t.p];
    if (pslot == 0) {
      predicate_arena_.emplace_back();
      pslot = static_cast<std::uint32_t>(predicate_arena_.size());
      predicates_.push_back(t.p);
    }
    PredicateIndex& idx = predicate_arena_[pslot - 1];
    idx.triples.push_back(t);
    idx.objects.list(t.s).push_back(t.o);
    idx.subjects.list(t.o).push_back(t.s);
    return true;
  }

  /// Insert every triple from `ts`; returns the number actually added.
  ///
  /// The result — log order, predicate order, every posting list — is
  /// exactly that of inserting the triples one by one in order: the first
  /// occurrence of each new triple is appended.  With `threads` > 1 the
  /// work is spread over a team of that many threads (see the team
  /// overload); with 1 it is the plain per-triple loop.
  std::size_t insert_all(std::span<const Triple> ts, unsigned threads = 1);

  /// insert_all on an existing team (a team of one runs the serial loop):
  ///   1. dedup — each member owns the duplicate-filter shards congruent to
  ///      its index and walks the whole batch in order, so within a shard
  ///      the first occurrence wins;
  ///   2. ordered compaction of the new triples onto the log;
  ///   3. a serial pass that registers new predicates in first-seen order;
  ///   4. per touched predicate, its triple list, its subject->objects
  ///      postings and its object->subjects postings as three independent
  ///      tasks, each filled in log order.
  std::size_t insert_all(std::span<const Triple> ts, util::ThreadTeam& team);

  /// Remove every triple of `ts` that is present (absent ones are
  /// ignored); returns the number removed.  The log is compacted stably,
  /// each touched predicate's triple list and each touched (p,s) / (p,o)
  /// posting list is filtered once, and the endpoint postings are dropped
  /// (their log indices shift) to be rebuilt by the next unbound probe.
  /// When a predicate empties or loses its first triple, the predicate
  /// order is rebuilt from the surviving log, so predicates() stays in
  /// first-seen order and an emptied predicate re-registers on its next
  /// insert.  Cost: the log compaction plus the touched lists, not a
  /// rebuild of the store.
  std::size_t erase_all(std::span<const Triple> ts);

  [[nodiscard]] bool contains(const Triple& t) const {
    const std::size_t hash = TripleHash{}(t);
    return set_[set_shard(hash)].contains(t, hash);
  }
  [[nodiscard]] std::size_t size() const { return log_.size(); }
  [[nodiscard]] bool empty() const { return log_.empty(); }

  /// Insertion-ordered log of all triples.  The range [from, size()) is the
  /// delta added since a previous checkpoint at `from`.
  [[nodiscard]] const std::vector<Triple>& triples() const { return log_; }

  /// All triples with predicate `p` in insertion order.
  [[nodiscard]] std::span<const Triple> with_predicate(TermId p) const {
    const PredicateIndex* idx = find_predicate(p);
    return idx ? std::span<const Triple>(idx->triples)
               : std::span<const Triple>();
  }

  /// Objects o such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> objects(TermId p, TermId s) const {
    const PredicateIndex* idx = find_predicate(p);
    if (idx == nullptr) {
      return {};
    }
    return idx->objects.view(s);
  }

  /// Subjects s such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> subjects(TermId p, TermId o) const {
    const PredicateIndex* idx = find_predicate(p);
    if (idx == nullptr) {
      return {};
    }
    return idx->subjects.view(o);
  }

  /// Distinct predicates present, in first-seen order.
  [[nodiscard]] const std::vector<TermId>& predicates() const {
    return predicates_;
  }

  /// Invoke `fn(triple)` for every triple with subject `s` (any
  /// predicate).  Like for_object and match, the callback is a template
  /// parameter, so the per-triple call inlines with no type erasure.
  template <typename Fn>
  void for_subject(TermId s, Fn&& fn) const {
    ensure_endpoint_index();
    for (std::uint32_t i : subject_index_.view(s)) {
      fn(log_[i]);
    }
  }

  /// Invoke `fn(triple)` for every triple with object `o` (any predicate).
  template <typename Fn>
  void for_object(TermId o, Fn&& fn) const {
    ensure_endpoint_index();
    for (std::uint32_t i : object_index_.view(o)) {
      fn(log_[i]);
    }
  }

  /// Invoke `fn(triple)` for every stored triple matching `pattern`,
  /// choosing the cheapest available index.
  template <typename Fn>
  void match(const TriplePattern& pattern, Fn&& fn) const {
    const bool sb = pattern.s != kAnyTerm;
    const bool pb = pattern.p != kAnyTerm;
    const bool ob = pattern.o != kAnyTerm;

    if (sb && pb && ob) {
      const Triple t{pattern.s, pattern.p, pattern.o};
      if (contains(t)) {
        fn(t);
      }
      return;
    }
    if (pb && sb) {
      for (TermId o : objects(pattern.p, pattern.s)) {
        fn(Triple{pattern.s, pattern.p, o});
      }
      return;
    }
    if (pb && ob) {
      for (TermId s : subjects(pattern.p, pattern.o)) {
        fn(Triple{s, pattern.p, pattern.o});
      }
      return;
    }
    if (pb) {
      for (const Triple& t : with_predicate(pattern.p)) {
        fn(t);
      }
      return;
    }
    // Predicate unbound: use the subject/object log indexes when possible.
    if (sb) {
      for_subject(pattern.s, [&](const Triple& t) {
        if (!ob || t.o == pattern.o) {
          fn(t);
        }
      });
      return;
    }
    if (ob) {
      for_object(pattern.o, std::forward<Fn>(fn));
      return;
    }
    // Fully unbound: scan the log.
    for (const Triple& t : log_) {
      fn(t);
    }
  }

  /// Count matches without materializing them.
  [[nodiscard]] std::size_t count(const TriplePattern& pattern) const;

  /// Number of lazy endpoint-index (re)builds this store has performed.
  /// Monotone across clear() — the forward engine's rewrite mode rebuilds
  /// the store mid-run and asserts the delta over a whole run stays zero
  /// (nothing should probe with an unbound predicate in representative
  /// space), so clearing the log must not reset the evidence.
  [[nodiscard]] std::size_t endpoint_index_builds() const {
    return endpoint_builds_.load(std::memory_order_relaxed);
  }

  /// Remove everything (used when a worker rebuilds its base partition).
  void clear();

 private:
  /// Duplicate-filter shards.  A triple's shard comes from the top bits of
  /// its TripleHash and its slot from the low bits, so a probe still hashes
  /// once; the shards let the bulk insert dedup on all threads at once.
  static constexpr unsigned kSetShardBits = 6;
  static constexpr std::size_t kSetShards = std::size_t{1} << kSetShardBits;
  static std::size_t set_shard(std::size_t hash) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(hash) >>
                                    (64 - kSetShardBits));
  }

  /// key -> posting list.  The IdMap stores arena_index + 1 (0 = absent);
  /// the lists live in a deque so they never move when the slot table
  /// rehashes.
  struct PostingIndex {
    IdMap<std::uint32_t> slot;
    std::deque<SmallIdList> lists;

    SmallIdList& list(TermId key) {
      std::uint32_t& s = slot[key];
      if (s == 0) {
        lists.emplace_back();
        s = static_cast<std::uint32_t>(lists.size());
      }
      return lists[s - 1];
    }
    [[nodiscard]] std::span<const std::uint32_t> view(TermId key) const {
      const std::uint32_t* s = slot.find(key);
      return s != nullptr ? lists[*s - 1].view()
                          : std::span<const std::uint32_t>();
    }
    void clear() {
      slot.clear();
      lists.clear();
    }
  };

  /// One predicate's access paths.  The bulk insert fills the three
  /// members from different threads, so each gets its own cache line.
  struct PredicateIndex {
    alignas(64) std::vector<Triple> triples;  // insertion order
    alignas(64) PostingIndex objects;         // subject -> objects
    alignas(64) PostingIndex subjects;        // object -> subjects
  };

  [[nodiscard]] const PredicateIndex* find_predicate(TermId p) const {
    const std::uint32_t* slot = predicate_slot_.find(p);
    return slot != nullptr ? &predicate_arena_[*slot - 1] : nullptr;
  }

  /// Bring the subject/object endpoint postings up to date with the log.
  /// Thread-safe against concurrent readers (double-checked under
  /// endpoint_mu_); writers are exclusive by the store's usual contract.
  void ensure_endpoint_index() const {
    if (endpoint_built_.load(std::memory_order_acquire) != log_.size()) {
      build_endpoint_tail();
    }
  }
  void build_endpoint_tail() const;

  std::vector<Triple> log_;
  std::array<TripleSet, kSetShards> set_;
  IdMap<std::uint32_t> predicate_slot_;  // predicate -> arena index + 1
  std::deque<PredicateIndex> predicate_arena_;
  std::vector<TermId> predicates_;
  // Log indices per subject / per object, for queries with an unbound
  // predicate ((s ? ?), (? ? o)).  Only two families of callers probe this
  // way: the backward engine, and the naive sameAs rules (rdfp6/7/11a/11b
  // pivot on wildcard predicates).  Under equality_mode = rewrite those
  // rules are dropped and forward closure must never touch these postings —
  // ForwardStats::endpoint_index_builds counts builds so tests can pin
  // that.  Built lazily, on first such probe, so the insert hot path never
  // pays for them; `mutable` because the rebuild happens under const
  // accessors.
  mutable PostingIndex subject_index_;  // subject -> log indices
  mutable PostingIndex object_index_;   // object -> log indices
  mutable std::atomic<std::size_t> endpoint_built_{0};
  mutable std::atomic<std::size_t> endpoint_builds_{0};
  mutable std::mutex endpoint_mu_;
};

}  // namespace parowl::rdf
