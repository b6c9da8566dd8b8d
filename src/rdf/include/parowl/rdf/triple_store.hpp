#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
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
/// Copies share structure.  The indexes live in copy-on-write segments:
/// one per predicate (its triple list plus its posting lists, which are
/// themselves cut into pages of kPageKeys consecutive keys) and one per
/// duplicate-filter shard.  Copying a store copies the log and shares
/// every segment; afterwards each side clones a segment, or one page of
/// it, the first time it writes there.  A store writes in place only into
/// segments it created or cloned since it was last copied: each segment
/// (or its reference) carries the tag of the store that owns it, and a
/// copy gives both sides fresh tags.  So a serving snapshot's successor
/// pays for the segments its delta touches, not for the store
/// (serve::Updater).
///
/// All indexes are open-addressing IdMaps (flat_index.hpp).  A span
/// returned by with_predicate(p)/objects(p, ·)/subjects(p, ·) is
/// invalidated by the next insert of a triple with predicate p, or by any
/// erase.
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
    if (log_.size() >= set_limit_) [[unlikely]] {
      grow_filter();
    }
    const std::uint64_t tag = tag_.load(std::memory_order_relaxed);
    if (!admit(t, TripleHash{}(t), tag, cloned_bytes_)) {
      return false;
    }
    log_.push_back(t);
    std::uint32_t& pslot = predicate_slot_[t.p];
    if (pslot == 0) {
      pslot = add_predicate(t.p);
    }
    Segment& seg = own_segment(pslot - 1, tag);
    seg.triples.push_back(t);
    seg.objects.list(t.s, tag, cloned_bytes_).push_back(t.o);
    seg.subjects.list(t.o, tag, cloned_bytes_).push_back(t.s);
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
  ///   3. a serial pass that registers new predicates in first-seen order
  ///      and unshares every touched predicate segment;
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
  /// insert.  Cost: the doomed triples, their segments and pages, and one
  /// pass over the log whose per-triple test is a bitmap lookup on
  /// (predicate, subject) — the exact set probe runs only on a hit.
  std::size_t erase_all(std::span<const Triple> ts);

  [[nodiscard]] bool contains(const Triple& t) const {
    const std::size_t hash = TripleHash{}(t);
    const Shared<TripleSet>& shard = set_[set_shard(hash)];
    return shard.ptr != nullptr && shard.ptr->contains(t, hash);
  }
  [[nodiscard]] std::size_t size() const { return log_.size(); }
  [[nodiscard]] bool empty() const { return log_.empty(); }

  /// Insertion-ordered log of all triples.  The range [from, size()) is the
  /// delta added since a previous checkpoint at `from`.
  [[nodiscard]] const std::vector<Triple>& triples() const { return log_; }

  /// All triples with predicate `p` in insertion order.
  [[nodiscard]] std::span<const Triple> with_predicate(TermId p) const {
    const Segment* seg = find_predicate(p);
    return seg ? std::span<const Triple>(seg->triples)
               : std::span<const Triple>();
  }

  /// Objects o such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> objects(TermId p, TermId s) const {
    const Segment* seg = find_predicate(p);
    if (seg == nullptr) {
      return {};
    }
    return seg->objects.view(s);
  }

  /// Subjects s such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> subjects(TermId p, TermId o) const {
    const Segment* seg = find_predicate(p);
    if (seg == nullptr) {
      return {};
    }
    return seg->subjects.view(o);
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

  /// Bytes this store has copied out of segments it shared with another
  /// store (filter shards, predicate segments, posting pages) since it
  /// was constructed or copied.  Each clone also adds to the obs counter
  /// rdf.store.cow_clone_bytes.
  [[nodiscard]] std::size_t cow_clone_bytes() const { return cloned_bytes_; }

  /// Remove everything (used when a worker rebuilds its base partition).
  void clear();

 private:
  /// A segment reference.  `ptr` may be shared with other stores; `owner`
  /// is the tag of the one store allowed to write *ptr in place, the one
  /// that created or cloned it.
  template <typename T>
  struct Shared {
    std::shared_ptr<T> ptr;
    std::uint64_t owner = 0;
  };

  /// Duplicate-filter shards.  A triple's shard comes from the top bits of
  /// its TripleHash and its slot from the low bits, so a probe still hashes
  /// once; the shards let the bulk insert dedup on all threads at once.  A
  /// store starts with 2^kSmallShardBits shards and re-shards once, to
  /// 2^kShardBits, when it reaches kGrowAt triples (or before a bulk
  /// insert that would pass it): a small store stays cheap to build, and
  /// a big one is cut into shards of a few kilobytes, which is what a
  /// batch clones.
  static constexpr unsigned kSmallShardBits = 6;
  static constexpr unsigned kShardBits = 10;
  static constexpr std::size_t kGrowAt = std::size_t{16} << kShardBits;
  [[nodiscard]] std::size_t set_shard(std::size_t hash) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(hash) >>
                                    set_shift_);
  }
  /// Re-shard the filter from 2^kSmallShardBits to 2^kShardBits shards.
  void grow_filter();

  /// Posting lists of the keys [n * kPageKeys, (n + 1) * kPageKeys): the
  /// copy-on-write unit of a predicate's postings.  `owner` plays the part
  /// of Shared::owner, kept in the page so a page table entry is one
  /// pointer.
  static constexpr unsigned kPageBits = 7;
  static constexpr std::uint32_t kPageKeys = 1u << kPageBits;
  struct PostingPage {
    std::uint64_t owner = 0;
    std::array<std::uint8_t, kPageKeys> slot{};  // key offset -> index + 1
    std::vector<SmallIdList> lists;

    SmallIdList& list(std::uint32_t offset) {
      std::uint8_t& s = slot[offset];
      if (s == 0) {
        // Grow by half, not double, to keep the unused tail small.
        if (lists.size() == lists.capacity()) {
          lists.reserve(lists.size() + lists.size() / 2 + 2);
        }
        lists.emplace_back();
        s = static_cast<std::uint8_t>(lists.size());
      }
      return lists[s - 1];
    }
    [[nodiscard]] std::span<const std::uint32_t> view(
        std::uint32_t offset) const {
      const std::uint8_t s = slot[offset];
      return s != 0 ? lists[s - 1].view() : std::span<const std::uint32_t>();
    }
  };

  /// key -> posting list, paged.  A write to a page this store does not own
  /// clones that page first (or creates it), adding its size to `cloned`.
  struct Postings {
    IdMap<std::shared_ptr<PostingPage>> pages;  // key / kPageKeys + 1 -> page

    SmallIdList& list(TermId key, std::uint64_t tag, std::size_t& cloned) {
      std::shared_ptr<PostingPage>& page = pages[(key >> kPageBits) + 1];
      if (page == nullptr || page->owner != tag) [[unlikely]] {
        cloned += unshare(page, tag);
      }
      return page->list(key & (kPageKeys - 1));
    }
    [[nodiscard]] std::span<const std::uint32_t> view(TermId key) const {
      const std::shared_ptr<PostingPage>* page =
          pages.find((key >> kPageBits) + 1);
      return page != nullptr ? (*page)->view(key & (kPageKeys - 1))
                             : std::span<const std::uint32_t>();
    }
  };

  /// One predicate's access paths.  The bulk insert fills the three
  /// members from different threads, so each gets its own cache line.
  struct Segment {
    alignas(64) std::vector<Triple> triples;  // insertion order
    alignas(64) Postings objects;             // subject -> objects
    alignas(64) Postings subjects;            // object -> subjects
  };

  /// key -> posting list for the endpoint postings, which are private to
  /// one store.  The IdMap stores arena_index + 1 (0 = absent); the lists
  /// live in a deque so they never move when the slot table rehashes.
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

  /// Make `ref` writable by the store tagged `tag`: create it if empty,
  /// else clone it.  Returns the bytes copied.
  static std::size_t unshare(Shared<TripleSet>& ref, std::uint64_t tag);
  static std::size_t unshare(Shared<Segment>& ref, std::uint64_t tag);
  static std::size_t unshare(std::shared_ptr<PostingPage>& page,
                             std::uint64_t tag);
  /// Point `ref` at a new segment owned by `tag`: the given triple list
  /// (a copy of the old one, possibly filtered) and the old page tables,
  /// whose pages stay shared.  Returns the bytes copied.
  static std::size_t adopt(Shared<Segment>& ref, std::uint64_t tag,
                           std::vector<Triple> triples);

  /// Add `t` (hash `hash`) to the duplicate filter; false if present.
  bool admit(const Triple& t, std::size_t hash, std::uint64_t tag,
             std::size_t& cloned) {
    Shared<TripleSet>& shard = set_[set_shard(hash)];
    if (shard.owner != tag) [[unlikely]] {
      if (shard.ptr != nullptr && shard.ptr->contains(t, hash)) {
        return false;
      }
      cloned += unshare(shard, tag);
    }
    return shard.ptr->insert(t, hash);
  }

  /// Register predicate `p` (first seen); returns its slot + 1.
  std::uint32_t add_predicate(TermId p);

  Segment& own_segment(std::uint32_t index, std::uint64_t tag) {
    Shared<Segment>& seg = segments_[index];
    if (seg.owner != tag) [[unlikely]] {
      cloned_bytes_ += unshare(seg, tag);
    }
    return *seg.ptr;
  }

  [[nodiscard]] const Segment* find_predicate(TermId p) const {
    const std::uint32_t* slot = predicate_slot_.find(p);
    return slot != nullptr ? segments_[*slot - 1].ptr.get() : nullptr;
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

  /// Drop the endpoint postings (an erasure shifts the log indices they
  /// hold; clear() empties the log).
  void reset_endpoint_index();

  std::vector<Triple> log_;
  std::vector<Shared<TripleSet>> set_;
  unsigned set_shift_ = 0;     // 64 - log2(set_.size())
  std::size_t set_limit_ = 0;  // kGrowAt, or SIZE_MAX once grown
  IdMap<std::uint32_t> predicate_slot_;  // predicate -> segment index + 1
  std::vector<Shared<Segment>> segments_;
  std::vector<TermId> predicates_;
  /// This store's write tag (see Shared).  `mutable` and atomic because
  /// copying a const store retags it, and two threads may copy one
  /// published store at once; the write paths only load it.
  mutable std::atomic<std::uint64_t> tag_;
  std::size_t cloned_bytes_ = 0;
  // Log indices per subject / per object, for queries with an unbound
  // predicate ((s ? ?), (? ? o)).  Only two families of callers probe this
  // way: the backward engine, and the naive sameAs rules (rdfp6/7/11a/11b
  // pivot on wildcard predicates).  Under equality_mode = rewrite those
  // rules are dropped and forward closure must never touch these postings —
  // ForwardStats::endpoint_index_builds counts builds so tests can pin
  // that.  Built lazily, on first such probe, so the insert hot path never
  // pays for them; `mutable` because the rebuild happens under const
  // accessors.  Never shared between stores: a copy starts without them.
  mutable PostingIndex subject_index_;  // subject -> log indices
  mutable PostingIndex object_index_;   // object -> log indices
  mutable std::atomic<std::size_t> endpoint_built_{0};
  mutable std::atomic<std::size_t> endpoint_builds_{0};
  mutable std::mutex endpoint_mu_;
};

}  // namespace parowl::rdf
