#pragma once

// Open-addressing hash containers for the triple store's hot paths.
//
// Materialization inserts and probes triples tens of millions of times; the
// std::unordered_* node containers pay a heap allocation per key and a
// pointer chase per probe.  These replacements use linear probing over a
// power-of-two slot array (one cache line per average probe, no per-key
// allocation) and support the operations the engines need: insert and find,
// plus TripleSet::erase and SmallIdList::retain for incremental maintenance,
// which retracts triples from a materialized store.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parowl/rdf/term.hpp"

namespace parowl::rdf {

/// Hash map from a nonzero TermId to a small value (an index into a stable
/// arena, a counter, ...).  Key 0 (kAnyTerm) marks an empty slot, so real
/// term ids — which start at 1 — are always storable.
template <typename Value>
class IdMap {
 public:
  [[nodiscard]] const Value* find(TermId key) const {
    assert(key != kAnyTerm);
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return &s.value;
      }
      if (s.key == kAnyTerm) {
        return nullptr;
      }
    }
  }

  /// Value for `key`, default-constructing it on first use.
  Value& operator[](TermId key) {
    assert(key != kAnyTerm);
    if (slots_.size() < 2 * (size_ + 1)) {
      grow();  // keeps load factor <= 1/2
    }
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return s.value;
      }
      if (s.key == kAnyTerm) {
        s.key = key;
        ++size_;
        return s.value;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void clear() {
    slots_.clear();
    size_ = 0;
    mask_ = 0;
  }

 private:
  struct Slot {
    TermId key = kAnyTerm;
    Value value{};
  };

  [[nodiscard]] std::size_t probe_start(TermId key) const {
    // Fibonacci hashing: dense sequential term ids spread over the table.
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
               32) &
           mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == kAnyTerm) {
        continue;
      }
      for (std::size_t i = probe_start(s.key);; i = (i + 1) & mask_) {
        if (slots_[i].key == kAnyTerm) {
          slots_[i] = std::move(s);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// List of 32-bit ids with a small-size inline buffer: the first kInline
/// entries need no heap allocation.  The store's posting lists ((p,s) ->
/// objects, (p,o) -> subjects, endpoint log indices) are overwhelmingly
/// this short, so inserts skip the per-key allocation that dominated the
/// materializer's insert path.  Contiguity is preserved by
/// migrating to the spill vector on the first push past kInline, so view()
/// is always a single span; like a plain vector, a view is invalidated
/// only by a later push_back or retain on the same list.
class SmallIdList {
 public:
  static constexpr std::size_t kInline = 4;

  void push_back(std::uint32_t v) {
    if (n_ < kInline) {
      inline_[n_++] = v;
      return;
    }
    if (n_ == kInline) {
      spill_.assign(inline_, inline_ + kInline);
    }
    spill_.push_back(v);
    ++n_;
  }

  /// Keep only the entries `v` with keep(v), in order.  A list that shrinks
  /// to kInline entries or fewer moves back inline and frees its spill.
  template <typename Keep>
  void retain(Keep&& keep) {
    std::uint32_t* data = n_ <= kInline ? inline_ : spill_.data();
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (keep(data[i])) {
        data[kept++] = data[i];
      }
    }
    if (n_ > kInline) {
      if (kept <= kInline) {
        std::copy_n(spill_.data(), kept, inline_);
        spill_ = {};
      } else {
        spill_.resize(kept);
      }
    }
    n_ = kept;
  }

  [[nodiscard]] std::span<const std::uint32_t> view() const {
    return n_ <= kInline
               ? std::span<const std::uint32_t>(inline_, n_)
               : std::span<const std::uint32_t>(spill_.data(), spill_.size());
  }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::uint32_t inline_[kInline] = {};
  std::uint32_t n_ = 0;
  std::vector<std::uint32_t> spill_;
};

/// Hash set of triples (all three ids nonzero; {0,0,0} marks an empty
/// slot).  The store's duplicate filter and the forward engine's
/// per-iteration seen-sets live here — the two hottest probe paths in the
/// whole system.  Erase uses backward-shift deletion, so there are no
/// tombstones and insert/contains never pay for past erasures.
class TripleSet {
 public:
  TripleSet() = default;

  /// The set of `ts`, sized once up front.
  explicit TripleSet(std::span<const Triple> ts) {
    reserve(ts.size());
    for (const Triple& t : ts) {
      insert(t);
    }
  }

  /// Insert `t`; returns true if it was new.
  bool insert(const Triple& t) { return insert(t, TripleHash{}(t)); }

  [[nodiscard]] bool contains(const Triple& t) const {
    return contains(t, TripleHash{}(t));
  }

  /// Remove `t`; returns true if it was present.
  bool erase(const Triple& t) { return erase(t, TripleHash{}(t)); }

  /// Variants taking `hash` == TripleHash{}(t), for callers that already
  /// computed it (the store picks a shard from the same hash).
  bool insert(const Triple& t, std::size_t hash) {
    assert(t.s != kAnyTerm && t.p != kAnyTerm && t.o != kAnyTerm);
    if (slots_.size() < 2 * (size_ + 1)) {
      rehash(slots_.empty() ? 32 : slots_.size() * 2);
    }
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Triple& s = slots_[i];
      if (s == t) {
        return false;
      }
      if (s.s == kAnyTerm) {
        s = t;
        ++size_;
        return true;
      }
    }
  }

  [[nodiscard]] bool contains(const Triple& t, std::size_t hash) const {
    if (slots_.empty()) {
      return false;
    }
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Triple& s = slots_[i];
      if (s == t) {
        return true;
      }
      if (s.s == kAnyTerm) {
        return false;
      }
    }
  }

  /// Backward-shift deletion: each later entry of the probe run moves into
  /// the hole when its home slot is not cyclically inside (hole, entry], so
  /// every remaining key stays reachable from its home slot.  The load
  /// factor stays <= 1/2, so the run always ends at an empty slot.
  bool erase(const Triple& t, std::size_t hash) {
    if (slots_.empty()) {
      return false;
    }
    std::size_t hole = hash & mask_;
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole] == t) {
        break;
      }
      if (slots_[hole].s == kAnyTerm) {
        return false;
      }
    }
    for (std::size_t i = (hole + 1) & mask_; slots_[i].s != kAnyTerm;
         i = (i + 1) & mask_) {
      const std::size_t home = TripleHash{}(slots_[i]) & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Triple{};
    --size_;
    return true;
  }

  /// Size the slot array so that `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    std::size_t cap = slots_.empty() ? 32 : slots_.size();
    while (cap < 2 * (n + 1)) {
      cap *= 2;
    }
    if (cap > slots_.size()) {
      rehash(cap);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots allocated (a power of two, or 0).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Drop all entries but keep the slot array — an O(capacity) memset,
  /// which is what the forward engine's per-iteration seen-sets want.
  void reset() {
    std::fill(slots_.begin(), slots_.end(), Triple{});
    size_ = 0;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    mask_ = 0;
  }

  /// Invoke `fn(t)` for every member, in slot order — which depends on
  /// the insert/erase history, so callers that need an order sort.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Triple& t : slots_) {
      if (t.s != kAnyTerm) {
        fn(t);
      }
    }
  }

  /// Same members, whatever the slot layout.
  friend bool operator==(const TripleSet& a, const TripleSet& b) {
    bool same = a.size() == b.size();
    a.for_each([&](const Triple& t) { same = same && b.contains(t); });
    return same;
  }

 private:
  void rehash(std::size_t cap) {
    std::vector<Triple> old = std::move(slots_);
    slots_.assign(cap, Triple{});
    mask_ = cap - 1;
    for (const Triple& t : old) {
      if (t.s == kAnyTerm) {
        continue;
      }
      for (std::size_t i = TripleHash{}(t)&mask_;; i = (i + 1) & mask_) {
        if (slots_[i].s == kAnyTerm) {
          slots_[i] = t;
          break;
        }
      }
    }
  }

  std::vector<Triple> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace parowl::rdf
