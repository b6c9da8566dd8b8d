#include "parowl/rdf/dictionary.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "parowl/util/strings.hpp"
#include "parowl/util/thread_team.hpp"

namespace parowl::rdf {
namespace {

/// absorb() marks a slot or a resolution that still names a part's term by
/// its flat index (part offset + local id - 1) with this bit.
constexpr TermId kProvisional = TermId{1} << 31;

}  // namespace

std::uint64_t Dictionary::hash_term(std::string_view lexical, TermKind kind) {
  // Eight bytes per multiply, then the SplitMix64 finalizer so both the
  // top bits (shard) and the low bits (slot) are well mixed.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ lexical.size();
  std::size_t i = 0;
  for (; i + 8 <= lexical.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, lexical.data() + i, 8);
    h = std::rotl((h ^ word) * 0xbf58476d1ce4e5b9ULL, 31);
  }
  if (i < lexical.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, lexical.data() + i, lexical.size() - i);
    h = std::rotl((h ^ word) * 0xbf58476d1ce4e5b9ULL, 31);
  }
  return util::mix64(h ^ static_cast<std::uint64_t>(kind));
}

template <typename Same>
Dictionary::Slot& Dictionary::Shard::claim(std::uint32_t hash, Same&& same) {
  if (slots.size() < 2 * (size + 1)) {
    grow(2 * (size + 1));
  }
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots[i];
    if (slot.id == kAnyTerm || (slot.hash == hash && same(slot.id))) {
      return slot;
    }
  }
}

template <typename Same>
const Dictionary::Slot* Dictionary::Shard::find(std::uint32_t hash,
                                                Same&& same) const {
  if (slots.empty()) {
    return nullptr;
  }
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots[i];
    if (slot.id == kAnyTerm) {
      return nullptr;
    }
    if (slot.hash == hash && same(slot.id)) {
      return &slot;
    }
  }
}

void Dictionary::Shard::grow(std::size_t min_slots) {
  std::size_t cap = std::max<std::size_t>(slots.empty() ? 16 : slots.size(), 16);
  while (cap < min_slots) {
    cap *= 2;
  }
  if (cap == slots.size()) {
    return;
  }
  std::vector<Slot> old = std::move(slots);
  slots.assign(cap, Slot{});
  const std::size_t mask = cap - 1;
  for (const Slot& s : old) {
    if (s.id == kAnyTerm) {
      continue;
    }
    std::size_t i = s.hash & mask;
    while (slots[i].id != kAnyTerm) {
      i = (i + 1) & mask;
    }
    slots[i] = s;
  }
}

Dictionary::Dictionary() = default;

TermId Dictionary::intern(std::string_view lexical, TermKind kind) {
  const std::uint64_t h = hash_term(lexical, kind);
  Slot& slot = shards_[shard_of(h)].claim(
      static_cast<std::uint32_t>(h), [&](TermId id) {
        const Entry& e = entries_[id - 1];
        return e.kind == kind && e.lexical == lexical;
      });
  if (slot.id == kAnyTerm) {
    entries_.push_back(Entry{std::string(lexical), kind});
    slot.id = static_cast<TermId>(entries_.size());  // ids start at 1
    slot.hash = static_cast<std::uint32_t>(h);
    ++shards_[shard_of(h)].size;
  }
  return slot.id;
}

void Dictionary::reserve(std::size_t expected_terms) {
  // Spread evenly, plus slack for the uneven split.
  const std::size_t per_shard = expected_terms / kShards + 8;
  for (Shard& shard : shards_) {
    shard.grow(2 * (shard.size + per_shard));
  }
}

void Dictionary::absorb(std::span<Dictionary> parts,
                        std::vector<std::vector<TermId>>& remaps,
                        util::ThreadTeam& team) {
  std::vector<std::size_t> offset(parts.size() + 1, 0);
  for (std::size_t c = 0; c < parts.size(); ++c) {
    offset[c + 1] = offset[c] + parts[c].size();
  }
  const std::size_t total = offset.back();
  if (size() + total >= kProvisional) {
    throw std::length_error("rdf::Dictionary: term ids exhausted");
  }

  // Flat view of every part term with its hash.
  std::vector<Entry*> src(total);
  std::vector<std::uint64_t> hashes(total);
  team.for_each(parts.size(), [&](std::size_t c) {
    for (std::size_t l = 0; l < parts[c].size(); ++l) {
      Entry& e = parts[c].entries_[l];
      src[offset[c] + l] = &e;
      hashes[offset[c] + l] = hash_term(e.lexical, e.kind);
    }
  });

  // Resolve.  Member m owns the shards s with s % members == m and walks
  // the terms in (part, local id) order, so the first occurrence of a new
  // term claims the slot and later ones resolve to it.
  const unsigned members = team.size();
  std::vector<TermId> resolved(total);
  team.run([&](unsigned m) {
    for (std::size_t g = 0; g < total; ++g) {
      const std::size_t s = shard_of(hashes[g]);
      if (s % members != m) {
        continue;
      }
      const Entry& e = *src[g];
      const auto h = static_cast<std::uint32_t>(hashes[g]);
      Slot& slot = shards_[s].claim(h, [&](TermId id) {
        const Entry& other = (id & kProvisional) != 0
                                 ? *src[id & ~kProvisional]
                                 : entries_[id - 1];
        return other.kind == e.kind && other.lexical == e.lexical;
      });
      if (slot.id == kAnyTerm) {
        slot.id = kProvisional | static_cast<TermId>(g);
        slot.hash = h;
        ++shards_[s].size;
      }
      resolved[g] = slot.id;
    }
  });

  // Number the new terms in (part, local id) order.
  std::vector<TermId> final_id(total);
  std::vector<std::uint32_t> fresh;  // flat index of each new term, by id
  auto next = static_cast<TermId>(size() + 1);
  for (std::size_t g = 0; g < total; ++g) {
    const TermId r = resolved[g];
    if ((r & kProvisional) == 0) {
      final_id[g] = r;
    } else if ((r & ~kProvisional) == g) {
      final_id[g] = next++;
      fresh.push_back(static_cast<std::uint32_t>(g));
    } else {
      final_id[g] = final_id[r & ~kProvisional];
    }
  }
  resolved = {};

  // Fill: provisional slots get their ids, the strings move in, and the
  // remaps are cut out of the flat table.
  const std::size_t first_new = size();
  entries_.resize(first_new + fresh.size());
  team.run([&](unsigned m) {
    for (std::size_t s = m; s < kShards; s += members) {
      for (Slot& slot : shards_[s].slots) {
        if ((slot.id & kProvisional) != 0) {
          slot.id = final_id[slot.id & ~kProvisional];
        }
      }
    }
    const std::size_t lo = fresh.size() * m / members;
    const std::size_t hi = fresh.size() * (m + 1) / members;
    for (std::size_t k = lo; k < hi; ++k) {
      entries_[first_new + k] = std::move(*src[fresh[k]]);
    }
  });
  remaps.resize(parts.size());
  team.for_each(parts.size(), [&](std::size_t c) {
    std::vector<TermId>& remap = remaps[c];
    remap.assign(parts[c].size() + 1, kAnyTerm);
    std::copy(final_id.begin() + static_cast<std::ptrdiff_t>(offset[c]),
              final_id.begin() + static_cast<std::ptrdiff_t>(offset[c + 1]),
              remap.begin() + 1);
    parts[c] = Dictionary();
  });
}

TermId Dictionary::find(std::string_view lexical, TermKind kind) const {
  const std::uint64_t h = hash_term(lexical, kind);
  const Slot* slot = shards_[shard_of(h)].find(
      static_cast<std::uint32_t>(h), [&](TermId id) {
        const Entry& e = entries_[id - 1];
        return e.kind == kind && e.lexical == lexical;
      });
  return slot == nullptr ? kAnyTerm : slot->id;
}

const std::string& Dictionary::lexical(TermId id) const {
  assert(id >= 1 && id <= entries_.size());
  return entries_[id - 1].lexical;
}

TermKind Dictionary::kind(TermId id) const {
  assert(id >= 1 && id <= entries_.size());
  return entries_[id - 1].kind;
}

}  // namespace parowl::rdf
