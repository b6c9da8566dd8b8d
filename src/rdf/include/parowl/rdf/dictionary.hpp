#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "parowl/rdf/term.hpp"

namespace parowl::util {
class ThreadTeam;
}

namespace parowl::rdf {

/// Interns RDF term lexical forms to dense TermIds and back.
///
/// The dictionary is built once (by the master, while loading/generating the
/// data-set) and then shared read-only by all partitions, so lookups after
/// the build phase are safe from any thread.  Lexical forms are stored
/// undecorated: IRIs without angle brackets, literals without quotes, blank
/// nodes without the "_:" prefix; `TermKind` carries the category.
class Dictionary {
 public:
  Dictionary();

  /// Intern `lexical` with the given kind; returns the existing id if the
  /// (lexical, kind) pair is already present.
  TermId intern(std::string_view lexical, TermKind kind);

  /// Convenience wrappers.
  TermId intern_iri(std::string_view iri) { return intern(iri, TermKind::kIri); }
  TermId intern_blank(std::string_view label) {
    return intern(label, TermKind::kBlank);
  }
  TermId intern_literal(std::string_view lit) {
    return intern(lit, TermKind::kLiteral);
  }

  /// Pre-size the intern index for roughly `expected_terms` additional
  /// terms, cutting rehash churn during bulk loads.  Never shrinks and has
  /// no observable effect on ids or iteration order.
  void reserve(std::size_t expected_terms);

  /// Rough term count for a serialization of `input_bytes` bytes
  /// (N-Triples/Turtle).  Growing past it is cheap — a rehash moves 8-byte
  /// slots and never rehashes a string — so it errs low rather than
  /// reserving memory the load will not use.
  [[nodiscard]] static std::size_t estimate_terms(std::size_t input_bytes) {
    return input_bytes / 256 + 16;
  }

  /// Append the terms of `parts` as if every term of parts[0], then of
  /// parts[1], ... had been interned here in id order: ids, kinds and
  /// lexical forms come out exactly as that serial loop would leave them.
  /// remaps[i][local id in parts[i]] is the id here (remaps[i][0] ==
  /// kAnyTerm).  The parallel ingest merges its per-chunk dictionaries
  /// with this, which is what keeps global ids in first-occurrence order.
  ///
  /// It runs on `team`: members own disjoint index shards and resolve each
  /// term's first occurrence in (part, local id) order, a serial integer
  /// pass numbers the new terms, and the members then fill the index and
  /// move the strings in.  `parts` are consumed: they are left empty.
  void absorb(std::span<Dictionary> parts,
              std::vector<std::vector<TermId>>& remaps,
              util::ThreadTeam& team);

  /// Look up an existing term; returns kAnyTerm (0) if absent.
  [[nodiscard]] TermId find(std::string_view lexical, TermKind kind) const;
  [[nodiscard]] TermId find_iri(std::string_view iri) const {
    return find(iri, TermKind::kIri);
  }

  /// Lexical form of an interned id.  Precondition: 1 <= id <= size().
  [[nodiscard]] const std::string& lexical(TermId id) const;

  /// Kind of an interned id.  Precondition: 1 <= id <= size().
  [[nodiscard]] TermKind kind(TermId id) const;

  /// True iff the term is an IRI or blank node (a graph vertex).
  [[nodiscard]] bool is_resource(TermId id) const {
    return kind(id) != TermKind::kLiteral;
  }

  /// Number of interned terms (ids run 1..size()).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string lexical;
    TermKind kind;
  };

  /// One open-addressing slot: the term id (kAnyTerm = empty) and the low
  /// 32 bits of the term's hash, which place the slot and filter probes
  /// before any string comparison.
  struct Slot {
    TermId id = kAnyTerm;
    std::uint32_t hash = 0;
  };

  /// Index shard: linear probing over a power-of-two slot array kept at
  /// most half full.  A term's shard comes from the top bits of its hash.
  struct Shard {
    std::vector<Slot> slots;
    std::size_t size = 0;

    /// The slot holding a term with this hash for which `same(id)` holds,
    /// or the empty slot where it belongs (the caller fills it).  Grows
    /// first, so a filled slot never overloads the shard.
    template <typename Same>
    Slot& claim(std::uint32_t hash, Same&& same);
    template <typename Same>
    [[nodiscard]] const Slot* find(std::uint32_t hash, Same&& same) const;
    void grow(std::size_t min_slots);
  };

  static constexpr unsigned kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  [[nodiscard]] static std::uint64_t hash_term(std::string_view lexical,
                                               TermKind kind);
  [[nodiscard]] static std::size_t shard_of(std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> (64 - kShardBits));
  }

  // Entries live in a deque so references returned by lexical() stay valid
  // as the dictionary grows.
  std::deque<Entry> entries_;
  std::array<Shard, kShards> shards_;
};

}  // namespace parowl::rdf
