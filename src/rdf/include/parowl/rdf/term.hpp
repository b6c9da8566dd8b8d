#pragma once

#include <cstdint>
#include <functional>

#include "parowl/util/strings.hpp"

namespace parowl::rdf {

/// Dense identifier for an interned RDF term.  Id 0 is reserved and acts as
/// the wildcard in triple patterns; real terms start at 1.
using TermId = std::uint32_t;

/// Wildcard for pattern matching ("match any term in this position").
inline constexpr TermId kAnyTerm = 0;

/// Syntactic category of a term.  OWL-Horst reasoning never needs full
/// datatype semantics, but partitioning must distinguish resources (IRIs and
/// blank nodes, which are graph vertices) from literals (which are not).
enum class TermKind : std::uint8_t {
  kIri = 0,
  kBlank = 1,
  kLiteral = 2,
};

/// An RDF triple over interned ids.  Plain value type: hashable, ordered,
/// trivially copyable — it is the unit of storage, communication, and
/// inference throughout the system.
struct Triple {
  TermId s = kAnyTerm;
  TermId p = kAnyTerm;
  TermId o = kAnyTerm;

  friend bool operator==(const Triple&, const Triple&) = default;
  friend auto operator<=>(const Triple&, const Triple&) = default;
};

/// A triple pattern: any position may be kAnyTerm.
struct TriplePattern {
  TermId s = kAnyTerm;
  TermId p = kAnyTerm;
  TermId o = kAnyTerm;

  [[nodiscard]] bool matches(const Triple& t) const {
    return (s == kAnyTerm || s == t.s) && (p == kAnyTerm || p == t.p) &&
           (o == kAnyTerm || o == t.o);
  }
};

/// Content digest of one triple (util::mix64 over the packed ids): the
/// hash of unordered triple sets, the word rdf::codec's block checksums
/// chain (order-sensitive) and the transport's batch checksums sum
/// (order-insensitive).  Inline: all of them run it per triple.
[[nodiscard]] constexpr std::uint64_t triple_digest(const Triple& t) {
  return util::mix64((static_cast<std::uint64_t>(t.s) << 32) ^
                     (static_cast<std::uint64_t>(t.p) << 16) ^ t.o);
}

/// Hash functor for Triple (usable as std::unordered_* hasher).
struct TripleHash {
  std::size_t operator()(const Triple& t) const noexcept {
    return static_cast<std::size_t>(triple_digest(t));
  }
};

}  // namespace parowl::rdf
