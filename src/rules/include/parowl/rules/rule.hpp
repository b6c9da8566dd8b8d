#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::rules {

/// A position in an atom: either a constant term id or a rule-local
/// variable index.  Encoded in one 32-bit word: constants are stored as the
/// (positive) TermId; variable v is stored as -(v+1).
class AtomTerm {
 public:
  AtomTerm() : enc_(0) {}

  static AtomTerm constant(rdf::TermId id) {
    return AtomTerm(static_cast<std::int64_t>(id));
  }
  static AtomTerm var(int index) {
    return AtomTerm(-static_cast<std::int64_t>(index) - 1);
  }

  [[nodiscard]] bool is_var() const { return enc_ < 0; }
  [[nodiscard]] bool is_const() const { return enc_ >= 0; }
  [[nodiscard]] int var_index() const { return static_cast<int>(-enc_ - 1); }
  [[nodiscard]] rdf::TermId const_id() const {
    return static_cast<rdf::TermId>(enc_);
  }

  friend bool operator==(const AtomTerm&, const AtomTerm&) = default;
  friend auto operator<=>(const AtomTerm&, const AtomTerm&) = default;

 private:
  explicit AtomTerm(std::int64_t enc) : enc_(enc) {}
  std::int64_t enc_;
};

/// A triple pattern with variables — one sub-goal in a rule body, or a rule
/// head.
struct Atom {
  AtomTerm s, p, o;

  friend bool operator==(const Atom&, const Atom&) = default;
  friend auto operator<=>(const Atom&, const Atom&) = default;

  /// Variable indexes used by this atom, in position order (may repeat).
  [[nodiscard]] std::vector<int> variables() const;

  /// True iff the atom has no variables.
  [[nodiscard]] bool is_ground() const {
    return s.is_const() && p.is_const() && o.is_const();
  }
};

/// Maximum number of distinct variables in any rule or query pattern we
/// handle.  pD* rules use at most 6; the bound is raised to 16 so the
/// SPARQL-subset query engine (which reuses Atom/Binding) has headroom.
inline constexpr int kMaxRuleVars = 16;

/// Maximum number of atoms in a rule body or a query's basic graph
/// pattern.  The join enumerators track the atoms already matched in an
/// `unsigned` mask and test it against (1u << n) - 1, which is undefined
/// from n = 32 on, so both parsers reject longer bodies, and RuleSet and
/// query::solve_bgp throw std::invalid_argument on them.
inline constexpr std::size_t kMaxBodyAtoms = 31;

/// A partial assignment of rule variables to term ids (0 = unbound).
using Binding = std::array<rdf::TermId, kMaxRuleVars>;

/// One datalog rule: head <- body[0] AND body[1] AND ...
///
/// The paper's key observation (§II) is that the rules compiled from an
/// OWL-Horst ontology are *single-join*: bodies of exactly two atoms sharing
/// one variable.  The generic representation here supports any body size —
/// needed for the uncompiled pD* rules and the one exception (the sameAs
/// propagation rule) — and `is_single_join()` identifies the special class.
struct Rule {
  std::string name;
  std::vector<Atom> body;
  Atom head;
  int num_vars = 0;

  /// Every head variable must appear in the body (range restriction) and
  /// num_vars must cover all variable indexes.  Returns false otherwise.
  [[nodiscard]] bool well_formed() const;

  /// True iff the body has exactly two atoms sharing >= 1 variable.
  [[nodiscard]] bool is_single_join() const;

  /// Human-readable form, e.g. "[trans: (?a P ?b) (?b P ?c) -> (?a P ?c)]".
  [[nodiscard]] std::string to_string(const rdf::Dictionary& dict) const;

  friend bool operator==(const Rule&, const Rule&) = default;
};

/// An ordered collection of rules with name lookup.  Both ways in throw
/// std::invalid_argument on a body of more than kMaxBodyAtoms atoms.
class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(std::vector<Rule> rules);

  void add(Rule rule);
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  [[nodiscard]] const Rule& operator[](std::size_t i) const {
    return rules_[i];
  }

  /// First rule with the given name, or nullptr.
  [[nodiscard]] const Rule* find(std::string_view name) const;

 private:
  std::vector<Rule> rules_;
};

/// Render a short, compact lexical form for a term id (IRI local names only).
[[nodiscard]] std::string short_term(rdf::TermId id,
                                     const rdf::Dictionary& dict);

/// Match `atom` against a concrete triple, extending `binding`.  Returns
/// false on a constant mismatch or an inconsistent repeated variable; the
/// binding may be partially updated on failure (callers save/restore).
bool bind_atom(const Atom& atom, const rdf::Triple& t, Binding& binding);

/// The store pattern for `atom` under a (partial) binding: constants and
/// bound variables become concrete ids, unbound variables become wildcards.
[[nodiscard]] rdf::TriplePattern to_pattern(const Atom& atom,
                                            const Binding& binding);

/// The most-bound-first join order every body and BGP enumerator uses:
/// among the atoms not in `done_mask` (at least one), the one with the most
/// positions bound under `binding`, the first on ties.  With one atom left
/// (every two-atom rule once its pivot is bound) the scan is skipped.
[[nodiscard]] inline std::size_t most_bound_atom(std::span<const Atom> atoms,
                                                 unsigned done_mask,
                                                 const Binding& binding) {
  const unsigned remaining = ((1u << atoms.size()) - 1) & ~done_mask;
  if ((remaining & (remaining - 1)) == 0) {
    return static_cast<std::size_t>(std::countr_zero(remaining));
  }
  std::size_t best = atoms.size();
  int best_bound = -1;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if ((done_mask & (1u << i)) != 0) {
      continue;
    }
    const rdf::TriplePattern p = to_pattern(atoms[i], binding);
    const int bound = (p.s != rdf::kAnyTerm) + (p.p != rdf::kAnyTerm) +
                      (p.o != rdf::kAnyTerm);
    if (bound > best_bound) {
      best_bound = bound;
      best = i;
    }
  }
  return best;
}

}  // namespace parowl::rules
