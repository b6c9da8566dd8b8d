#pragma once

#include <cstdint>
#include <vector>

#include "parowl/rdf/term.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::reason {

/// The role a rule plays for a symmetric-transitive predicate p.
enum class CliqueRole : std::uint8_t {
  kNone,
  kSymmetric,   // (?a p ?b) -> (?b p ?a)
  kTransitive,  // (?a p ?b) (?b p ?c) -> (?a p ?c)
};

/// A constant predicate whose rule set holds both a symmetric and a
/// transitive rule (compiled rdfp3+rdfp4, or rdfp6+rdfp7 for owl:sameAs).
struct CliquePredicate {
  rdf::TermId predicate = rdf::kAnyTerm;
  std::uint32_t transitive_rule = 0;  // credited with the operator's output
};

/// Rule-shape analysis: every clique predicate of `rules` (in first-rule
/// order) and, per rule, its role — kNone for every rule of a predicate that
/// lacks either half.  `middle_var[r]` is the shared variable of a
/// transitive rule r.
struct CliqueAnalysis {
  std::vector<CliquePredicate> predicates;
  std::vector<CliqueRole> roles;
  std::vector<std::int8_t> middle_var;
};

[[nodiscard]] CliqueAnalysis analyze_cliques(const rules::RuleSet& rules);

}  // namespace parowl::reason
