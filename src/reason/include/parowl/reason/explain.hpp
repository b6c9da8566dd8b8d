#pragma once

#include <memory>
#include <string>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::reason {

/// One node of a proof tree: a triple plus how it was obtained — either an
/// asserted base fact or a rule application over premise subtrees.
struct Derivation {
  rdf::Triple triple;
  bool asserted = false;              // true: present in the base store
  std::string rule_name;              // rule that produced it (if derived)
  std::vector<std::unique_ptr<Derivation>> premises;
};

/// Options for proof search.
struct ExplainOptions {
  /// Maximum proof depth (guards against pathological rule sets).
  std::size_t max_depth = 32;
};

/// Explains triples of a *materialized* store against the base facts it was
/// materialized from: finds, for a given triple, a rule application whose
/// premises are in the store and recursively explains those premises until
/// everything bottoms out at base facts.
///
/// Because the store is a fixpoint, every derived triple has a proof.  The
/// search is depth-first: it tries the rules in rule-set order, each rule's
/// body instantiations in join order (rules::join_body), and returns the
/// first proof whose premises all bottom out at base facts within the depth
/// bound without revisiting a triple on the current path.  That proof is
/// not necessarily the shallowest one.
class Explainer {
 public:
  /// `materialized` must contain the closure; `base` the asserted leaves;
  /// `rules` the rule set the closure was computed with.  When the closure
  /// was computed with *compiled* rules (CompiledRules::rules), `base` must
  /// also include CompiledRules::ground_facts — the schema-level closure the
  /// compiler folded into constants, which the compiled rules cannot
  /// re-derive.
  Explainer(const rdf::TripleStore& materialized,
            const rdf::TripleStore& base, const rules::RuleSet& rules,
            ExplainOptions options = {});

  /// Build a proof tree for `t`; returns nullptr if the triple is not in
  /// the materialized store or no proof could be reconstructed within the
  /// depth bound.
  [[nodiscard]] std::unique_ptr<Derivation> explain(const rdf::Triple& t) const;

  /// Render a proof tree as indented text.
  [[nodiscard]] std::string to_text(const Derivation& proof,
                                    const rdf::Dictionary& dict) const;

 private:
  std::unique_ptr<Derivation> prove(const rdf::Triple& t, std::size_t depth,
                                    std::vector<rdf::Triple>& on_path) const;

  const rdf::TripleStore& materialized_;
  const rdf::TripleStore& base_;
  const rules::RuleSet& rules_;
  ExplainOptions options_;
};

}  // namespace parowl::reason
