#include "parowl/reason/explain.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "parowl/rules/match.hpp"

namespace parowl::reason {

Explainer::Explainer(const rdf::TripleStore& materialized,
                     const rdf::TripleStore& base,
                     const rules::RuleSet& rules, ExplainOptions options)
    : materialized_(materialized),
      base_(base),
      rules_(rules),
      options_(options) {}

std::unique_ptr<Derivation> Explainer::explain(const rdf::Triple& t) const {
  if (!materialized_.contains(t)) {
    return nullptr;
  }
  std::vector<rdf::Triple> on_path;
  return prove(t, options_.max_depth, on_path);
}

std::unique_ptr<Derivation> Explainer::prove(
    const rdf::Triple& t, std::size_t depth,
    std::vector<rdf::Triple>& on_path) const {
  if (base_.contains(t)) {
    auto leaf = std::make_unique<Derivation>();
    leaf->triple = t;
    leaf->asserted = true;
    return leaf;
  }
  if (depth == 0 || std::ranges::find(on_path, t) != on_path.end()) {
    return nullptr;
  }
  on_path.push_back(t);

  std::unique_ptr<Derivation> result;
  for (const rules::Rule& rule : rules_.rules()) {
    // Unify the head with the goal triple.
    rules::Binding binding{};
    if (!rules::bind_atom(rule.head, t, binding)) {
      continue;
    }
    const bool exhausted = rules::join_body(
        materialized_, rule.body, 0, binding, [&] {
          // Premises must not be the goal itself (trivial self-loops like
          // symmetric pairs are caught by the path guard when recursing).
          std::vector<std::unique_ptr<Derivation>> proofs;
          for (const rules::Atom& atom : rule.body) {
            auto sub = prove(rules::ground(atom, binding), depth - 1, on_path);
            if (!sub) {
              return true;  // try the next instantiation
            }
            proofs.push_back(std::move(sub));
          }
          result = std::make_unique<Derivation>();
          result->triple = t;
          result->rule_name = rule.name;
          result->premises = std::move(proofs);
          return false;  // proved: stop the join
        });
    if (!exhausted) {
      break;
    }
  }

  on_path.pop_back();
  return result;
}

std::string Explainer::to_text(const Derivation& proof,
                               const rdf::Dictionary& dict) const {
  std::ostringstream os;
  const std::function<void(const Derivation&, int)> render =
      [&](const Derivation& node, int indent) {
        os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
        os << "(" << rules::short_term(node.triple.s, dict) << " "
           << rules::short_term(node.triple.p, dict) << " "
           << rules::short_term(node.triple.o, dict) << ")";
        if (node.asserted) {
          os << "  [asserted]";
        } else {
          os << "  [" << node.rule_name << "]";
        }
        os << "\n";
        for (const auto& premise : node.premises) {
          render(*premise, indent + 1);
        }
      };
  render(proof, 0);
  return os.str();
}

}  // namespace parowl::reason
