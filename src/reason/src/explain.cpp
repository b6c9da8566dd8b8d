#include "parowl/reason/explain.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "parowl/rules/rule.hpp"

namespace parowl::reason {
namespace {

/// Enumerate instantiations of `body` against `store` under `binding`,
/// invoking `emit` with the premise triples of each complete match.
/// `emit` returns true to stop the enumeration (a proof was found).
bool enumerate_premises(const rdf::TripleStore& store,
                        const std::vector<rules::Atom>& body,
                        unsigned done_mask, rules::Binding& binding,
                        std::vector<rdf::Triple>& premises,
                        const std::function<bool()>& emit) {
  if (done_mask == (1u << body.size()) - 1) {
    return emit();
  }
  const std::size_t best = rules::most_bound_atom(body, done_mask, binding);
  bool stopped = false;
  store.match(rules::to_pattern(body[best], binding),
              [&](const rdf::Triple& t) {
                if (stopped) {
                  return;
                }
                rules::Binding saved = binding;
                if (rules::bind_atom(body[best], t, binding)) {
                  premises[best] = t;
                  stopped = enumerate_premises(store, body, done_mask |
                                               (1u << best),
                                               binding, premises, emit);
                }
                binding = saved;
              });
  return stopped;
}

}  // namespace

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
    std::vector<rdf::Triple> premises(rule.body.size());
    const bool found = enumerate_premises(
        materialized_, rule.body, 0, binding, premises, [&]() {
          // Premises must not be the goal itself (trivial self-loops like
          // symmetric pairs are caught by the path guard when recursing).
          std::vector<std::unique_ptr<Derivation>> proofs;
          for (const rdf::Triple& premise : premises) {
            auto sub = prove(premise, depth - 1, on_path);
            if (!sub) {
              return false;  // try the next instantiation
            }
            proofs.push_back(std::move(sub));
          }
          result = std::make_unique<Derivation>();
          result->triple = t;
          result->rule_name = rule.name;
          result->premises = std::move(proofs);
          return true;
        });
    if (found) {
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
