#include "parowl/rules/rule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace parowl::rules {

std::vector<int> Atom::variables() const {
  std::vector<int> vars;
  for (const AtomTerm& t : {s, p, o}) {
    if (t.is_var()) {
      vars.push_back(t.var_index());
    }
  }
  return vars;
}

bool Rule::well_formed() const {
  if (body.empty()) {
    return false;
  }
  std::vector<bool> bound(static_cast<std::size_t>(kMaxRuleVars), false);
  int max_var = -1;
  for (const Atom& a : body) {
    for (int v : a.variables()) {
      if (v < 0 || v >= kMaxRuleVars) {
        return false;
      }
      bound[static_cast<std::size_t>(v)] = true;
      max_var = std::max(max_var, v);
    }
  }
  for (int v : head.variables()) {
    if (v < 0 || v >= kMaxRuleVars ||
        !bound[static_cast<std::size_t>(v)]) {
      return false;  // head variable not range-restricted
    }
    max_var = std::max(max_var, v);
  }
  return num_vars >= max_var + 1;
}

bool Rule::is_single_join() const {
  if (body.size() != 2) {
    return false;
  }
  const auto v0 = body[0].variables();
  const auto v1 = body[1].variables();
  return std::ranges::any_of(v0, [&](int v) {
    return std::ranges::find(v1, v) != v1.end();
  });
}

std::string short_term(rdf::TermId id, const rdf::Dictionary& dict) {
  const std::string& lex = dict.lexical(id);
  const auto hash = lex.rfind('#');
  if (hash != std::string::npos && hash + 1 < lex.size()) {
    return lex.substr(hash + 1);
  }
  const auto slash = lex.rfind('/');
  if (slash != std::string::npos && slash + 1 < lex.size()) {
    return lex.substr(slash + 1);
  }
  return lex;
}

namespace {
std::string render(const AtomTerm& t, const rdf::Dictionary& dict) {
  if (t.is_var()) {
    return "?" + std::string(1, static_cast<char>('a' + t.var_index()));
  }
  return short_term(t.const_id(), dict);
}

std::string render(const Atom& a, const rdf::Dictionary& dict) {
  return "(" + render(a.s, dict) + " " + render(a.p, dict) + " " +
         render(a.o, dict) + ")";
}
}  // namespace

std::string Rule::to_string(const rdf::Dictionary& dict) const {
  std::string out = "[" + name + ": ";
  for (const Atom& a : body) {
    out += render(a, dict) + " ";
  }
  out += "-> " + render(head, dict) + "]";
  return out;
}

bool bind_atom(const Atom& atom, const rdf::Triple& t, Binding& binding) {
  auto bind = [&binding](const AtomTerm& at, rdf::TermId value) {
    if (at.is_const()) {
      return at.const_id() == value;
    }
    auto& slot = binding[static_cast<std::size_t>(at.var_index())];
    if (slot != rdf::kAnyTerm && slot != value) {
      return false;
    }
    slot = value;
    return true;
  };
  return bind(atom.s, t.s) && bind(atom.p, t.p) && bind(atom.o, t.o);
}

rdf::TriplePattern to_pattern(const Atom& atom, const Binding& binding) {
  auto resolve = [&binding](const AtomTerm& at) {
    if (at.is_const()) {
      return at.const_id();
    }
    return binding[static_cast<std::size_t>(at.var_index())];
  };
  return rdf::TriplePattern{resolve(atom.s), resolve(atom.p),
                            resolve(atom.o)};
}

namespace {

void check_body_size(const Rule& rule) {
  if (rule.body.size() > kMaxBodyAtoms) {
    throw std::invalid_argument(
        "rule " + rule.name + " has " + std::to_string(rule.body.size()) +
        " body atoms; at most " + std::to_string(kMaxBodyAtoms) +
        " are supported");
  }
}

}  // namespace

RuleSet::RuleSet(std::vector<Rule> rules) : rules_(std::move(rules)) {
  for (const Rule& r : rules_) {
    check_body_size(r);
  }
}

void RuleSet::add(Rule rule) {
  check_body_size(rule);
  rules_.push_back(std::move(rule));
}

const Rule* RuleSet::find(std::string_view name) const {
  for (const Rule& r : rules_) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace parowl::rules
