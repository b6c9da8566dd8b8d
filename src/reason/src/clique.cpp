#include "clique_closure.hpp"

#include <algorithm>
#include <limits>

namespace parowl::reason {
namespace {

constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

bool distinct_vars(const rules::AtomTerm& a, const rules::AtomTerm& b) {
  return a.is_var() && b.is_var() && a != b;
}

/// (?a p ?b) -> (?b p ?a) with a constant p.
bool is_symmetric(const rules::Rule& r) {
  if (r.body.size() != 1) {
    return false;
  }
  const rules::Atom& b = r.body[0];
  return b.p.is_const() && distinct_vars(b.s, b.o) && r.head.p == b.p &&
         r.head.s == b.o && r.head.o == b.s;
}

/// (?a p ?b) (?b p ?c) -> (?a p ?c), body in either order, with a constant
/// p and three distinct variables.  Returns the shared variable's index, or
/// -1 when the shape does not match.
int transitive_middle(const rules::Rule& r) {
  if (r.body.size() != 2 || !r.head.p.is_const()) {
    return -1;
  }
  for (int first = 0; first < 2; ++first) {
    const rules::Atom& ab = r.body[static_cast<std::size_t>(first)];
    const rules::Atom& bc = r.body[static_cast<std::size_t>(1 - first)];
    if (ab.p != r.head.p || bc.p != r.head.p) {
      return -1;
    }
    if (distinct_vars(ab.s, ab.o) && distinct_vars(ab.o, bc.o) &&
        distinct_vars(ab.s, bc.o) && ab.o == bc.s && r.head.s == ab.s &&
        r.head.o == bc.o) {
      return ab.o.var_index();
    }
  }
  return -1;
}

}  // namespace

CliqueAnalysis analyze_cliques(const rules::RuleSet& rules) {
  CliqueAnalysis out;
  out.roles.assign(rules.size(), CliqueRole::kNone);
  out.middle_var.assign(rules.size(), -1);
  // Per predicate: whether a symmetric rule exists, and the first
  // transitive rule (the one credited with the operator's output).
  rdf::IdMap<std::uint8_t> has_symmetric;
  rdf::IdMap<std::uint32_t> first_transitive;  // rule index + 1
  std::vector<rdf::TermId> order;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const rules::Rule& rule = rules[r];
    if (is_symmetric(rule)) {
      const rdf::TermId p = rule.head.p.const_id();
      if (has_symmetric.find(p) == nullptr &&
          first_transitive.find(p) == nullptr) {
        order.push_back(p);
      }
      has_symmetric[p] = 1;
      out.roles[r] = CliqueRole::kSymmetric;
    } else if (const int mid = transitive_middle(rule); mid >= 0) {
      const rdf::TermId p = rule.head.p.const_id();
      std::uint32_t& slot = first_transitive[p];
      if (slot == 0) {
        if (has_symmetric.find(p) == nullptr) {
          order.push_back(p);
        }
        slot = static_cast<std::uint32_t>(r) + 1;
      }
      out.roles[r] = CliqueRole::kTransitive;
      out.middle_var[r] = static_cast<std::int8_t>(mid);
    }
  }
  for (const rdf::TermId p : order) {
    const std::uint32_t* trans = first_transitive.find(p);
    if (has_symmetric.find(p) != nullptr && trans != nullptr) {
      out.predicates.push_back(CliquePredicate{p, *trans - 1});
    }
  }
  // A predicate with only one half keeps its rule on the generic join.
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (out.roles[r] == CliqueRole::kNone) {
      continue;
    }
    const rdf::TermId p = rules[r].head.p.const_id();
    if (has_symmetric.find(p) == nullptr ||
        first_transitive.find(p) == nullptr) {
      out.roles[r] = CliqueRole::kNone;
      out.middle_var[r] = -1;
    }
  }
  return out;
}

CliqueClosure::CliqueClosure(std::span<const CliquePredicate> predicates,
                             const rdf::Dictionary* dict)
    : dict_(dict) {
  forests_.resize(predicates.size());
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    forests_[i].pred = predicates[i];
    forest_of_[predicates[i].predicate] = static_cast<std::uint32_t>(i) + 1;
  }
}

bool CliqueClosure::is_literal(rdf::TermId id) const {
  return dict_ != nullptr && dict_->kind(id) == rdf::TermKind::kLiteral;
}

std::uint32_t CliqueClosure::node(Forest& f, rdf::TermId term) {
  std::uint32_t& slot = f.node_of[term];
  if (slot == 0) {
    const auto n = static_cast<std::uint32_t>(f.parent.size());
    f.parent.push_back(n);
    f.comps.emplace_back().members.push_back(term);
    slot = n + 1;
  }
  return slot - 1;
}

std::uint32_t CliqueClosure::find(Forest& f, std::uint32_t n) {
  std::uint32_t root = n;
  while (f.parent[root] != root) {
    root = f.parent[root];
  }
  while (f.parent[n] != root) {
    const std::uint32_t next = f.parent[n];
    f.parent[n] = root;
    n = next;
  }
  return root;
}

void CliqueClosure::unite(Forest& f, std::uint32_t a, std::uint32_t b) {
  a = find(f, a);
  b = find(f, b);
  if (a == b) {
    f.comps[a].reflexive = true;
    return;
  }
  if (f.comps[a].members.size() < f.comps[b].members.size()) {
    std::swap(a, b);
  }
  Component& big = f.comps[a];
  Component& small = f.comps[b];
  big.members.insert(big.members.end(), small.members.begin(),
                     small.members.end());
  big.sinks.insert(big.sinks.end(), small.sinks.begin(), small.sinks.end());
  big.reflexive = true;
  small = Component{};
  f.parent[b] = a;
}

std::uint32_t CliqueClosure::add_edge(Forest& f, const rdf::Triple& t) {
  const bool s_lit = is_literal(t.s);
  const bool o_lit = is_literal(t.o);
  if (s_lit && o_lit) {
    return kNoNode;
  }
  if (s_lit) {
    const std::uint32_t n = node(f, t.o);
    Component& c = f.comps[find(f, n)];
    c.sinks.push_back(t.s);
    c.reflexive = true;
    return n;
  }
  const std::uint32_t n = node(f, t.s);
  if (o_lit) {
    f.comps[find(f, n)].sinks.push_back(t.o);
  } else {
    unite(f, n, node(f, t.o));  // a self-loop makes n's component reflexive
  }
  return n;
}

void CliqueClosure::rebuild(const rdf::TripleStore& store) {
  scan_next_ = false;
  for (Forest& f : forests_) {
    f.node_of.clear();
    f.parent.clear();
    f.comps.clear();
    const std::span<const rdf::Triple> edges =
        store.with_predicate(f.pred.predicate);
    for (const rdf::Triple& t : edges) {
      add_edge(f, t);
    }
    f.absorbed = edges.size();
    scan_next_ = scan_next_ || !edges.empty();
  }
}

std::size_t CliqueClosure::close_round(
    const rdf::TripleStore& store, std::size_t lo,
    std::vector<rdf::Triple>& out, std::vector<std::uint32_t>& rules,
    std::vector<std::size_t>& attempts_per_rule) {
  std::size_t components = 0;
  ++round_;
  touched_.clear();
  bool scan = scan_next_;
  for (Forest& f : forests_) {
    const std::size_t n = store.with_predicate(f.pred.predicate).size();
    scan = scan || n != f.absorbed;
    f.absorbed = n;
  }
  scan_next_ = false;
  if (!scan) {
    return 0;
  }
  const std::vector<rdf::Triple>& log = store.triples();
  for (std::size_t i = lo; i < log.size(); ++i) {
    const std::uint32_t* slot = forest_of_.find(log[i].p);
    if (slot == nullptr) {
      continue;
    }
    const std::uint32_t n = add_edge(forests_[*slot - 1], log[i]);
    if (n != kNoNode) {
      touched_.emplace_back(*slot - 1, n);
    }
  }
  for (const auto& [fi, n] : touched_) {
    Forest& f = forests_[fi];
    Component& c = f.comps[find(f, n)];
    if (c.visited == round_) {
      continue;
    }
    c.visited = round_;
    ++components;
    std::sort(c.sinks.begin(), c.sinks.end());
    c.sinks.erase(std::unique(c.sinks.begin(), c.sinks.end()), c.sinks.end());
    if (!c.reflexive || size_of(c) == c.closed_size) {
      continue;  // nothing derivable, or closed at this size already
    }
    c.closed_size = size_of(c);
    const rdf::TermId p = f.pred.predicate;
    const std::uint32_t rule = f.pred.transitive_rule;
    const auto emit = [&](rdf::TermId s, rdf::TermId o) {
      const rdf::Triple t{s, p, o};
      if (!store.contains(t)) {
        out.push_back(t);
        rules.push_back(rule);
      }
    };
    for (const rdf::TermId m : c.members) {
      for (const rdf::TermId o : c.members) {
        emit(m, o);
      }
      for (const rdf::TermId o : c.sinks) {
        emit(m, o);
      }
    }
    attempts_per_rule[rule] +=
        c.members.size() * (c.members.size() + c.sinks.size());
  }
  return components;
}

}  // namespace parowl::reason
