#include "clique_closure.hpp"

#include <algorithm>

namespace parowl::reason {
namespace {

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

bool CliqueForest::add(const rdf::Triple& t) {
  const bool s_lit = is_literal(t.s);
  const bool o_lit = is_literal(t.o);
  if (s_lit && o_lit) {
    last_ = kNoNode;
    return false;
  }
  if (s_lit) {
    last_ = node(t.o);
    const std::uint32_t root = find(last_);
    const bool changed = attach(root, t.s) || !comps_[root].reflexive;
    comps_[root].reflexive = true;
    return changed;
  }
  last_ = node(t.s);
  if (o_lit) {
    return attach(find(last_), t.o);
  }
  return unite(last_, node(t.o));  // a self-loop makes it reflexive
}

void CliqueForest::clear() {
  node_of_.clear();
  parent_.clear();
  comps_.clear();
  sink_keys_.reset();
  last_ = kNoNode;
}

std::uint32_t CliqueForest::node(rdf::TermId term) {
  std::uint32_t& slot = node_of_[term];
  if (slot == 0) {
    const auto n = static_cast<std::uint32_t>(parent_.size());
    parent_.push_back(n);
    comps_.emplace_back().members.push_back(term);
    slot = n + 1;
  }
  return slot - 1;
}

std::uint32_t CliqueForest::find(std::uint32_t n) {
  std::uint32_t root = n;
  while (parent_[root] != root) {
    root = parent_[root];
  }
  while (parent_[n] != root) {
    const std::uint32_t next = parent_[n];
    parent_[n] = root;
    n = next;
  }
  return root;
}

bool CliqueForest::unite(std::uint32_t a, std::uint32_t b) {
  a = find(a);
  b = find(b);
  if (a == b) {
    const bool changed = !comps_[a].reflexive;
    comps_[a].reflexive = true;
    return changed;
  }
  if (comps_[a].members.size() < comps_[b].members.size()) {
    std::swap(a, b);
  }
  Component& big = comps_[a];
  Component& small = comps_[b];
  big.members.insert(big.members.end(), small.members.begin(),
                     small.members.end());
  for (const rdf::TermId lit : small.sinks) {
    attach(a, lit);
  }
  big.reflexive = true;
  small = Component{};
  parent_[b] = a;
  return true;
}

bool CliqueForest::attach(std::uint32_t root, rdf::TermId lit) {
  if (!sink_keys_.insert(rdf::Triple{root + 1, 1, lit})) {
    return false;
  }
  comps_[root].sinks.push_back(lit);
  return true;
}

namespace {

/// Where a term's owner is: 0 = this worker, 1 = another, 2 = nobody.
int owner_class(rdf::TermId term, CliqueOwners owners) {
  const auto it = owners.owners->find(term);
  if (it == owners.owners->end()) {
    return 2;
  }
  return it->second == owners.self ? 0 : 1;
}

}  // namespace

void CliqueForest::keep(std::span<const rdf::TermId> terms,
                        CliqueOwners owners, Kept& kept) {
  kept.here.clear();
  kept.near.clear();
  for (const rdf::TermId t : terms) {
    const int cls = owner_class(t, owners);
    if (cls == 0) {
      kept.here.push_back(t);
    }
    if (cls != 1) {
      kept.near.push_back(t);
    }
  }
}

std::size_t CliqueForest::close(std::uint32_t node, rdf::TermId p,
                                const rdf::TripleStore& store,
                                std::vector<rdf::Triple>& out,
                                CliqueOwners owners) {
  Component& c = component(node);
  if (!c.reflexive || c.size() == c.closed_size) {
    return 0;  // nothing derivable, or closed at this size already
  }
  c.closed_size = c.size();
  std::sort(c.sinks.begin(), c.sinks.end());
  std::size_t checked = 0;
  const auto row = [&](rdf::TermId s, std::span<const rdf::TermId> os) {
    checked += os.size();
    for (const rdf::TermId o : os) {
      const rdf::Triple t{s, p, o};
      if (!store.contains(t)) {
        out.push_back(t);
      }
    }
  };
  if (owners.owners == nullptr) {
    for (const rdf::TermId m : c.members) {
      row(m, c.members);
      row(m, c.sinks);
    }
    return checked;
  }
  // A row keeps, in order, every column for a subject owned here, the
  // owned-here columns for one owned elsewhere, and the owned-here or
  // unowned columns for an unowned one.
  keep(c.members, owners, members_);
  keep(c.sinks, owners, sinks_);
  for (const rdf::TermId m : c.members) {
    switch (owner_class(m, owners)) {
      case 0:
        row(m, c.members);
        row(m, c.sinks);
        break;
      case 1:
        row(m, members_.here);
        row(m, sinks_.here);
        break;
      default:
        row(m, members_.near);
        row(m, sinks_.near);
        break;
    }
  }
  return checked;
}

CliqueForests::CliqueForests(std::span<const CliquePredicate> predicates,
                             const rdf::Dictionary* dict)
    : preds_(predicates.begin(), predicates.end()),
      forests_(predicates.size(), CliqueForest(dict)) {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    slot_of_[preds_[i].predicate] = static_cast<std::uint32_t>(i) + 1;
  }
}

bool CliqueForests::fold(const rdf::Triple& t) {
  const std::uint32_t* slot = slot_of_.find(t.p);
  if (slot == nullptr) {
    return false;
  }
  CliqueForest& forest = forests_[*slot - 1];
  const bool changed = forest.add(t);
  if (forest.last_node() != CliqueForest::kNoNode) {
    touched_.emplace_back(*slot - 1, forest.last_node());
  }
  return changed;
}

std::size_t CliqueForests::close_touched(
    const rdf::TripleStore& store, std::vector<rdf::Triple>& out,
    std::vector<std::uint32_t>& rules,
    std::vector<std::size_t>& attempts_per_rule, CliqueOwners owners) {
  std::size_t components = 0;
  ++pass_;
  for (const auto& [fi, n] : touched_) {
    CliqueForest& forest = forests_[fi];
    CliqueForest::Component& c = forest.component(n);
    if (c.visited == pass_) {
      continue;
    }
    c.visited = pass_;
    ++components;
    const CliquePredicate& pred = preds_[fi];
    const std::size_t before = out.size();
    attempts_per_rule[pred.transitive_rule] +=
        forest.close(n, pred.predicate, store, out, owners);
    rules.resize(rules.size() + out.size() - before, pred.transitive_rule);
  }
  touched_.clear();
  return components;
}

void CliqueForests::clear() {
  for (CliqueForest& forest : forests_) {
    forest.clear();
  }
  touched_.clear();
}

CliqueClosure::CliqueClosure(std::span<const CliquePredicate> predicates,
                             const rdf::Dictionary* dict)
    : forests_(predicates, dict), absorbed_(predicates.size(), 0) {}

void CliqueClosure::rebuild(const rdf::TripleStore& store) {
  forests_.clear();
  scan_next_ = false;
  const std::span<const CliquePredicate> preds = forests_.predicates();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::span<const rdf::Triple> edges =
        store.with_predicate(preds[i].predicate);
    for (const rdf::Triple& t : edges) {
      forests_.fold(t);
    }
    absorbed_[i] = edges.size();
    scan_next_ = scan_next_ || !edges.empty();
  }
  forests_.drop_touched();
}

std::size_t CliqueClosure::close_round(
    const rdf::TripleStore& store, std::size_t lo,
    std::vector<rdf::Triple>& out, std::vector<std::uint32_t>& rules,
    std::vector<std::size_t>& attempts_per_rule) {
  bool scan = scan_next_;
  const std::span<const CliquePredicate> preds = forests_.predicates();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const std::size_t n = store.with_predicate(preds[i].predicate).size();
    scan = scan || n != absorbed_[i];
    absorbed_[i] = n;
  }
  scan_next_ = false;
  if (!scan) {
    return 0;
  }
  const std::vector<rdf::Triple>& log = store.triples();
  for (std::size_t i = lo; i < log.size(); ++i) {
    forests_.fold(log[i]);
  }
  return forests_.close_touched(store, out, rules, attempts_per_rule);
}

}  // namespace parowl::reason
