#include "parowl/query/equality_expand.hpp"

#include <set>
#include <utility>
#include <vector>

#include "parowl/obs/obs.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::query {
namespace {

/// Position roles a variable takes across the BGP, deciding its expansion.
struct VarRoles {
  bool subject = false;
  bool predicate = false;
  bool object = false;
};

void note_roles(const rules::AtomTerm& t, std::vector<VarRoles>& roles,
                bool VarRoles::* role) {
  if (t.is_var()) {
    roles[static_cast<std::size_t>(t.var_index())].*role = true;
  }
}

std::vector<VarRoles> classify(const SelectQuery& query) {
  std::vector<VarRoles> roles(static_cast<std::size_t>(query.num_vars()));
  for (const rules::Atom& atom : query.where) {
    note_roles(atom.s, roles, &VarRoles::subject);
    note_roles(atom.p, roles, &VarRoles::predicate);
    note_roles(atom.o, roles, &VarRoles::object);
  }
  return roles;
}

/// Shape checks + constant rewriting shared by the inline and the split
/// (router) paths.  Returns false with *message set for unsupported shapes;
/// on success *where holds the BGP with constant subjects/objects rewritten
/// into representative space.
bool preflight(const SelectQuery& query, const reason::EqualityManager& eq,
               rdf::TermId same_as, const std::vector<VarRoles>& roles,
               std::vector<rules::Atom>* where, std::string* message) {
  for (const rules::Atom& atom : query.where) {
    if (atom.p.is_const() && atom.p.const_id() == same_as) {
      *message = "owl:sameAs pattern not answerable in rewrite mode";
      return false;
    }
    if (atom.o.is_const() && eq.literal_partner(atom.o.const_id())) {
      *message =
          "constant object is a sameAs literal partner; rewrite-mode "
          "matching cannot reach it";
      return false;
    }
  }
  for (const VarRoles& r : roles) {
    if (r.predicate && (r.subject || r.object)) {
      *message =
          "variable joins predicate and subject/object positions; equality "
          "members are not recoverable in predicate position";
      return false;
    }
  }
  *where = query.where;
  for (rules::Atom& atom : *where) {
    if (atom.s.is_const()) {
      atom.s = rules::AtomTerm::constant(eq.find(atom.s.const_id()));
    }
    if (atom.o.is_const()) {
      atom.o = rules::AtomTerm::constant(eq.find(atom.o.const_id()));
    }
  }
  return true;
}

/// Which variables need expansion at all: predicate-position variables
/// never expand, and under DISTINCT non-projected variables only affect
/// multiplicity, which DISTINCT discards.
std::vector<bool> expand_flags(const SelectQuery& query,
                               const std::vector<VarRoles>& roles) {
  const auto num_vars = static_cast<std::size_t>(query.num_vars());
  std::vector<bool> expand(num_vars, false);
  for (std::size_t v = 0; v < num_vars; ++v) {
    expand[v] = (roles[v].subject || roles[v].object) && !roles[v].predicate;
  }
  if (query.distinct) {
    std::vector<bool> projected(num_vars, false);
    for (const int v : query.projection) {
      projected[static_cast<std::size_t>(v)] = true;
    }
    for (std::size_t v = 0; v < num_vars; ++v) {
      expand[v] = expand[v] && projected[v];
    }
  }
  return expand;
}

/// Fans one representative-space solution out over the class members of
/// each expandable variable (depth-first product), emitting a projected row
/// per combination, with DISTINCT dedup and post-expansion LIMIT.
struct Expander {
  const SelectQuery& query;
  const std::vector<VarRoles>& roles;
  const std::vector<bool>& expand;
  const reason::EqualityManager& eq;
  EqualityEvalResult& out;

  std::set<std::vector<rdf::TermId>> dedup;
  bool done = false;  // LIMIT met (at once for LIMIT 0)
  rules::Binding expanded{};

  void emit(const rules::Binding& binding, std::size_t v) {
    if (done) {
      return;
    }
    if (v == static_cast<std::size_t>(query.num_vars())) {
      ++out.stats.rows_out;
      std::vector<rdf::TermId> row;
      row.reserve(query.projection.size());
      for (const int p : query.projection) {
        row.push_back(expanded[static_cast<std::size_t>(p)]);
      }
      if (query.distinct && !dedup.insert(row).second) {
        return;
      }
      out.results.rows.push_back(std::move(row));
      if (query.limit && out.results.rows.size() >= *query.limit) {
        done = true;
      }
      return;
    }
    const rdf::TermId value = binding[v];
    if (!expand[v]) {
      expanded[v] = value;
      emit(binding, v + 1);
      return;
    }
    // Subject-position variables range over resource members only (the
    // literal guard keeps literals out of subject position in the naive
    // closure); object-only variables also cover literal partners.
    const std::span<const rdf::TermId> members =
        roles[v].subject ? eq.subject_members(value)
                         : eq.object_members(value);
    if (members.empty()) {
      expanded[v] = value;  // untracked term: the class is {value}
      emit(binding, v + 1);
      return;
    }
    for (const rdf::TermId m : members) {
      expanded[v] = m;
      emit(binding, v + 1);
      if (done) {
        return;
      }
    }
  }
};

}  // namespace

EqualityEvalResult evaluate_with_equality(const rdf::TripleStore& store,
                                          const SelectQuery& query,
                                          const reason::EqualityManager& eq,
                                          rdf::TermId same_as) {
  EqualityEvalResult out;
  util::Stopwatch watch;
  obs::Span span("reason.eq.expand", {{"atoms", query.where.size()}});

  const std::vector<VarRoles> roles = classify(query);
  std::vector<rules::Atom> where;
  if (!preflight(query, eq, same_as, roles, &where, &out.message)) {
    out.unsupported = true;
    return out;
  }

  for (const int v : query.projection) {
    out.results.columns.push_back(
        query.variable_names[static_cast<std::size_t>(v)]);
  }
  const std::vector<bool> expand = expand_flags(query, roles);
  Expander expander{query, roles, expand, eq, out, {}, query.limit == 0u,
                    {}};
  // LIMIT applies after expansion, so the enumeration runs to the end.
  solve_bgp(store, where, [&](const rules::Binding& binding) {
    ++out.stats.rows_in;
    expander.emit(binding, 0);
    return true;
  });
  out.stats.seconds = watch.elapsed_seconds();
  span.arg({"rows_in", out.stats.rows_in});
  span.arg({"rows_out", out.stats.rows_out});
  return out;
}

std::optional<SelectQuery> rewrite_for_equality(
    const SelectQuery& query, const reason::EqualityManager& eq,
    rdf::TermId same_as, std::string* message) {
  const std::vector<VarRoles> roles = classify(query);
  SelectQuery widened;
  if (!preflight(query, eq, same_as, roles, &widened.where, message)) {
    return std::nullopt;
  }
  // Full-width, unordered, unbounded: projection/DISTINCT/LIMIT all apply
  // to *expanded* rows, in expand_equality_results.
  widened.variable_names = query.variable_names;
  widened.projection.reserve(widened.variable_names.size());
  for (int v = 0; v < widened.num_vars(); ++v) {
    widened.projection.push_back(v);
  }
  return widened;
}

EqualityEvalResult expand_equality_results(const SelectQuery& original,
                                           const ResultSet& rep_rows,
                                           const reason::EqualityManager& eq) {
  EqualityEvalResult out;
  util::Stopwatch watch;
  obs::Span span("reason.eq.expand", {{"atoms", original.where.size()}});

  const std::vector<VarRoles> roles = classify(original);
  for (const int v : original.projection) {
    out.results.columns.push_back(
        original.variable_names[static_cast<std::size_t>(v)]);
  }
  const std::vector<bool> expand = expand_flags(original, roles);
  Expander expander{original, roles, expand, eq, out, {},
                    original.limit == 0u, {}};
  const auto num_vars = static_cast<std::size_t>(original.num_vars());
  for (const std::vector<rdf::TermId>& row : rep_rows.rows) {
    ++out.stats.rows_in;
    rules::Binding binding{};
    for (std::size_t v = 0; v < num_vars && v < row.size(); ++v) {
      binding[v] = row[v];
    }
    expander.emit(binding, 0);
    if (expander.done) {
      break;
    }
  }
  out.stats.seconds = watch.elapsed_seconds();
  span.arg({"rows_in", out.stats.rows_in});
  span.arg({"rows_out", out.stats.rows_out});
  return out;
}

}  // namespace parowl::query
