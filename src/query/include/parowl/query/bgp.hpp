#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "parowl/rdf/triple_store.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::query {

/// A SELECT query over one basic graph pattern (BGP): conjunctive triple
/// patterns sharing variables, with projection, DISTINCT, and LIMIT.
/// This is the query layer a materialized knowledge base is built for —
/// after reasoning, plain BGP matching answers OWL queries with no runtime
/// inference.
struct SelectQuery {
  std::vector<rules::Atom> where;          // the BGP
  std::vector<std::string> variable_names; // index = variable id
  std::vector<int> projection;             // variable ids to return
  bool distinct = false;
  std::optional<std::size_t> limit;

  [[nodiscard]] int num_vars() const {
    return static_cast<int>(variable_names.size());
  }
};

/// A table of query solutions (columns parallel to SelectQuery.projection).
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<rdf::TermId>> rows;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
};

/// Enumerate the solutions of the BGP over `store`, invoking `fn` with each
/// complete binding; `fn` returns false to stop the enumeration.  The join
/// is the forward engine's (rules::join_body: most bound atom first).
/// Returns the number of solutions visited, the one that stopped it
/// included.
std::size_t solve_bgp(const rdf::TripleStore& store,
                      std::span<const rules::Atom> bgp,
                      const std::function<bool(const rules::Binding&)>& fn);

/// Evaluate a SELECT query to a result table.
[[nodiscard]] ResultSet evaluate(const rdf::TripleStore& store,
                                 const SelectQuery& query);

/// Render a result set as aligned text (variable headers, lexical values).
[[nodiscard]] std::string to_text(const ResultSet& results,
                                  const rdf::Dictionary& dict);

}  // namespace parowl::query
