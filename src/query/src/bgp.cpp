#include "parowl/query/bgp.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "parowl/obs/trace.hpp"
#include "parowl/rules/match.hpp"
#include "parowl/util/table.hpp"

namespace parowl::query {

std::size_t solve_bgp(const rdf::TripleStore& store,
                      std::span<const rules::Atom> bgp,
                      const std::function<bool(const rules::Binding&)>& fn) {
  if (bgp.size() > rules::kMaxBodyAtoms) {
    throw std::invalid_argument(
        "basic graph pattern has " + std::to_string(bgp.size()) +
        " atoms; at most " + std::to_string(rules::kMaxBodyAtoms) +
        " are supported");
  }
  if (bgp.empty()) {
    return 0;
  }
  std::size_t solutions = 0;
  rules::Binding binding{};
  rules::join_body(store, bgp, 0, binding, [&] {
    ++solutions;
    return fn(binding);
  });
  return solutions;
}

ResultSet evaluate(const rdf::TripleStore& store, const SelectQuery& query) {
  obs::Span span("query.evaluate", {{"atoms", query.where.size()}});
  ResultSet results;
  for (const int v : query.projection) {
    results.columns.push_back(query.variable_names[static_cast<std::size_t>(v)]);
  }

  if (query.limit == 0u) {
    span.arg({"rows", 0});
    return results;  // LIMIT 0: the limit is met before the first row
  }
  std::set<std::vector<rdf::TermId>> dedup;
  solve_bgp(store, query.where, [&](const rules::Binding& binding) {
    std::vector<rdf::TermId> row;
    row.reserve(query.projection.size());
    for (const int v : query.projection) {
      row.push_back(binding[static_cast<std::size_t>(v)]);
    }
    if (query.distinct && !dedup.insert(row).second) {
      return true;
    }
    results.rows.push_back(std::move(row));
    return !query.limit || results.rows.size() < *query.limit;  // LIMIT
  });
  span.arg({"rows", results.rows.size()});
  return results;
}

std::string to_text(const ResultSet& results, const rdf::Dictionary& dict) {
  util::Table table(
      [&] {
        std::vector<std::string> header;
        for (const std::string& c : results.columns) {
          header.push_back("?" + c);
        }
        return header;
      }());
  for (const auto& row : results.rows) {
    std::vector<std::string> cells;
    for (const rdf::TermId id : row) {
      cells.push_back(id == rdf::kAnyTerm ? "?" : dict.lexical(id));
    }
    table.add_row(std::move(cells));
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

}  // namespace parowl::query
