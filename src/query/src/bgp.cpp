#include "parowl/query/bgp.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "parowl/util/table.hpp"

namespace parowl::query {
namespace {

struct Enumerator {
  const rdf::TripleStore& store;
  std::span<const rules::Atom> bgp;
  const std::function<void(const rules::Binding&)>& fn;
  std::size_t solutions = 0;

  void recurse(unsigned done_mask, rules::Binding& binding) {
    if (done_mask == (1u << bgp.size()) - 1) {
      ++solutions;
      fn(binding);
      return;
    }
    const std::size_t best = rules::most_bound_atom(bgp, done_mask, binding);
    const auto pattern = rules::to_pattern(bgp[best], binding);
    store.match(pattern, [&](const rdf::Triple& t) {
      rules::Binding saved = binding;
      if (rules::bind_atom(bgp[best], t, binding)) {
        recurse(done_mask | (1u << best), binding);
      }
      binding = saved;
    });
  }
};

}  // namespace

std::size_t solve_bgp(const rdf::TripleStore& store,
                      std::span<const rules::Atom> bgp, int num_vars,
                      const std::function<void(const rules::Binding&)>& fn) {
  (void)num_vars;
  if (bgp.size() > rules::kMaxBodyAtoms) {
    throw std::invalid_argument(
        "basic graph pattern has " + std::to_string(bgp.size()) +
        " atoms; at most " + std::to_string(rules::kMaxBodyAtoms) +
        " are supported");
  }
  if (bgp.empty()) {
    return 0;
  }
  Enumerator e{store, bgp, fn};
  rules::Binding binding{};
  e.recurse(0, binding);
  return e.solutions;
}

ResultSet evaluate(const rdf::TripleStore& store, const SelectQuery& query) {
  ResultSet results;
  for (const int v : query.projection) {
    results.columns.push_back(query.variable_names[static_cast<std::size_t>(v)]);
  }

  std::set<std::vector<rdf::TermId>> dedup;
  bool done = false;
  solve_bgp(store, query.where, query.num_vars(),
            [&](const rules::Binding& binding) {
              if (done) {
                return;
              }
              std::vector<rdf::TermId> row;
              row.reserve(query.projection.size());
              for (const int v : query.projection) {
                row.push_back(binding[static_cast<std::size_t>(v)]);
              }
              if (query.distinct && !dedup.insert(row).second) {
                return;
              }
              results.rows.push_back(std::move(row));
              if (query.limit && results.rows.size() >= *query.limit) {
                done = true;  // stop collecting (enumeration still finishes)
              }
            });
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
