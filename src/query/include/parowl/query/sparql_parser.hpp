#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "parowl/query/bgp.hpp"
#include "parowl/rdf/dictionary.hpp"

namespace parowl::query {

/// Parser for the SPARQL subset the BGP engine evaluates:
///
///   PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
///   SELECT DISTINCT ?x ?d
///   WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }
///   LIMIT 10
///
/// Supported: PREFIX (for the query that declares it), SELECT [DISTINCT]
/// (?vars... | *), WHERE with a single basic graph pattern ('.'-separated
/// triple patterns, `a` as rdf:type, IRIs, prefixed names, quoted
/// literals), LIMIT.  Keywords are case-insensitive.
class SparqlParser {
 public:
  /// Interns rdf:type (the meaning of `a`) into `dict`.
  explicit SparqlParser(rdf::Dictionary& dict);

  /// Register a namespace prefix usable by all subsequent queries.  A
  /// query's own PREFIX declarations last for that query only.
  void add_prefix(std::string name, std::string iri);

  /// Parse one query; returns std::nullopt and sets *error on failure.
  std::optional<SelectQuery> parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  rdf::Dictionary& dict_;
  rdf::TermId rdf_type_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace parowl::query
