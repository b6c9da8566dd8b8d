#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace parowl::rdf {

/// Parser for the Turtle subset real ontology files use:
///   * @prefix / @base directives (and SPARQL-style PREFIX/BASE),
///   * prefixed names and <IRIs> (resolved against the base when relative),
///   * `a` for rdf:type,
///   * predicate lists (`;`) and object lists (`,`),
///   * quoted literals with ^^datatype / @lang, bare integers/decimals,
///     and true/false,
///   * `_:label` blank nodes and comments.
/// Not supported (rejected with a diagnostic): collections `( ... )` and
/// anonymous blank nodes `[ ... ]`.
///
/// Returns the same ParseStats as the N-Triples parser; parsing continues
/// after a malformed statement by skipping to the next '.'.
ParseStats parse_turtle(std::istream& in, Dictionary& dict,
                        TripleStore& store);

/// Convenience overload over in-memory text.
ParseStats parse_turtle_text(std::string_view text, Dictionary& dict,
                             TripleStore& store);

// ------------------------------------------------------- parallel-ingest API
// The pieces below exist so the chunked ingest pipeline (chunked_reader.hpp)
// can split a Turtle document into fragments that parse *identically* to one
// serial pass: a conservative statement scanner to find split points, an
// environment snapshot type, and a fragment parser seeded with that state.

/// Prefix/base state of the parser at some point in the document.
struct TurtleEnv {
  std::unordered_map<std::string, std::string> prefixes;
  std::string base;
};

/// Top-level statement boundaries of a Turtle document.  `ends[i]` is the
/// byte offset just past the i-th statement-terminating '.'; `newlines[i]`
/// counts '\n' in text[0, ends[i]).  The scanner tracks literals (with
/// backslash escapes), <IRIs>, and comments, and never reports a '.' that
/// the parser could consume mid-statement (in particular a '.' followed by
/// a digit, which may belong to a decimal literal) — so every reported end
/// is a position where the serial parser is exactly between statements.
struct TurtleSpans {
  std::vector<std::size_t> ends;
  std::vector<std::size_t> newlines;
};
TurtleSpans scan_turtle_spans(std::string_view text);

/// True if `span` could change the prefix/base environment, i.e. its first
/// statement is a directive.  Cheap pre-filter for scan_turtle_env.
[[nodiscard]] bool turtle_span_declares(std::string_view span);

/// Environment after serially parsing `span` starting from `env`.  Runs the
/// real parser against scratch tables so directive success/failure/recovery
/// semantics match a serial pass exactly; triples in the span are discarded.
[[nodiscard]] TurtleEnv scan_turtle_env(std::string_view span,
                                        const TurtleEnv& env);

/// Parse a document fragment with an explicit starting environment and
/// global position (line_base = '\n' count before the fragment, byte_base =
/// the fragment's byte offset) so diagnostics carry document-global
/// line/byte numbers identical to a serial parse.  Triples are appended to
/// `out` in document order, duplicates included; the returned
/// ParseStats::duplicates is always 0 (the caller's dedup counts them).
ParseStats parse_turtle_fragment(std::string_view fragment, Dictionary& dict,
                                 std::vector<Triple>& out,
                                 const TurtleEnv& env, std::size_t line_base,
                                 std::size_t byte_base);

}  // namespace parowl::rdf
