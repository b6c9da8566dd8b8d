#pragma once

// Parallel ingest pipeline: split the input into chunks at safe statement
// boundaries, parse each chunk on its own thread into a chunk-local
// dictionary and triple list, then merge so global TermIds are assigned in
// canonical first-occurrence-by-byte-offset order.  The resulting
// Dictionary and TripleStore are bit-identical to the serial parser for any
// thread count (the same invariant the materializer and the cluster runtime
// keep for closure).
//
// Stages (all on one util::ThreadTeam):
//   1. scan   — find split points: newline boundaries (N-Triples) or the
//               conservative top-level statement scanner (Turtle), plus the
//               prefix/base environment at each chunk start.
//   2. parse  — each thread parses its chunk into a local Dictionary and a
//               plain triple list with the shared serial line parser,
//               recording local ParseStats and error positions.  No local
//               store and no local dedup.
//   3. merge  — Dictionary::absorb resolves every term's first occurrence
//               in chunk order on hash-sharded workers and numbers the new
//               ones serially (== serial first-occurrence ids); triples are
//               remapped per chunk into one batch, and
//               TripleStore::insert_all keeps each first occurrence in
//               batch order (== the serial insertion log; every other
//               occurrence is a duplicate); diagnostics are rebased to
//               document-global line/byte positions.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "parowl/obs/options.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace parowl::rdf {

struct IngestOptions {
  /// Worker threads for the parse and merge stages; 0 = hardware
  /// concurrency.
  unsigned threads = 1;

  /// Observability sinks/sampling (docs/architecture.md "Observability").
  obs::ObsOptions obs;

  /// Streaming consumer invoked at the end of the merge stage with each
  /// chunk's newly inserted (deduplicated, globally interned) slice of the
  /// store's insertion log, in chunk order; the serial path makes one
  /// slice.  The concatenation of the slices is the store's full
  /// appended range in canonical order, independent of `threads` — the same
  /// bit-identity invariant the parser itself keeps — so streaming
  /// partitioners can consume the ingest without a second pass.  Called on
  /// the merging thread; the spans alias the store and are only valid for
  /// the duration of the call.
  std::function<void(std::span<const Triple>)> chunk_sink;
};

struct IngestStats {
  ParseStats parse;            // identical to the serial parser's stats
  std::size_t bytes = 0;       // input size
  unsigned threads_used = 1;   // parse-stage threads actually spawned
  double read_seconds = 0.0;   // open + map (ingest_file only)
  double scan_seconds = 0.0;   // boundary scan + env pre-pass
  double parse_seconds = 0.0;  // parallel chunk parsing (wall clock)
  double merge_seconds = 0.0;  // dictionary merge + remap + store insert
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const IngestStats& s);

/// Newline-aligned chunk boundaries for `text` (for N-Triples input):
/// `chunks + 1` offsets, first 0, last text.size(), each interior boundary
/// just past a '\n'.  Degenerate inputs may yield fewer chunks.
std::vector<std::size_t> chunk_newline_boundaries(std::string_view text,
                                                  unsigned chunks);

/// Parse N-Triples / Turtle text into `dict` + `store` with
/// `options.threads` workers.  Dictionary, store, and ParseStats are
/// bit-identical to parse_ntriples / parse_turtle_text on the same text.
IngestStats ingest_ntriples(std::string_view text, Dictionary& dict,
                            TripleStore& store,
                            const IngestOptions& options = {});
IngestStats ingest_turtle(std::string_view text, Dictionary& dict,
                          TripleStore& store,
                          const IngestOptions& options = {});

/// Map `path` read-only and ingest the mapped bytes in place (".ttl"
/// parses as Turtle, anything else as N-Triples); the parse threads read
/// the pages in themselves.  Returns false with *error when the file cannot
/// be opened or mapped or is not a regular file (a FIFO, a directory, a
/// device).  Precondition: nothing truncates the file while it is being
/// ingested — a page past the new end faults, and the process ends with
/// SIGBUS rather than getting a read error.
bool ingest_file(const std::string& path, Dictionary& dict,
                 TripleStore& store, IngestStats& stats,
                 const IngestOptions& options = {},
                 std::string* error = nullptr);

}  // namespace parowl::rdf
