#include "parowl/rdf/chunked_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "parowl/obs/obs.hpp"
#include "parowl/rdf/turtle.hpp"
#include "parowl/util/strings.hpp"
#include "parowl/util/thread_team.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::rdf {
namespace {

/// Everything one parse worker produces besides its dictionary: the
/// chunk's triples in document order over chunk-local TermIds, duplicates
/// included (the merge's global dedup counts them), plus stats and
/// diagnostics local to the chunk until the merge rebases them (N-Triples)
/// — the Turtle fragment parser formats globally itself.
struct ChunkResult {
  std::vector<Triple> triples;
  ParseStats stats;
  std::size_t lines = 0;  // lines scanned (N-Triples; for error rebasing)
};

unsigned resolve_threads(unsigned requested) {
  if (requested == 0) {
    requested = std::thread::hardware_concurrency();
  }
  return std::max(1u, requested);
}

/// The getline loop of parse_ntriples over a view, copying no line: each
/// parsed triple goes to `emit`; triples and bad lines are counted into
/// `stats`, and the first malformed line keeps its line/offset relative to
/// `text` in first_error_line/first_error_offset and its raw message in
/// first_error, for the caller to format.  Returns the lines scanned.
template <typename Emit>
std::size_t parse_ntriples_lines(std::string_view text, Dictionary& dict,
                                 ParseStats& stats, Emit&& emit) {
  std::string error;
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, end - pos);
    const std::size_t line_start = pos;
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    ++lines;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    error.clear();
    if (const auto t = parse_ntriples_line(line, dict, &error)) {
      ++stats.triples;
      emit(*t);
    } else {
      ++stats.bad_lines;
      if (stats.first_error_line == 0) {
        stats.first_error = error;  // raw message; the caller formats it
        stats.first_error_line = lines;
        stats.first_error_offset = line_start;
      }
    }
  }
  return lines;
}

/// Parse one newline-delimited chunk into chunk-local tables.
void parse_ntriples_chunk(std::string_view chunk, Dictionary& dict,
                          ChunkResult& out) {
  dict.reserve(Dictionary::estimate_terms(chunk.size()));
  out.lines = parse_ntriples_lines(
      chunk, dict, out.stats,
      [&out](const Triple& t) { out.triples.push_back(t); });
}

/// A whole regular file mapped read-only, unmapped on destruction.  An
/// empty file is an empty view with no mapping.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (size_ != 0) {
      ::munmap(data_, size_);
    }
  }

  /// Map `path`.  False with *error when it cannot be opened, is not a
  /// regular file (O_NONBLOCK keeps the open of a FIFO with no writer from
  /// blocking), or cannot be mapped.
  bool map(const std::string& path, std::string* error) {
    std::string message;
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    struct stat st {};
    if (fd < 0) {
      message = "cannot open " + path + ": " + std::strerror(errno);
    } else if (::fstat(fd, &st) != 0) {
      message = "cannot stat " + path + ": " + std::strerror(errno);
    } else if (!S_ISREG(st.st_mode)) {
      message = path + " is not a regular file";
    } else if (st.st_size > 0) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (data == MAP_FAILED) {
        message = "cannot map " + path + ": " + std::strerror(errno);
      } else {
        data_ = data;
        size_ = size;
      }
    }
    if (fd >= 0) {
      ::close(fd);
    }
    if (message.empty()) {
      return true;
    }
    if (error != nullptr) *error = std::move(message);
    return false;
  }

  [[nodiscard]] std::string_view view() const {
    return {static_cast<const char*>(data_), size_};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Merge the per-chunk tables into the global ones exactly as a serial
/// parse of the chunks in order would have built them, on all members of
/// `team`.  The dictionaries merge first (first occurrence in chunk order
/// takes the next id); then every chunk's triples are remapped into one
/// batch and bulk-inserted, which keeps each triple's first occurrence in
/// batch order.  After the insert, chunk i's slice of the new log — the
/// triples whose first occurrence lies in chunk i — is handed to
/// options.chunk_sink (when set), in chunk order, so streaming consumers see the same deltas
/// as a chunk-at-a-time merge.  Returns the number of parsed triples that
/// were duplicates (of earlier triples or of triples already in `store`).
std::size_t merge_chunks(std::vector<Dictionary>& dicts,
                         std::vector<ChunkResult>& chunks, Dictionary& dict,
                         TripleStore& store, const IngestOptions& options,
                         util::ThreadTeam& team) {
  std::vector<std::vector<TermId>> remaps;
  {
    PAROWL_SPAN("rdf.merge.dict", {{"chunks", dicts.size()}});
    dict.absorb(dicts, remaps, team);
  }
  PAROWL_SPAN("rdf.merge.store", {{"chunks", chunks.size()}});
  std::vector<std::size_t> offset(chunks.size() + 1, 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    offset[c + 1] = offset[c] + chunks[c].triples.size();
  }
  std::vector<Triple> batch(offset.back());
  team.for_each(chunks.size(), [&](std::size_t c) {
    const std::vector<TermId>& remap = remaps[c];
    Triple* out = batch.data() + offset[c];
    for (const Triple& t : chunks[c].triples) {
      *out++ = {remap[t.s], remap[t.p], remap[t.o]};
    }
    chunks[c].triples = {};
  });
  const std::size_t before = store.size();
  const std::size_t added = store.insert_all(batch, team);
  if (options.chunk_sink) {
    // The new log is the batch's first occurrences in batch order, so one
    // walk of the batch against it finds where each chunk's slice ends.
    const std::span<const Triple> log(store.triples());
    std::size_t j = before;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const std::size_t start = j;
      for (std::size_t i = offset[c]; i < offset[c + 1] && j < log.size();
           ++i) {
        j += batch[i] == log[j] ? 1 : 0;
      }
      if (j > start) {
        options.chunk_sink(log.subspan(start, j - start));
      }
    }
  }
  return batch.size() - added;
}

/// Serial-path variant: the whole appended range [before, size()) is one
/// chunk-sink delta.
void flush_serial_sink(const TripleStore& store, std::size_t before,
                       const IngestOptions& options) {
  if (options.chunk_sink && store.size() > before) {
    options.chunk_sink(std::span<const Triple>(store.triples())
                           .subspan(before, store.size() - before));
  }
}

void sum_stats(const std::vector<ChunkResult>& chunks, ParseStats& out) {
  for (const ChunkResult& c : chunks) {
    out.triples += c.stats.triples;
    out.bad_lines += c.stats.bad_lines;
  }
}

}  // namespace

std::vector<std::size_t> chunk_newline_boundaries(std::string_view text,
                                                  unsigned chunks) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  if (chunks > 1 && !text.empty()) {
    const std::size_t target = text.size() / chunks;
    for (unsigned i = 1; i < chunks; ++i) {
      std::size_t want = std::max(bounds.back(), i * target);
      const std::size_t nl = text.find('\n', want);
      if (nl == std::string_view::npos) break;
      const std::size_t boundary = nl + 1;
      if (boundary > bounds.back() && boundary < text.size()) {
        bounds.push_back(boundary);
      }
    }
  }
  bounds.push_back(text.size());
  return bounds;
}

IngestStats ingest_ntriples(std::string_view text, Dictionary& dict,
                            TripleStore& store,
                            const IngestOptions& options) {
  IngestStats stats;
  stats.bytes = text.size();
  obs::configure(options.obs);
  obs::Span ingest_span("rdf.ingest",
                        {{"format", "ntriples"}, {"bytes", text.size()}});
  const unsigned threads = resolve_threads(options.threads);
  util::Stopwatch sw;
  if (threads == 1) {
    // Serial fast path: no thread-local tables, no merge — the chunks'
    // per-line loop straight into the global tables, which is
    // parse_ntriples' loop over the view in place.
    PAROWL_SPAN("rdf.parse", {{"chunks", 1}});
    const std::size_t before = store.size();
    ParseStats& parse = stats.parse;
    dict.reserve(Dictionary::estimate_terms(text.size()));
    parse_ntriples_lines(text, dict, parse, [&](const Triple& t) {
      if (!store.insert(t)) ++parse.duplicates;
    });
    if (parse.first_error_line != 0) {
      parse.first_error = format_parse_error(
          parse.first_error_line, parse.first_error_offset, parse.first_error);
    }
    flush_serial_sink(store, before, options);
    stats.parse_seconds = sw.elapsed_seconds();
    return stats;
  }

  std::vector<std::size_t> bounds;
  {
    PAROWL_SPAN("rdf.scan", {});
    bounds = chunk_newline_boundaries(text, threads);
  }
  stats.scan_seconds = sw.elapsed_seconds();
  const std::size_t n = bounds.size() - 1;
  util::ThreadTeam team(threads);
  std::vector<Dictionary> dicts(n);
  std::vector<ChunkResult> chunks(n);
  sw.restart();
  {
    PAROWL_SPAN("rdf.parse", {{"chunks", n}});
    team.for_each(n, [&](std::size_t i) {
      obs::Span chunk_span("rdf.parse.chunk",
                           {{"chunk", i},
                            {"bytes", bounds[i + 1] - bounds[i]}});
      parse_ntriples_chunk(text.substr(bounds[i], bounds[i + 1] - bounds[i]),
                           dicts[i], chunks[i]);
    });
  }
  stats.parse_seconds = sw.elapsed_seconds();
  stats.threads_used = static_cast<unsigned>(std::min<std::size_t>(threads, n));

  sw.restart();
  PAROWL_SPAN("rdf.merge", {{"chunks", n}});
  sum_stats(chunks, stats.parse);
  stats.parse.duplicates +=
      merge_chunks(dicts, chunks, dict, store, options, team);
  // First malformed line, rebased to document-global line/byte numbers.
  std::size_t lines_before = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chunks[i].stats.first_error_line != 0) {
      const std::size_t line = lines_before + chunks[i].stats.first_error_line;
      const std::size_t byte = bounds[i] + chunks[i].stats.first_error_offset;
      stats.parse.first_error =
          format_parse_error(line, byte, chunks[i].stats.first_error);
      stats.parse.first_error_line = line;
      stats.parse.first_error_offset = byte;
      break;
    }
    lines_before += chunks[i].lines;
  }
  stats.merge_seconds = sw.elapsed_seconds();
  return stats;
}

IngestStats ingest_turtle(std::string_view text, Dictionary& dict,
                          TripleStore& store, const IngestOptions& options) {
  IngestStats stats;
  stats.bytes = text.size();
  obs::configure(options.obs);
  obs::Span ingest_span("rdf.ingest",
                        {{"format", "turtle"}, {"bytes", text.size()}});
  const unsigned threads = resolve_threads(options.threads);
  util::Stopwatch sw;
  if (threads == 1) {
    PAROWL_SPAN("rdf.parse", {{"chunks", 1}});
    const std::size_t before = store.size();
    stats.parse = parse_turtle_text(text, dict, store);
    flush_serial_sink(store, before, options);
    stats.parse_seconds = sw.elapsed_seconds();
    return stats;
  }

  // Stage 1: conservative statement scan, chunk assembly, and the serial
  // environment pre-pass that gives every chunk the prefix/base state a
  // serial parse would have at its start.
  obs::Span scan_span("rdf.scan", {});
  const TurtleSpans spans = scan_turtle_spans(text);
  std::vector<std::size_t> bounds{0};
  std::vector<std::size_t> newline_base{0};
  if (!spans.ends.empty()) {
    const std::size_t target = std::max<std::size_t>(1, text.size() / threads);
    for (std::size_t j = 0; j + 1 < spans.ends.size(); ++j) {
      // Cut after span j when the current chunk is big enough.
      if (spans.ends[j] - bounds.back() >= target &&
          bounds.size() < static_cast<std::size_t>(threads)) {
        bounds.push_back(spans.ends[j]);
        newline_base.push_back(spans.newlines[j]);
      }
    }
  }
  bounds.push_back(text.size());

  const std::size_t n = bounds.size() - 1;
  std::vector<TurtleEnv> envs(n);
  {
    TurtleEnv env;
    std::size_t span_idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      envs[i] = env;
      if (i + 1 == n) break;  // no successor needs the final environment
      // Advance the environment over every span inside chunk i.
      while (span_idx < spans.ends.size() &&
             spans.ends[span_idx] <= bounds[i + 1]) {
        const std::size_t begin =
            span_idx == 0 ? 0 : spans.ends[span_idx - 1];
        const std::string_view span =
            text.substr(begin, spans.ends[span_idx] - begin);
        if (turtle_span_declares(span)) {
          env = scan_turtle_env(span, env);
        }
        ++span_idx;
      }
    }
  }
  scan_span.close();
  stats.scan_seconds = sw.elapsed_seconds();

  // Stage 2: parallel fragment parsing into thread-local tables.
  util::ThreadTeam team(threads);
  std::vector<Dictionary> dicts(n);
  std::vector<ChunkResult> chunks(n);
  sw.restart();
  {
    PAROWL_SPAN("rdf.parse", {{"chunks", n}});
    team.for_each(n, [&](std::size_t i) {
      obs::Span chunk_span("rdf.parse.chunk",
                           {{"chunk", i},
                            {"bytes", bounds[i + 1] - bounds[i]}});
      dicts[i].reserve(Dictionary::estimate_terms(bounds[i + 1] - bounds[i]));
      chunks[i].stats = parse_turtle_fragment(
          text.substr(bounds[i], bounds[i + 1] - bounds[i]), dicts[i],
          chunks[i].triples, envs[i], newline_base[i], bounds[i]);
    });
  }
  stats.parse_seconds = sw.elapsed_seconds();
  stats.threads_used = static_cast<unsigned>(std::min<std::size_t>(threads, n));

  // Stage 3: ordered merge.  Fragment diagnostics are already global.
  sw.restart();
  PAROWL_SPAN("rdf.merge", {{"chunks", n}});
  sum_stats(chunks, stats.parse);
  stats.parse.duplicates +=
      merge_chunks(dicts, chunks, dict, store, options, team);
  for (const ChunkResult& c : chunks) {
    if (!c.stats.first_error.empty()) {
      stats.parse.first_error = c.stats.first_error;
      stats.parse.first_error_line = c.stats.first_error_line;
      stats.parse.first_error_offset = c.stats.first_error_offset;
      break;
    }
  }
  stats.merge_seconds = sw.elapsed_seconds();
  return stats;
}

bool ingest_file(const std::string& path, Dictionary& dict,
                 TripleStore& store, IngestStats& stats,
                 const IngestOptions& options, std::string* error) {
  obs::configure(options.obs);
  obs::Span read_span("rdf.read", {{"path", path}});
  util::Stopwatch sw;
  MappedFile file;
  if (!file.map(path, error)) {
    return false;
  }
  const double read_seconds = sw.elapsed_seconds();
  read_span.close();
  const bool turtle = path.size() >= 4 && path.ends_with(".ttl");
  const std::string_view text = file.view();
  stats = turtle ? ingest_turtle(text, dict, store, options)
                 : ingest_ntriples(text, dict, store, options);
  stats.read_seconds = read_seconds;
  obs::publish(stats, "rdf.ingest");
  PAROWL_COUNT("rdf.triples_ingested", stats.parse.triples);
  return true;
}

obs::FieldList fields(const IngestStats& s) {
  obs::FieldList out = fields(s.parse);
  out.emplace_back("bytes", s.bytes);
  out.emplace_back("threads_used", s.threads_used);
  out.emplace_back("read_seconds", s.read_seconds);
  out.emplace_back("scan_seconds", s.scan_seconds);
  out.emplace_back("parse_seconds", s.parse_seconds);
  out.emplace_back("merge_seconds", s.merge_seconds);
  return out;
}

}  // namespace parowl::rdf
