// The parallel ingest pipeline's contract: for any thread count, the
// resulting Dictionary, TripleStore, and ParseStats are bit-identical to
// the serial parser's.  These tests sweep threads over N-Triples and
// Turtle inputs — including the adversarial Turtle shapes the statement
// scanner must not mis-split on — and compare byte-for-byte via snapshots.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/rdf/turtle.hpp"

namespace parowl::rdf {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 3, 4, 8};

std::string snapshot_bytes(const Dictionary& dict, const TripleStore& store) {
  std::ostringstream out;
  save_snapshot(out, dict, store);
  return out.str();
}

void expect_stats_equal(const ParseStats& got, const ParseStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.triples, want.triples) << label;
  EXPECT_EQ(got.duplicates, want.duplicates) << label;
  EXPECT_EQ(got.bad_lines, want.bad_lines) << label;
  EXPECT_EQ(got.first_error, want.first_error) << label;
  EXPECT_EQ(got.first_error_line, want.first_error_line) << label;
  EXPECT_EQ(got.first_error_offset, want.first_error_offset) << label;
}

/// Sweep `ingest` over kThreadSweep and compare everything against the
/// serial golden parse.
template <typename SerialFn, typename IngestFn>
void sweep(const std::string& text, SerialFn serial, IngestFn ingest,
           const char* what) {
  Dictionary golden_dict;
  TripleStore golden_store;
  const ParseStats golden_stats = serial(text, golden_dict, golden_store);
  const std::string golden_bytes = snapshot_bytes(golden_dict, golden_store);

  for (const unsigned threads : kThreadSweep) {
    const std::string label =
        std::string(what) + " threads=" + std::to_string(threads);
    Dictionary dict;
    TripleStore store;
    IngestOptions opts;
    opts.threads = threads;
    const IngestStats stats = ingest(text, dict, store, opts);
    expect_stats_equal(stats.parse, golden_stats, label);
    EXPECT_EQ(dict.size(), golden_dict.size()) << label;
    EXPECT_EQ(store.size(), golden_store.size()) << label;
    // Byte-identical: same term ids in the same order, same insertion log.
    EXPECT_EQ(snapshot_bytes(dict, store), golden_bytes) << label;
  }
}

void sweep_ntriples(const std::string& text, const char* what) {
  sweep(
      text,
      [](const std::string& t, Dictionary& d, TripleStore& s) {
        std::istringstream in(t);
        return parse_ntriples(in, d, s);
      },
      [](const std::string& t, Dictionary& d, TripleStore& s,
         const IngestOptions& o) { return ingest_ntriples(t, d, s, o); },
      what);
}

void sweep_turtle(const std::string& text, const char* what) {
  sweep(
      text,
      [](const std::string& t, Dictionary& d, TripleStore& s) {
        return parse_turtle_text(t, d, s);
      },
      [](const std::string& t, Dictionary& d, TripleStore& s,
         const IngestOptions& o) { return ingest_turtle(t, d, s, o); },
      what);
}

// ---------------------------------------------------------------------------
// N-Triples

std::string lubm_ntriples(unsigned universities) {
  Dictionary dict;
  TripleStore store;
  gen::LubmOptions opts;
  opts.universities = universities;
  gen::generate_lubm(opts, dict, store);
  std::ostringstream out;
  write_ntriples(out, store, dict);
  return out.str();
}

TEST(IngestEquivalence, NtriplesLubm1BitIdenticalAcrossThreads) {
  sweep_ntriples(lubm_ntriples(1), "lubm1.nt");
}

/// The chunk_sink slices a chunk-at-a-time merge produces: chunk i's slice
/// is what a serial parse of chunks 0..i adds to the store while parsing
/// chunk i (skipped when empty); one slice for a serial ingest.
std::vector<std::vector<Triple>> expected_slices(const std::string& text,
                                                 unsigned threads) {
  std::vector<std::size_t> bounds{0, text.size()};
  if (threads > 1) {
    bounds = chunk_newline_boundaries(text, threads);
  }
  Dictionary dict;
  TripleStore store;
  std::vector<std::vector<Triple>> slices;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::size_t before = store.size();
    std::istringstream in(text.substr(bounds[i], bounds[i + 1] - bounds[i]));
    parse_ntriples(in, dict, store);
    if (store.size() > before) {
      slices.emplace_back(store.triples().begin() +
                              static_cast<std::ptrdiff_t>(before),
                          store.triples().end());
    }
  }
  return slices;
}

// At LUBM(20) every chunk holds thousands of terms and triples, so the
// sharded dictionary merge and the bulk store insert split real work across
// threads.  The text repeats its first tenth at the end, so the global
// dedup also meets duplicates that span chunks.
TEST(IngestEquivalence, NtriplesLubm20BitIdenticalWithSinkSlices) {
  std::string text = lubm_ntriples(20);
  const std::size_t tenth = text.find('\n', text.size() / 10) + 1;
  text += text.substr(0, tenth);

  Dictionary golden_dict;
  TripleStore golden_store;
  std::istringstream golden_in(text);
  const ParseStats golden_stats =
      parse_ntriples(golden_in, golden_dict, golden_store);
  ASSERT_GT(golden_stats.duplicates, 0u);
  const std::string golden_bytes = snapshot_bytes(golden_dict, golden_store);

  for (const unsigned threads : kThreadSweep) {
    const std::string label = "lubm20 threads=" + std::to_string(threads);
    Dictionary dict;
    TripleStore store;
    IngestOptions opts;
    opts.threads = threads;
    std::vector<std::vector<Triple>> slices;
    opts.chunk_sink = [&slices](std::span<const Triple> slice) {
      slices.emplace_back(slice.begin(), slice.end());
    };
    const IngestStats stats = ingest_ntriples(text, dict, store, opts);
    expect_stats_equal(stats.parse, golden_stats, label);
    EXPECT_EQ(snapshot_bytes(dict, store), golden_bytes) << label;
    EXPECT_EQ(slices, expected_slices(text, threads)) << label;
  }
}

TEST(IngestEquivalence, NtriplesWithDuplicatesCommentsAndErrors) {
  std::string text;
  text += "<http://x/a> <http://x/p> <http://x/b> .\n";
  text += "# comment\n";
  text += "\n";
  for (int i = 0; i < 200; ++i) {
    text += "<http://x/s" + std::to_string(i % 50) + "> <http://x/p> " +
            "<http://x/o" + std::to_string(i % 25) + "> .\n";
  }
  text += "this line is garbage\n";
  text += "<http://x/a> <http://x/p> \"lit with . dot\" .\n";
  text += "also garbage\n";
  sweep_ntriples(text, "mixed.nt");
}

TEST(IngestEquivalence, NtriplesCrlfLineEndings) {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "<http://x/s" + std::to_string(i) +
            "> <http://x/p> \"v\" .\r\n";
  }
  sweep_ntriples(text, "crlf.nt");

  // CRLF satellite: the serial parser itself must accept \r\n lines.
  Dictionary dict;
  TripleStore store;
  std::istringstream in(text);
  const ParseStats stats = parse_ntriples(in, dict, store);
  EXPECT_EQ(stats.triples, 64u);
  EXPECT_EQ(stats.bad_lines, 0u);
}

TEST(IngestEquivalence, NtriplesNoTrailingNewline) {
  sweep_ntriples("<http://x/a> <http://x/p> <http://x/b> .\n"
                 "<http://x/c> <http://x/p> <http://x/d> .",
                 "nonewline.nt");
}

TEST(IngestEquivalence, NtriplesEmptyAndTiny) {
  sweep_ntriples("", "empty.nt");
  sweep_ntriples("\n\n\n", "blank.nt");
  sweep_ntriples("<http://x/a> <http://x/p> <http://x/b> .\n", "one.nt");
}

TEST(IngestEquivalence, ChunkBoundariesCoverTextAndAlignToNewlines) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "line" + std::to_string(i) + "\n";
  }
  for (const unsigned chunks : {1u, 2u, 7u, 64u}) {
    const std::vector<std::size_t> bounds =
        chunk_newline_boundaries(text, chunks);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), text.size());
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
      EXPECT_GT(bounds[i], bounds[i - 1]);
      EXPECT_EQ(text[bounds[i] - 1], '\n') << "boundary " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Turtle — the scanner must not split inside literals, IRIs, comments,
// decimals, or prefixed-name dots, and chunk-local prefix environments
// must reproduce the serial parser's directive handling.

std::string tricky_turtle() {
  std::string text;
  text += "@prefix ex: <http://example.org/> .\n";
  text += "@prefix ex2: <http://example.org/2#> .\n";
  text += "# a comment with a dot . and <junk>\n";
  for (int i = 0; i < 60; ++i) {
    const std::string n = std::to_string(i);
    text += "ex:s" + n + " ex:p ex:o" + n + " ;\n";
    text += "    ex:q \"literal with . dot and ; semicolon\" ,\n";
    text += "        \"second \\\" escaped . value\" .\n";
    text += "ex:s" + n + " ex:weight 3.25 .\n";          // decimal dot
    text += "ex:s" + n + " ex:count 42 .\n";
    text += "ex2:a" + n + " ex:link <http://x.example/o." + n + "> .\n";
  }
  // Mid-file redefinition: chunks after this line must see the new binding.
  text += "@prefix ex: <http://example.org/other#> .\n";
  for (int i = 0; i < 60; ++i) {
    const std::string n = std::to_string(i);
    text += "ex:t" + n + " ex:p \"after redefinition\"@en .\n";
    text += "ex:t" + n + " a ex2:Thing .\n";
  }
  // SPARQL-style directive without a trailing dot, then more triples.
  text += "PREFIX ex3: <http://example.org/3#>\n";
  text += "ex3:x ex3:y ex3:z .\n";
  // A malformed statement the parser must recover from identically.
  text += "ex3:broken ex3:q ( 1 2 3 ) .\n";
  text += "ex3:after ex3:q ex3:ok .\n";
  return text;
}

TEST(IngestEquivalence, TurtleTrickyDocBitIdenticalAcrossThreads) {
  sweep_turtle(tricky_turtle(), "tricky.ttl");
}

TEST(IngestEquivalence, TurtleMultilineLiteralsWithNewlines) {
  std::string text = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 40; ++i) {
    // Escaped newlines inside literals shift the scanner's line counter;
    // fragment diagnostics and splits must still line up.
    text += "ex:s" + std::to_string(i) +
            " ex:p \"line one\\nline two . not a boundary\" .\n";
  }
  sweep_turtle(text, "multiline.ttl");
}

TEST(IngestEquivalence, TurtleMalformedRunsRecoverIdentically) {
  std::string text = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 30; ++i) {
    text += "ex:good" + std::to_string(i) + " ex:p ex:o .\n";
    if (i % 7 == 3) {
      text += "ex:bad" + std::to_string(i) + " ex:q ( collection ) .\n";
    }
    if (i % 11 == 5) {
      text += "@prefix broken\n";
    }
  }
  sweep_turtle(text, "malformed.ttl");
}

TEST(IngestEquivalence, TurtleEmptyAndDirectiveOnly) {
  sweep_turtle("", "empty.ttl");
  sweep_turtle("@prefix ex: <http://example.org/> .\n", "directive.ttl");
}

TEST(IngestEquivalence, TurtleSpanScannerFindsOnlyTopLevelDots) {
  const std::string text =
      "@prefix ex: <http://e/> .\n"
      "ex:a ex:p \"dot . inside\" .\n"
      "ex:b ex:w 1.5 .\n"
      "# comment . dot\n"
      "ex:c ex:p <http://e/x.y> .\n";
  const TurtleSpans spans = scan_turtle_spans(text);
  // Exactly four top-level statement ends: the directive + three triples.
  ASSERT_EQ(spans.ends.size(), 4u);
  for (const std::size_t end : spans.ends) {
    ASSERT_GT(end, 0u);
    EXPECT_EQ(text[end - 1], '.');
  }
  EXPECT_EQ(spans.ends.back(), text.size() - 1);  // final '.' before \n
}

// ---------------------------------------------------------------------------
// ingest_file: extension routing + stats

class IngestFileTest : public ::testing::Test {
 protected:
  /// A temp path that carries the pid, so concurrent test processes never
  /// share one; removed (recursively) at teardown.
  std::string temp_path(const std::string& name) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("parowl_" + std::to_string(::getpid()) + "_" + name))
            .string();
    cleanup_.push_back(path);
    return path;
  }
  std::string write_temp(const std::string& name, const std::string& text) {
    const std::string path = temp_path(name);
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
  }
  void TearDown() override {
    for (const std::string& p : cleanup_) {
      std::filesystem::remove_all(p);
    }
  }

  /// ingest_file on `text` written to `name` must give the same snapshot
  /// bytes and ParseStats as ingesting `text` from memory, at every thread
  /// count.
  void expect_file_matches_memory(const std::string& name,
                                  const std::string& text) {
    const std::string path = write_temp(name, text);
    const bool turtle = name.ends_with(".ttl");
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const std::string label = name + " threads=" + std::to_string(threads);
      IngestOptions opts;
      opts.threads = threads;
      Dictionary want_dict;
      TripleStore want_store;
      const IngestStats want =
          turtle ? ingest_turtle(text, want_dict, want_store, opts)
                 : ingest_ntriples(text, want_dict, want_store, opts);
      Dictionary dict;
      TripleStore store;
      IngestStats got;
      std::string error;
      ASSERT_TRUE(ingest_file(path, dict, store, got, opts, &error))
          << label << ": " << error;
      expect_stats_equal(got.parse, want.parse, label);
      EXPECT_EQ(got.bytes, text.size()) << label;
      EXPECT_EQ(snapshot_bytes(dict, store),
                snapshot_bytes(want_dict, want_store))
          << label;
    }
  }

  std::vector<std::string> cleanup_;
};

TEST_F(IngestFileTest, RoutesByExtensionAndReportsBytes) {
  const std::string nt = "<http://x/a> <http://x/p> <http://x/b> .\n";
  const std::string ttl =
      "@prefix ex: <http://x/> .\nex:a ex:p ex:b .\n";
  const std::string nt_path = write_temp("ingest_test.nt", nt);
  const std::string ttl_path = write_temp("ingest_test.ttl", ttl);

  for (const unsigned threads : {1u, 4u}) {
    IngestOptions opts;
    opts.threads = threads;
    {
      Dictionary dict;
      TripleStore store;
      IngestStats stats;
      std::string error;
      ASSERT_TRUE(ingest_file(nt_path, dict, store, stats, opts, &error))
          << error;
      EXPECT_EQ(store.size(), 1u);
      EXPECT_EQ(stats.bytes, nt.size());
    }
    {
      Dictionary dict;
      TripleStore store;
      IngestStats stats;
      std::string error;
      ASSERT_TRUE(ingest_file(ttl_path, dict, store, stats, opts, &error))
          << error;
      EXPECT_EQ(store.size(), 1u);
      // The @prefix namespace IRI plus prefix-expanded ex:a ex:p ex:b.
      EXPECT_EQ(dict.size(), 4u);
    }
  }
}

TEST_F(IngestFileTest, MissingFileFailsWithError) {
  Dictionary dict;
  TripleStore store;
  IngestStats stats;
  std::string error;
  EXPECT_FALSE(ingest_file("/nonexistent/kb.nt", dict, store, stats, {},
                           &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(IngestFileTest, DirectoryIsRefused) {
  const std::string path = temp_path("d.nt");
  ASSERT_TRUE(std::filesystem::create_directory(path));
  Dictionary dict;
  TripleStore store;
  IngestStats stats;
  std::string error;
  EXPECT_FALSE(ingest_file(path, dict, store, stats, {}, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
}

// A FIFO with no writer: the open must not block, and the FIFO is refused
// rather than read as an empty (or partial) KB.
TEST_F(IngestFileTest, FifoIsRefusedWithoutBlocking) {
  const std::string path = temp_path("fifo.nt");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  Dictionary dict;
  TripleStore store;
  IngestStats stats;
  std::string error;
  EXPECT_FALSE(ingest_file(path, dict, store, stats, {}, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
}

TEST_F(IngestFileTest, EmptyFileLoadsAsEmptyKb) {
  for (const char* name : {"empty.nt", "empty.ttl"}) {
    const std::string path = write_temp(name, "");
    for (const unsigned threads : {1u, 4u}) {
      IngestOptions opts;
      opts.threads = threads;
      Dictionary dict;
      TripleStore store;
      IngestStats stats;
      std::string error;
      ASSERT_TRUE(ingest_file(path, dict, store, stats, opts, &error))
          << name << ": " << error;
      EXPECT_EQ(stats.bytes, 0u) << name;
      EXPECT_EQ(stats.parse.triples, 0u) << name;
      EXPECT_EQ(dict.size(), 0u) << name;
      EXPECT_EQ(store.size(), 0u) << name;
    }
  }
}

TEST_F(IngestFileTest, MatchesInMemoryIngestAcrossThreads) {
  expect_file_matches_memory("lubm1.nt", lubm_ntriples(1));
  expect_file_matches_memory("tricky.ttl", tricky_turtle());
}

/// `head` + a comment line + `last`, padded so the whole document is an
/// exact multiple of the page size: the mapping then ends on a page
/// boundary, and a read past the last byte touches the next, unmapped
/// page.
std::string page_aligned(const std::string& head, const std::string& last) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t base = head.size() + last.size();
  std::size_t pad = page - base % page;  // "#" + filler + "\n"
  if (pad < 2) pad += page;
  std::string text = head + "#" + std::string(pad - 2, 'x') + "\n" + last;
  EXPECT_EQ(text.size() % page, 0u);
  return text;
}

// The last line has no newline and ends after a complete statement, inside
// an IRI, or on a backslash inside a literal: each parser must stop at the
// mapping's last byte.
TEST_F(IngestFileTest, PageAlignedFilesMatchInMemoryIngest) {
  const std::string nt_head =
      "<http://x/a> <http://x/p> <http://x/b> .\n"
      "<http://x/b> <http://x/p> \"lit\" .\n";
  const std::pair<const char*, std::string> nt_lasts[] = {
      {"complete.nt", "<http://x/c> <http://x/p> <http://x/d> ."},
      {"iri.nt", "<http://x/c> <http://x/p> <http://x/unterminated"},
      {"backslash.nt", "<http://x/c> <http://x/p> \"ends on \\"},
  };
  for (const auto& [name, last] : nt_lasts) {
    const std::string text = page_aligned(nt_head, last);
    sweep_ntriples(text, name);
    expect_file_matches_memory(name, text);
  }

  const std::string ttl_head =
      "@prefix ex: <http://x/> .\n"
      "ex:a ex:p ex:b .\n"
      "ex:b ex:p \"lit\" .\n";
  const std::pair<const char*, std::string> ttl_lasts[] = {
      {"complete.ttl", "ex:c ex:p ex:d ."},
      {"iri.ttl", "ex:c ex:p <http://x/unterminated"},
      {"backslash.ttl", "ex:c ex:p \"ends on \\"},
  };
  for (const auto& [name, last] : ttl_lasts) {
    const std::string text = page_aligned(ttl_head, last);
    sweep_turtle(text, name);
    expect_file_matches_memory(name, text);
  }
}

}  // namespace
}  // namespace parowl::rdf
