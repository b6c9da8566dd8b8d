#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/rdf/turtle.hpp"
#include "parowl/rules/rule_parser.hpp"
#include "parowl/util/rng.hpp"

namespace parowl {
namespace {

/// Property: no parser crashes, loops, or corrupts state on arbitrary
/// byte soup.  Inputs are seeded random strings over a byte alphabet that
/// includes the parsers' structural characters.
class ParserRobustness : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::string random_soup(util::Rng& rng, std::size_t length) {
    static constexpr char alphabet[] =
        "<>\"\\.;,@?#:{}()ab z0159_^-\n\tPREFIXSELECTWHERE";
    std::string out;
    out.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      out += alphabet[rng.below(sizeof(alphabet) - 1)];
    }
    return out;
  }
};

TEST_P(ParserRobustness, NtriplesNeverCrashes) {
  util::Rng rng(GetParam());
  rdf::Dictionary dict;
  rdf::TripleStore store;
  for (int i = 0; i < 50; ++i) {
    std::istringstream in(random_soup(rng, 1 + rng.below(200)));
    const rdf::ParseStats stats = rdf::parse_ntriples(in, dict, store);
    EXPECT_LE(stats.duplicates, stats.triples);
  }
  // The store stays internally consistent.
  EXPECT_EQ(store.count({rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm}),
            store.size());
}

TEST_P(ParserRobustness, TurtleNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x7e57);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  for (int i = 0; i < 50; ++i) {
    rdf::parse_turtle_text(random_soup(rng, 1 + rng.below(200)), dict,
                           store);
  }
  EXPECT_EQ(store.count({rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm}),
            store.size());
}

TEST_P(ParserRobustness, SparqlNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x5bad);
  rdf::Dictionary dict;
  query::SparqlParser parser(dict);
  for (int i = 0; i < 50; ++i) {
    std::string error;
    (void)parser.parse(random_soup(rng, 1 + rng.below(200)), &error);
  }
}

TEST_P(ParserRobustness, RuleParserNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x1e5u);
  rdf::Dictionary dict;
  rules::RuleParser parser(dict);
  for (int i = 0; i < 50; ++i) {
    std::string error;
    (void)parser.parse_rule(random_soup(rng, 1 + rng.below(120)), &error);
  }
}

TEST_P(ParserRobustness, SnapshotLoaderNeverCrashes) {
  util::Rng rng(GetParam() ^ 0xdead);
  for (int i = 0; i < 50; ++i) {
    // Random bytes, sometimes with a valid magic prefix.
    std::string data;
    if (rng.chance(0.5)) {
      data = "PARO";
    }
    const std::size_t len = 1 + rng.below(300);
    for (std::size_t b = 0; b < len; ++b) {
      data += static_cast<char>(rng.below(256));
    }
    std::istringstream in(data);
    rdf::Dictionary dict;
    rdf::TripleStore store;
    std::string error;
    (void)rdf::load_snapshot(in, dict, store, &error);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// ---------------------------------------------------------------------------
// Directed diagnostics: parse errors carry 1-based line numbers

TEST(ParserDiagnostics, NtriplesErrorNamesTheOffendingLine) {
  const std::string text =
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "# a comment line\n"
      "this is not a triple\n"
      "<http://x/s> <http://x/p> <http://x/o2> .\n";
  std::istringstream in(text);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const rdf::ParseStats stats = rdf::parse_ntriples(in, dict, store);
  EXPECT_EQ(stats.triples, 2u);
  EXPECT_EQ(stats.bad_lines, 1u);
  EXPECT_EQ(stats.first_error.rfind("line 3 (byte ", 0), 0u)
      << stats.first_error;
  EXPECT_EQ(stats.first_error_line, 3u);
  // Offset of the bad line's first byte: the two lines before it.
  EXPECT_EQ(stats.first_error_offset, 41u + 17u);
}

TEST(ParserDiagnostics, TurtleErrorNamesTheOffendingLine) {
  const std::string text =
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b .\n"
      "ex:broken ex:q ( 1 2 3 ) .\n";
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const rdf::ParseStats stats = rdf::parse_turtle_text(text, dict, store);
  EXPECT_EQ(stats.triples, 1u);
  EXPECT_GE(stats.bad_lines, 1u);
  EXPECT_EQ(stats.first_error.rfind("line 3 (byte ", 0), 0u)
      << stats.first_error;
  EXPECT_EQ(stats.first_error_line, 3u);
  // The error position sits inside line 3, past the two lines before it.
  EXPECT_GE(stats.first_error_offset, 36u + 17u);
}

TEST(ParserDiagnostics, TurtleDirectiveErrorOnFirstLine) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const rdf::ParseStats stats =
      rdf::parse_turtle_text("@prefix broken\n", dict, store);
  EXPECT_EQ(stats.triples, 0u);
  EXPECT_EQ(stats.first_error.rfind("line 1 (byte ", 0), 0u)
      << stats.first_error;
  EXPECT_EQ(stats.first_error_line, 1u);
}

// ---------------------------------------------------------------------------
// Directed snapshot-loader robustness: malformed .snap bytes fail cleanly
// with a diagnostic instead of crashing, over-allocating, or loading junk.

std::string valid_snapshot_bytes() {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const auto s = dict.intern_iri("http://x/s");
  const auto p = dict.intern_iri("http://x/p");
  const auto o = dict.intern_iri("http://x/o");
  store.insert({s, p, o});
  std::ostringstream out;
  rdf::save_snapshot(out, dict, store);
  return out.str();
}

bool try_load(const std::string& bytes, std::string* error) {
  std::istringstream in(bytes);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  return rdf::load_snapshot(in, dict, store, error);
}

TEST(SnapshotRobustness, RoundTripBaseline) {
  std::string error;
  EXPECT_TRUE(try_load(valid_snapshot_bytes(), &error)) << error;
}

TEST(SnapshotRobustness, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = valid_snapshot_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string error;
    EXPECT_FALSE(try_load(bytes.substr(0, cut), &error))
        << "prefix of " << cut << " bytes loaded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotRobustness, WrongMagicIsRejected) {
  std::string bytes = valid_snapshot_bytes();
  bytes[0] = 'X';
  std::string error;
  EXPECT_FALSE(try_load(bytes, &error));
  EXPECT_EQ(error, "bad magic");
}

TEST(SnapshotRobustness, WrongFormatVersionIsRejected) {
  std::string bytes = valid_snapshot_bytes();
  bytes[4] = static_cast<char>(0x7f);  // version field, little-endian
  std::string error;
  EXPECT_FALSE(try_load(bytes, &error));
  EXPECT_EQ(error, "unsupported snapshot version");
}

TEST(SnapshotRobustness, HugeLexicalLengthFailsOnStreamNotAllocation) {
  // Rewrite the first term entry's suffix length as a ~4 GB varint.  The
  // chunked reader must fail on stream exhaustion, not allocate 4 GB.
  // Layout: magic(4) version(4) term_count varint(1) then the first term
  // entry: kind(1) shared varint(1) suffix_len varint(1) suffix...
  const std::string bytes = valid_snapshot_bytes();
  std::string hacked = bytes.substr(0, 11);
  hacked += static_cast<char>(0xfe);  // varint 0xFFFFFFFE
  hacked += static_cast<char>(0xff);
  hacked += static_cast<char>(0xff);
  hacked += static_cast<char>(0xff);
  hacked += static_cast<char>(0x0f);
  hacked += bytes.substr(12);
  std::string error;
  EXPECT_FALSE(try_load(hacked, &error));
  EXPECT_EQ(error, "truncated term lexical");
}

TEST(SnapshotRobustness, InvalidTermKindIsRejected) {
  std::string bytes = valid_snapshot_bytes();
  bytes[9] = static_cast<char>(9);  // kind byte of the first term
  std::string error;
  EXPECT_FALSE(try_load(bytes, &error));
  EXPECT_EQ(error, "invalid term kind");
}

TEST(SnapshotRobustness, TripleReferencingUnknownTermIsRejected) {
  // A snapshot whose store mentions an id the dictionary never assigned:
  // every block checksum is valid, so only the id-range check can object.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const auto s = dict.intern_iri("http://x/s");
  const auto p = dict.intern_iri("http://x/p");
  store.insert({s, p, 7});  // id 7: beyond the 2 interned terms
  std::ostringstream out;
  rdf::save_snapshot(out, dict, store);
  std::string error;
  EXPECT_FALSE(try_load(out.str(), &error));
  EXPECT_EQ(error, "triple references unknown term");
}

TEST(SnapshotRobustness, EverySingleByteFlipIsDetected) {
  const std::string bytes = valid_snapshot_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      std::string error;
      EXPECT_FALSE(try_load(mutated, &error))
          << "flip of bit mask " << int(mask) << " at byte " << i
          << " loaded successfully";
    }
  }
}

TEST(SnapshotRobustness, NonEmptyTargetIsRejected) {
  std::istringstream in(valid_snapshot_bytes());
  rdf::Dictionary dict;
  rdf::TripleStore store;
  (void)dict.intern_iri("http://already/here");
  std::string error;
  EXPECT_FALSE(rdf::load_snapshot(in, dict, store, &error));
  EXPECT_EQ(error, "dictionary/store must be empty");
}

// Version 3 appends the equality class map of a rewrite-mode closure,
// sealed by its own digest chain; it loads only through the equality-aware
// entry point.

std::string valid_v3_snapshot_bytes() {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const auto s = dict.intern_iri("http://x/s");
  const auto p = dict.intern_iri("http://x/p");
  const auto o = dict.intern_iri("http://x/o");
  const auto lit = dict.intern_literal("\"s\"");
  store.insert({s, p, o});
  rdf::EqualityClassMap eq;
  eq.members = {{s, s}, {o, s}};
  eq.literals = {{s, lit}};
  eq.self_terms = {o};
  eq.raw_edges = {{lit, p, s}};
  std::ostringstream out;
  rdf::save_snapshot(out, dict, store, &eq);
  return out.str();
}

bool try_load_v3(const std::string& bytes, std::string* error) {
  std::istringstream in(bytes);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::EqualityClassMap eq;
  return rdf::load_snapshot(in, dict, store, eq, error);
}

TEST(SnapshotRobustness, V3RoundTripBaseline) {
  const std::string bytes = valid_v3_snapshot_bytes();
  ASSERT_EQ(bytes[4], 3);  // version field, little-endian
  std::istringstream in(bytes);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::EqualityClassMap eq;
  std::string error;
  ASSERT_TRUE(rdf::load_snapshot(in, dict, store, eq, &error)) << error;
  EXPECT_EQ(eq.members.size(), 2u);
  EXPECT_EQ(eq.literals.size(), 1u);
  EXPECT_EQ(eq.self_terms.size(), 1u);
  EXPECT_EQ(eq.raw_edges.size(), 1u);
}

TEST(SnapshotRobustness, V3TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = valid_v3_snapshot_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string error;
    EXPECT_FALSE(try_load_v3(bytes.substr(0, cut), &error))
        << "prefix of " << cut << " bytes loaded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotRobustness, V3EverySingleBitFlipIsDetected) {
  const std::string bytes = valid_v3_snapshot_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      std::string error;
      EXPECT_FALSE(try_load_v3(mutated, &error))
          << "flip of bit " << bit << " at byte " << i
          << " loaded successfully";
      EXPECT_FALSE(error.empty());
    }
  }
}

}  // namespace
}  // namespace parowl
