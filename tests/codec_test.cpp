#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "parowl/parallel/transport.hpp"
#include "parowl/rdf/codec.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/util/rng.hpp"
#include "parowl/util/strings.hpp"

namespace parowl::rdf {
namespace {

// ---------------------------------------------------------------------------
// Varints and zigzag

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  0xFFFFFFFFULL,
                                  0x100000000ULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::string buf;
    codec::put_varint(buf, v);
    EXPECT_LE(buf.size(), 10u);
    std::string_view in = buf;
    std::uint64_t got = 0;
    ASSERT_TRUE(codec::get_varint(in, got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Varint, RejectsTruncationAtEveryPrefix) {
  std::string buf;
  codec::put_varint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    std::uint64_t v = 0;
    EXPECT_FALSE(codec::get_varint(in, v)) << cut;
  }
}

TEST(Varint, RejectsNonCanonicalOverflow) {
  // Ten continuation-heavy bytes whose last byte would overflow 64 bits.
  std::string buf(9, static_cast<char>(0xFF));
  buf.push_back(static_cast<char>(0x02));
  std::string_view in = buf;
  std::uint64_t v = 0;
  EXPECT_FALSE(codec::get_varint(in, v));
}

TEST(Varint, StreamVariantMatches) {
  std::string buf;
  codec::put_varint(buf, 0xDEADBEEFULL);
  codec::put_varint(buf, 7);
  std::istringstream in(buf);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(codec::get_varint(in, a));
  ASSERT_TRUE(codec::get_varint(in, b));
  EXPECT_EQ(a, 0xDEADBEEFULL);
  EXPECT_EQ(b, 7u);
  EXPECT_FALSE(codec::get_varint(in, a));  // exhausted
}

TEST(Zigzag, RoundTripsAndOrdersByMagnitude) {
  const std::int64_t values[] = {0, -1, 1, -2, 2, 1000, -1000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(codec::zigzag_decode(codec::zigzag_encode(v)), v);
  }
  // Small magnitudes encode small: the property delta coding relies on.
  EXPECT_LT(codec::zigzag_encode(-1), codec::zigzag_encode(100));
}

// ---------------------------------------------------------------------------
// Triple blocks

std::vector<Triple> sample_triples(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<TermId>(1 + rng.below(5000)),
                   static_cast<TermId>(1 + rng.below(40)),
                   static_cast<TermId>(1 + rng.below(5000))});
  }
  return out;
}

TEST(TripleBlock, RoundTripsEmptySingleAndLarge) {
  for (const std::size_t n : {0u, 1u, 2u, 777u}) {
    const std::vector<Triple> ts = sample_triples(n, 13 + n);
    std::string buf;
    codec::encode_block(ts, buf);
    std::string_view in = buf;
    std::vector<Triple> got;
    std::string error;
    ASSERT_TRUE(codec::decode_block(in, got, &error)) << n << ": " << error;
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(got, ts);  // order-preserving, not just set-equal
  }
}

TEST(TripleBlock, StreamVariantRoundTrips) {
  const std::vector<Triple> ts = sample_triples(100, 77);
  std::string buf;
  codec::encode_block(ts, buf);
  std::istringstream in(buf);
  std::vector<Triple> got;
  ASSERT_TRUE(codec::read_block(in, got));
  EXPECT_EQ(got, ts);
}

TEST(TripleBlock, TruncationAtEveryPrefixFails) {
  const std::vector<Triple> ts = sample_triples(20, 5);
  std::string buf;
  codec::encode_block(ts, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    std::vector<Triple> got;
    std::string error;
    EXPECT_FALSE(codec::decode_block(in, got, &error))
        << "prefix of " << cut << " bytes decoded";
    EXPECT_TRUE(got.empty());  // failed decode leaves no partial output
    EXPECT_FALSE(error.empty());
  }
}

TEST(TripleBlock, PayloadLengthNearTwoToThe64IsTruncation) {
  // payload_len + 8 wraps to a small number; the bound must not.
  std::string buf(1, static_cast<char>(0xB7));
  codec::put_varint(buf, 0);                      // count
  codec::put_varint(buf, ~std::uint64_t{0} - 3);  // payload_len
  buf.append(16, '\0');
  std::string_view in = buf;
  std::vector<Triple> got;
  std::string error;
  EXPECT_FALSE(codec::decode_block(in, got, &error));
  EXPECT_EQ(error, "truncated triple block");
}

TEST(TripleBlock, EverySingleBitFlipFails) {
  const std::vector<Triple> ts = sample_triples(15, 99);
  std::string buf;
  codec::encode_block(ts, buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = buf;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      std::string_view in = mutated;
      std::vector<Triple> got;
      // Either the decode fails outright, or (flips inside varint slack or
      // count/len fields that happen to re-parse) the payload no longer
      // matches the checksum.  Decoding the original sequence is the one
      // forbidden outcome.
      if (codec::decode_block(in, got) && in.empty()) {
        EXPECT_NE(got, ts) << "bit " << bit << " of byte " << i
                           << " decoded to the original sequence";
      }
    }
  }
}

TEST(TripleBlock, DeltaCodingCompressesSortedRuns) {
  // Consecutive subjects, one predicate: the common shape of a sorted
  // store.  Deltas are tiny, so bytes/triple should approach 3.
  std::vector<Triple> ts;
  for (TermId i = 1; i <= 1000; ++i) {
    ts.push_back({1000 + i, 7, 2000 + i});
  }
  std::string buf;
  codec::encode_block(ts, buf);
  EXPECT_LT(buf.size(), ts.size() * 4 + 32);
  EXPECT_LT(buf.size(), ts.size() * sizeof(Triple) / 2);  // vs raw structs
}

TEST(TripleBlock, WriteReadBlocksSpansManyBlocks) {
  const std::vector<Triple> ts = sample_triples(1000, 123);
  std::ostringstream out;
  const std::size_t bytes = codec::write_blocks(out, ts, 64);
  EXPECT_EQ(bytes, out.str().size());

  std::istringstream in(out.str());
  std::vector<Triple> got;
  std::string error;
  ASSERT_TRUE(codec::read_blocks(
      in, ts.size(), [&got](const Triple& t) { got.push_back(t); }, &error))
      << error;
  EXPECT_EQ(got, ts);
}

TEST(TripleBlock, ReadBlocksRejectsCountMismatch) {
  const std::vector<Triple> ts = sample_triples(10, 3);
  std::ostringstream out;
  codec::write_blocks(out, ts);

  // Declaring fewer triples than the block holds must fail (overrun)...
  {
    std::istringstream in(out.str());
    std::string error;
    EXPECT_FALSE(codec::read_blocks(in, 5, [](const Triple&) {}, &error));
    EXPECT_EQ(error, "triple block overruns declared count");
  }
  // ...and declaring more must fail on stream exhaustion.
  {
    std::istringstream in(out.str());
    std::string error;
    EXPECT_FALSE(codec::read_blocks(in, 11, [](const Triple&) {}, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(TripleBlock, EncodedSizeMatchesWriteBlocks) {
  const std::vector<Triple> ts = sample_triples(500, 8);
  std::ostringstream out;
  EXPECT_EQ(codec::write_blocks(out, ts), codec::encoded_size(ts));
}

// ---------------------------------------------------------------------------
// Term tables

Dictionary sample_dictionary() {
  Dictionary dict;
  dict.intern_iri("http://example.org/university0/department3/student17");
  dict.intern_iri("http://example.org/university0/department3/student18");
  dict.intern_iri("http://example.org/university0/professor2");
  dict.intern_blank("b0");
  dict.intern_literal("\"a literal with spaces\"");
  dict.intern_literal("\"a literal with spices\"");
  dict.intern_iri("urn:completely-different");
  return dict;
}

TEST(TermTable, RoundTripsWithKindsAndSharedPrefixes) {
  const Dictionary dict = sample_dictionary();
  std::ostringstream out;
  const std::size_t bytes = codec::write_terms(out, dict);
  EXPECT_EQ(bytes, out.str().size());

  std::istringstream in(out.str());
  Dictionary got;
  std::string error;
  ASSERT_TRUE(codec::read_terms(in, dict.size(), got, &error)) << error;
  ASSERT_EQ(got.size(), dict.size());
  for (TermId id = 1; id <= dict.size(); ++id) {
    EXPECT_EQ(got.lexical(id), dict.lexical(id));
    EXPECT_EQ(got.kind(id), dict.kind(id));
  }
}

TEST(TermTable, FrontCodingBeatsPlainConcatenation) {
  Dictionary dict;
  std::size_t raw = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string iri =
        "http://example.org/a/very/long/namespace/entity" +
        std::to_string(i);
    dict.intern_iri(iri);
    raw += iri.size();
  }
  std::ostringstream out;
  const std::size_t coded = codec::write_terms(out, dict);
  EXPECT_LT(coded, raw / 2);
}

TEST(TermTable, EverySingleByteFlipFails) {
  const Dictionary dict = sample_dictionary();
  std::ostringstream out;
  codec::write_terms(out, dict);
  const std::string bytes = out.str();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    std::istringstream in(mutated);
    Dictionary got;
    EXPECT_FALSE(codec::read_terms(in, dict.size(), got))
        << "flip at byte " << i << " loaded";
  }
}

TEST(TermTable, TruncationFailsCleanly) {
  const Dictionary dict = sample_dictionary();
  std::ostringstream out;
  codec::write_terms(out, dict);
  const std::string bytes = out.str();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    Dictionary got;
    std::string error;
    EXPECT_FALSE(codec::read_terms(in, dict.size(), got, &error)) << cut;
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------------
// Pinned digests: every checksum, fault decision and snapshot byte depends
// on these values, so a change to the shared mixer or triple digest shows
// here first.  The constants were read off the code before the transport,
// codec and snapshot copies of the mixer were merged into util::mix64.

std::vector<Triple> pinned_triples() {
  return {{1, 2, 3}, {70000, 5, 1}, {4, 4, 0xFFFFFFFFu}};
}

TEST(CodecPins, Mix64) {
  EXPECT_EQ(util::mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(util::mix64(0x0123456789abcdefULL), 0x157a3807a48faa9dULL);
}

TEST(CodecPins, SequenceDigestAndBatchChecksum) {
  const std::vector<Triple> ts = pinned_triples();
  EXPECT_EQ(codec::sequence_digest(ts), 0x036e67691e8e880dULL);
  EXPECT_EQ(codec::sequence_digest({}), 0x70617277626c6b31ULL);
  EXPECT_EQ(parallel::batch_checksum(ts), 0x18d38cd9f49ea848ULL);
}

TEST(CodecPins, SnapshotBytes) {
  Dictionary dict;
  TripleStore store;
  const TermId a = dict.intern_iri("http://ex/a");
  const TermId b = dict.intern_iri("http://ex/b");
  const TermId p = dict.intern_iri("http://ex/p");
  const TermId lit = dict.intern_literal("\"a\"");
  store.insert({a, p, b});
  store.insert({b, p, lit});
  store.insert({a, p, a});
  std::ostringstream v2;
  save_snapshot(v2, dict, store);
  EXPECT_EQ(v2.str().size(), 66u);
  EXPECT_EQ(util::fnv1a64(v2.str()), 0x3440dbb413ca775fULL);

  EqualityClassMap eq;
  eq.members = {{a, a}, {b, a}};
  eq.literals = {{a, lit}};
  eq.self_terms = {b};
  eq.raw_edges = {{lit, p, a}};
  std::ostringstream v3;
  save_snapshot(v3, dict, store, &eq);
  EXPECT_EQ(v3.str().size(), 88u);
  EXPECT_EQ(util::fnv1a64(v3.str()), 0xeb839a4ec6408991ULL);
}

}  // namespace
}  // namespace parowl::rdf
