#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_set>

#include "parowl/parallel/router.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/rules/rule_parser.hpp"

namespace parowl::parallel {
namespace {

/// One checksummed envelope carrying `tuples` from `from` to `to`.
Batch make_batch(std::uint32_t from, std::uint32_t to, std::uint32_t round,
                 std::vector<rdf::Triple> tuples, std::uint32_t seq = 0) {
  Batch b;
  b.from = from;
  b.to = to;
  b.round = round;
  b.seq = seq;
  b.checksum = batch_checksum(tuples);
  b.tuples = std::move(tuples);
  return b;
}

/// The payloads of `to`'s round-`round` inbox, each envelope checked valid.
std::vector<rdf::Triple> receive_tuples(Transport& t, std::uint32_t to,
                                        std::uint32_t round) {
  std::vector<rdf::Triple> out;
  for (const Batch& b : t.receive_batches(to, round)) {
    EXPECT_TRUE(b.valid());
    out.insert(out.end(), b.tuples.begin(), b.tuples.end());
  }
  return out;
}

TEST(MemoryTransport, DeliversBatchesByRoundAndDestination) {
  MemoryTransport t(3);
  const std::vector<rdf::Triple> batch1{{1, 2, 3}};
  const std::vector<rdf::Triple> batch2{{4, 5, 6}, {7, 8, 9}};
  t.send_batch(make_batch(0, 1, 0, batch1));
  t.send_batch(make_batch(2, 1, 0, batch2));
  t.send_batch(make_batch(0, 1, 1, batch1));  // later round: separate box

  const auto round0 = receive_tuples(t, 1, 0);
  EXPECT_EQ(round0.size(), 3u);
  const auto round1 = receive_tuples(t, 1, 1);
  EXPECT_EQ(round1.size(), 1u);
  // Inbox drained.
  EXPECT_TRUE(receive_tuples(t, 1, 0).empty());
  EXPECT_TRUE(receive_tuples(t, 0, 0).empty());
}

TEST(MemoryTransport, StatsTrackTraffic) {
  MemoryTransport t(2);
  const std::vector<rdf::Triple> batch{{1, 2, 3}, {4, 5, 6}};
  t.send_batch(make_batch(0, 1, 0, batch));
  receive_tuples(t, 1, 0);
  const CommStats s0 = t.stats(0);
  const CommStats s1 = t.stats(1);
  EXPECT_EQ(s0.messages_sent, 1u);
  EXPECT_EQ(s0.bytes_sent, 2 * sizeof(rdf::Triple));
  EXPECT_EQ(s1.bytes_received, 2 * sizeof(rdf::Triple));
}

TEST(MemoryTransport, ConcurrentSendsAreSafe) {
  MemoryTransport t(4);
  std::vector<std::jthread> threads;
  for (std::uint32_t w = 0; w < 4; ++w) {
    threads.emplace_back([&t, w] {
      for (std::uint32_t i = 0; i < 500; ++i) {
        t.send_batch(make_batch(w, (w + 1) % 4, 0, {{w + 1, i + 1, 1}}, i));
      }
    });
  }
  threads.clear();  // join
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    total += receive_tuples(t, p, 0).size();
  }
  EXPECT_EQ(total, 2000u);
}

class FileTransportTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("parowl_ft_" + std::to_string(::getpid()));

  rdf::Triple triple(const std::string& s, const std::string& p,
                     const std::string& o) {
    return {dict.intern_iri(s), dict.intern_iri(p), dict.intern_iri(o)};
  }
};

TEST_F(FileTransportTest, RoundTripsTriples) {
  const auto t1 = triple("http://ex/a", "http://ex/p", "http://ex/b");
  const rdf::Triple t2{dict.intern_iri("http://ex/a"),
                       dict.intern_iri("http://ex/p"),
                       dict.intern_literal("\"lit value\"")};
  {
    FileTransport ft(dir, 2);
    ft.send_batch(make_batch(0, 1, 0, {t1, t2}));
    const auto got = receive_tuples(ft, 1, 0);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], t1);
    EXPECT_EQ(got[1], t2);
    // Batch file consumed after receive.
    EXPECT_TRUE(receive_tuples(ft, 1, 0).empty());
  }
  // Spool directory removed on destruction.
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(FileTransportTest, BlankNodesRoundTrip) {
  FileTransport ft(dir, 2);
  const rdf::Triple t{dict.intern_blank("b0"), dict.intern_iri("http://p"),
                      dict.intern_blank("b1")};
  ft.send_batch(make_batch(1, 0, 3, {t}));
  const auto got = receive_tuples(ft, 0, 3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], t);
}

TEST_F(FileTransportTest, MultipleSendersAccumulate) {
  FileTransport ft(dir, 3);
  ft.send_batch(make_batch(0, 2, 0, {triple("a", "p", "b")}));
  ft.send_batch(make_batch(1, 2, 0, {triple("c", "p", "d")}));
  EXPECT_EQ(receive_tuples(ft, 2, 0).size(), 2u);
}

TEST_F(FileTransportTest, StatsMeasureBytes) {
  FileTransport ft(dir, 2);
  ft.send_batch(make_batch(
      0, 1, 0, {triple("http://ex/aaa", "http://ex/ppp", "http://ex/ooo")}));
  receive_tuples(ft, 1, 0);
  const std::uint64_t sent = ft.stats(0).bytes_sent;
  EXPECT_GT(sent, 0u);
  // Compact binary envelope: far below the ~45-byte N-Triples line the
  // old text format shipped for this triple.
  EXPECT_LT(sent, 40u);
  EXPECT_EQ(ft.stats(1).bytes_received, sent);
  EXPECT_GE(ft.stats(0).send_seconds, 0.0);
}

TEST_F(FileTransportTest, EmptyRoundYieldsNothing) {
  FileTransport ft(dir, 2);
  EXPECT_TRUE(receive_tuples(ft, 0, 7).empty());
}

// ---------------------------------------------------------------------------
// Torn files, write atomicity, checksums

/// The only .batch file in the spool, or an empty path.
std::filesystem::path sole_batch_file(const std::filesystem::path& spool) {
  std::filesystem::path found;
  for (const auto& entry : std::filesystem::directory_iterator(spool)) {
    if (entry.path().extension() == ".batch") {
      EXPECT_TRUE(found.empty()) << "more than one batch file";
      found = entry.path();
    }
  }
  return found;
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

TEST_F(FileTransportTest, SendLeavesNoTempFiles) {
  FileTransport ft(dir, 2);
  ft.send_batch(make_batch(
      0, 1, 0, {triple("http://ex/a", "http://ex/p", "http://ex/b")}));
  // The batch is staged as <name>.tmp and atomically renamed: a reader
  // scanning the spool can never observe a half-written .batch file.
  std::size_t batches = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    batches += entry.path().extension() == ".batch";
  }
  EXPECT_EQ(batches, 1u);
}

TEST_F(FileTransportTest, TruncatedBatchFileIsDetectedNotSilentlyWrong) {
  FileTransport ft(dir, 2);
  ft.send_batch(make_batch(0, 1, 0, {
      triple("http://ex/a", "http://ex/p", "http://ex/b"),
      triple("http://ex/c", "http://ex/p", "http://ex/d"),
      triple("http://ex/e", "http://ex/p", "http://ex/f"),
  }));

  // Tear the file: chop off the tail, as a crashed writer without the
  // tmp+rename discipline (or a truncated copy) would.
  const std::filesystem::path path = sole_batch_file(ft.spool_dir());
  ASSERT_FALSE(path.empty());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 10);

  const std::vector<Batch> got = ft.receive_batches(1, 0);
  ASSERT_EQ(got.size(), 1u);
  // The tear must surface as a failed integrity check — never as a
  // silently smaller batch that passes validation.
  EXPECT_FALSE(got[0].valid());
}

TEST_F(FileTransportTest, TamperedChecksumHeaderIsDetected) {
  FileTransport ft(dir, 2);
  ft.send_batch(make_batch(
      0, 1, 0, {triple("http://ex/a", "http://ex/p", "http://ex/b")}));

  const std::filesystem::path path = sole_batch_file(ft.spool_dir());
  ASSERT_FALSE(path.empty());
  std::string bytes = read_bytes(path);
  // The envelope checksum is the u64 right after the 4-byte magic and the
  // five identity varints (one byte each for this tiny batch).
  ASSERT_GT(bytes.size(), 17u);
  bytes[9] = static_cast<char>(bytes[9] ^ 0x01);
  write_bytes(path, bytes);

  const std::vector<Batch> got = ft.receive_batches(1, 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].valid());
}

/// Ship `sent` through `ft`, then replay every single-bit flip and every
/// proper prefix of its spool file: each must come back as exactly one
/// invalid envelope — damage to the header (sender, seq, attempt, kind,
/// token epoch or colour) included, not just damage to the payload.
/// Returns the number of mutations replayed.
std::size_t replay_every_mutation(FileTransport& ft, const Batch& sent) {
  ft.send_batch(sent);
  const std::filesystem::path path = sole_batch_file(ft.spool_dir());
  EXPECT_FALSE(path.empty());
  const std::string bytes = read_bytes(path);

  // The pristine file decodes to the envelope that was sent.
  const std::vector<Batch> clean = ft.receive_batches(sent.to, sent.round);
  EXPECT_EQ(clean.size(), 1u);
  if (clean.size() == 1) {
    EXPECT_TRUE(clean[0].valid());
    EXPECT_EQ(clean[0].id(), sent.id());
    EXPECT_EQ(clean[0].kind, sent.kind);
    EXPECT_EQ(clean[0].token_epoch, sent.token_epoch);
    EXPECT_EQ(clean[0].token_black, sent.token_black);
  }

  std::size_t mutations = 0;
  const auto expect_invalid = [&](const std::string& damaged,
                                  const std::string& what) {
    write_bytes(path, damaged);
    const std::vector<Batch> got = ft.receive_batches(sent.to, sent.round);
    ASSERT_EQ(got.size(), 1u) << what;
    EXPECT_FALSE(got[0].valid()) << what << " passed validation";
    ++mutations;
  };
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string damaged = bytes;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    expect_invalid(damaged, "flip of bit " + std::to_string(bit));
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    expect_invalid(bytes.substr(0, len),
                   "prefix of " + std::to_string(len) + " bytes");
  }
  return mutations;
}

TEST_F(FileTransportTest, EveryDataEnvelopeMutationIsInvalid) {
  FileTransport ft(dir, 4);
  Batch b = make_batch(2, 1, 5,
                       {triple("http://ex/a", "http://ex/p", "http://ex/b"),
                        triple("http://ex/c", "http://ex/p", "http://ex/d")},
                       3);
  b.attempt = 1;
  EXPECT_GT(replay_every_mutation(ft, b), 200u);
}

TEST_F(FileTransportTest, EveryTokenEnvelopeMutationIsInvalid) {
  FileTransport ft(dir, 4);
  Batch token = make_batch(3, 0, 9, {});
  token.kind = BatchKind::kToken;
  token.token_epoch = 6;
  token.token_black = true;
  EXPECT_GT(replay_every_mutation(ft, token), 100u);
}

// ---------------------------------------------------------------------------
// FaultyTransport properties: effective exactly-once delivery, and the
// decorator's injected-fault log reconciling with the protocol counters.

struct ProtocolResult {
  std::size_t resends = 0;
  bool converged = false;
  /// Validated payload per batch id — exactly-once effective delivery.
  std::map<std::uint64_t, std::vector<rdf::Triple>> delivered;
};

/// A hand-rolled single-round ack/retry loop: the same protocol the
/// cluster executor runs, reduced to its essence for property testing.
ProtocolResult run_ack_retry(FaultyTransport& ft, std::vector<Batch> pending,
                             std::uint32_t partitions, std::uint32_t round) {
  ProtocolResult result;
  AckBoard board;
  std::unordered_set<std::uint64_t> seen;
  const auto collect = [&] {
    for (std::uint32_t p = 0; p < partitions; ++p) {
      for (Batch& b : ft.receive_batches(p, round)) {
        if (!b.valid()) {
          ft.note_checksum_failure(p);
          continue;  // no ack: the sender will retransmit
        }
        board.ack(b.id());
        if (!seen.insert(b.id()).second) {
          ft.note_redelivery(p);
          continue;
        }
        result.delivered[b.id()] = std::move(b.tuples);
      }
    }
  };

  for (const Batch& b : pending) {
    ft.send_batch(b);
  }
  collect();
  for (int sweep = 0; sweep < 32; ++sweep) {
    std::erase_if(pending,
                  [&](const Batch& b) { return board.acked(b.id()); });
    if (pending.empty()) {
      result.converged = true;
      break;
    }
    for (Batch& b : pending) {
      b.attempt += 1;
      ft.send_batch(b);
      ++result.resends;
    }
    collect();
  }
  return result;
}

/// One batch per ordered partition pair, with distinct synthetic payloads.
std::vector<Batch> make_pair_batches(std::uint32_t partitions,
                                     std::size_t tuples_per_batch) {
  std::vector<Batch> batches;
  for (std::uint32_t from = 0; from < partitions; ++from) {
    for (std::uint32_t to = 0; to < partitions; ++to) {
      if (to == from) {
        continue;
      }
      Batch b;
      b.from = from;
      b.to = to;
      b.round = 0;
      b.seq = 0;
      for (std::size_t i = 0; i < tuples_per_batch; ++i) {
        b.tuples.push_back({from * 100 + static_cast<rdf::TermId>(i) + 1,
                            to + 1, static_cast<rdf::TermId>(i) + 7});
      }
      b.checksum = batch_checksum(b.tuples);
      batches.push_back(std::move(b));
    }
  }
  return batches;
}

std::vector<rdf::Triple> sorted(std::vector<rdf::Triple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(FaultyTransportProperty, ExactlyOnceUnderDropCorruptReorder) {
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    MemoryTransport inner(4);
    FaultSpec spec;
    spec.seed = seed;
    spec.drop = 0.3;
    spec.corrupt = 0.2;
    spec.reorder = 0.3;
    FaultyTransport ft(inner, spec);

    std::vector<Batch> batches = make_pair_batches(4, 3);
    std::map<std::uint64_t, std::vector<rdf::Triple>> sent;
    for (const Batch& b : batches) {
      sent[b.id()] = sorted(b.tuples);
    }

    const ProtocolResult res = run_ack_retry(ft, batches, 4, 0);
    ASSERT_TRUE(res.converged) << "seed " << seed;

    // Every batch delivered effectively exactly once, payload intact
    // (reorder shuffles tuples within a batch; content is a set).
    ASSERT_EQ(res.delivered.size(), sent.size()) << "seed " << seed;
    for (const auto& [id, tuples] : res.delivered) {
      EXPECT_EQ(sorted(tuples), sent.at(id)) << "seed " << seed;
    }

    // Reconciliation: every destructive fault costs exactly one resend.
    const FaultLog log = ft.injected_faults();
    EXPECT_EQ(res.resends, log.drops + log.corruptions) << "seed " << seed;

    CommStats total;
    for (std::uint32_t p = 0; p < 4; ++p) {
      total.merge(ft.stats(p));
    }
    // Each injected corruption is detected exactly once; nothing else
    // trips the checksum.  No duplicates injected => no redeliveries.
    EXPECT_EQ(total.checksum_failures, log.corruptions) << "seed " << seed;
    EXPECT_EQ(total.redeliveries, 0u) << "seed " << seed;
    // The inner transport counts a retry per retransmission it actually
    // sees: resends minus the retransmissions the decorator dropped.
    EXPECT_LE(total.retries, res.resends) << "seed " << seed;
    EXPECT_GE(total.retries + log.drops, res.resends) << "seed " << seed;

    total_faults += log.total();
  }
  // The sweep must actually have exercised the fault paths.
  EXPECT_GT(total_faults, 100u);
}

TEST(FaultyTransportProperty, DuplicatesAreRedeliveredNotReapplied) {
  std::uint64_t total_duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    MemoryTransport inner(4);
    FaultSpec spec;
    spec.seed = seed;
    spec.duplicate = 0.5;
    FaultyTransport ft(inner, spec);

    std::vector<Batch> batches = make_pair_batches(4, 2);
    const std::size_t expected = batches.size();
    const ProtocolResult res = run_ack_retry(ft, batches, 4, 0);

    // Duplication is not destructive: everything lands first try.
    ASSERT_TRUE(res.converged) << "seed " << seed;
    EXPECT_EQ(res.resends, 0u) << "seed " << seed;
    EXPECT_EQ(res.delivered.size(), expected) << "seed " << seed;

    const FaultLog log = ft.injected_faults();
    CommStats total;
    for (std::uint32_t p = 0; p < 4; ++p) {
      total.merge(ft.stats(p));
    }
    // Every injected duplicate is discarded by id — exactly once each.
    EXPECT_EQ(total.redeliveries, log.duplicates) << "seed " << seed;
    EXPECT_EQ(total.retries, 0u) << "seed " << seed;
    EXPECT_EQ(total.checksum_failures, 0u) << "seed " << seed;
    total_duplicates += log.duplicates;
  }
  EXPECT_GT(total_duplicates, 50u);
}

TEST(FaultyTransportProperty, DelayedBatchesRetransmitAndLateCopiesDrain) {
  MemoryTransport inner(2);
  FaultSpec spec;
  spec.seed = 5;
  spec.delay = 1.0;  // every faultable attempt is delayed
  FaultyTransport ft(inner, spec);

  Batch b;
  b.from = 0;
  b.to = 1;
  b.round = 0;
  b.seq = 0;
  b.tuples = {{1, 2, 3}};
  b.checksum = batch_checksum(b.tuples);

  const ProtocolResult res = run_ack_retry(ft, {b}, 2, 0);
  ASSERT_TRUE(res.converged);
  // Attempts 0..2 go to limbo (max_faulty_attempts = 3); attempt 3 is
  // exempt from faults and delivers.  Three resends, three limbo copies.
  EXPECT_EQ(res.resends, 3u);
  EXPECT_EQ(ft.injected_faults().delays, 3u);
  EXPECT_EQ(ft.limbo_remaining(), 3u);

  // The limbo copies surface in later rounds (due_round <= round) where
  // the receiver's id-dedup discards them; they never corrupt the run.
  std::size_t late = 0;
  for (std::uint32_t round = 1; round <= 1 + spec.max_delay_rounds; ++round) {
    for (const Batch& copy : ft.receive_batches(1, round)) {
      EXPECT_EQ(copy.id(), b.id());
      EXPECT_TRUE(copy.intact);
      EXPECT_EQ(batch_checksum(copy.tuples), copy.checksum);
      ++late;
    }
  }
  EXPECT_EQ(late, 3u);
  EXPECT_EQ(ft.limbo_remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Routers

TEST(OwnerRouter, RoutesToOwnersOfSubjectAndObject) {
  partition::OwnerTable owners;
  owners[10] = 0;
  owners[20] = 1;
  owners[30] = 2;
  const OwnerRouter router(owners);

  std::vector<std::uint32_t> dests;
  router.route({10, 99, 20}, /*self=*/0, dests);
  ASSERT_EQ(dests.size(), 1u);  // subject owned by self, object by 1
  EXPECT_EQ(dests[0], 1u);

  dests.clear();
  router.route({20, 99, 30}, 0, dests);
  EXPECT_EQ(dests.size(), 2u);

  dests.clear();
  router.route({10, 99, 10}, 0, dests);  // both owned by self
  EXPECT_TRUE(dests.empty());

  dests.clear();
  router.route({20, 99, 20}, 0, dests);  // same owner twice: one dest
  ASSERT_EQ(dests.size(), 1u);
}

TEST(OwnerRouter, UnknownTermsContributeNoDestination) {
  partition::OwnerTable owners;
  owners[10] = 1;
  const OwnerRouter router(owners);
  std::vector<std::uint32_t> dests;
  router.route({99, 98, 97}, 0, dests);
  EXPECT_TRUE(dests.empty());
}

TEST(RuleMatchRouter, RoutesTuplesToTriggeredPartitions) {
  rdf::Dictionary dict;
  rules::RuleParser parser(dict);
  std::vector<rules::RuleSet> parts(2);
  parts[0].add(*parser.parse_rule("r1: (?x <p> ?y) -> (?x <q> ?y)"));
  parts[1].add(*parser.parse_rule("r2: (?x <q> ?y) -> (?x <r> ?y)"));

  const RuleMatchRouter router(parts);
  const auto p = dict.find_iri("p");
  const auto q = dict.find_iri("q");

  std::vector<std::uint32_t> dests;
  router.route({1, q, 2}, /*self=*/0, dests);
  ASSERT_EQ(dests.size(), 1u);  // q-tuples trigger partition 1
  EXPECT_EQ(dests[0], 1u);

  dests.clear();
  router.route({1, p, 2}, 1, dests);  // p-tuples trigger partition 0
  ASSERT_EQ(dests.size(), 1u);
  EXPECT_EQ(dests[0], 0u);

  dests.clear();
  router.route({1, q, 2}, 1, dests);  // own partition excluded
  EXPECT_TRUE(dests.empty());
}

TEST(RuleMatchRouter, VariablePredicateAtomMatchesEverything) {
  rdf::Dictionary dict;
  rules::RuleParser parser(dict);
  std::vector<rules::RuleSet> parts(2);
  parts[0].add(*parser.parse_rule("r: (?x <sameAs> ?y) (?x ?p ?z) -> (?y ?p ?z)"));
  parts[1].add(*parser.parse_rule("r2: (?x <q> ?y) -> (?x <r> ?y)"));
  const RuleMatchRouter router(parts);
  std::vector<std::uint32_t> dests;
  router.route({1, 12345, 2}, 1, dests);
  ASSERT_EQ(dests.size(), 1u);  // the variable-predicate atom matches
  EXPECT_EQ(dests[0], 0u);
}

// The routers' trigger test is the dispatch index's: a candidate atom must
// also bind, so a repeated variable constrains the tuple.
TEST(AtomMatchesTuple, RepeatedVariableConstraint) {
  rdf::Dictionary dict;
  rules::RuleParser parser(dict);
  rules::RuleSet rule_set;
  rule_set.add(*parser.parse_rule("r: (?x <p> ?x) -> (?x <q> ?x)"));
  const rules::DispatchIndex index(rule_set);
  const auto p = dict.find_iri("p");
  EXPECT_TRUE(index.triggers(rule_set, {7, p, 7}));
  EXPECT_FALSE(index.triggers(rule_set, {7, p, 8}));
}

}  // namespace
}  // namespace parowl::parallel
