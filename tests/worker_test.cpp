#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "parowl/parallel/worker.hpp"
#include "parowl/rdf/codec.hpp"
#include "parowl/rules/rule_parser.hpp"
#include "parowl/util/strings.hpp"

namespace parowl::parallel {
namespace {

/// Unit tests for the Worker's round mechanics, using a trivial router that
/// sends every derivation to a fixed destination.
class EverythingToRouter final : public Router {
 public:
  explicit EverythingToRouter(std::uint32_t dest) : dest_(dest) {}
  void route(const rdf::Triple&, std::uint32_t self,
             std::vector<std::uint32_t>& out) const override {
    if (dest_ != self) {
      out.push_back(dest_);
    }
  }

 private:
  std::uint32_t dest_;
};

class WorkerTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  rules::RuleParser parser{dict};
  MemoryTransport transport{2};

  rdf::TermId iri(const std::string& s) { return dict.intern_iri(s); }

  rules::RuleSet trans_rules() {
    rules::RuleSet rs;
    rs.add(*parser.parse_rule("t: (?a <p> ?b) (?b <p> ?c) -> (?a <p> ?c)"));
    return rs;
  }

  WorkerOptions options() {
    WorkerOptions o;
    o.dict = &dict;
    return o;
  }

  /// A worker that has shipped one async envelope into its outbox.
  std::unique_ptr<Worker> shipped_worker() {
    auto w = std::make_unique<Worker>(
        0, trans_rules(), std::make_shared<EverythingToRouter>(1), &transport,
        options());
    w->load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")},
                                     {iri("b"), iri("p"), iri("c")}});
    w->enable_outbox();
    EXPECT_EQ(w->async_step(256).sent_batches, 1u);
    return w;
  }

  /// Its checkpoint, which carries that outbox entry.
  std::string outbox_checkpoint() {
    std::stringstream buf;
    shipped_worker()->save_checkpoint(buf, 0);
    return buf.str();
  }

  /// Load `bytes` into a fresh worker: false, with a reason, never a throw.
  /// Returns the reason.
  std::string expect_rejected(const std::string& bytes,
                              const std::string& what) {
    Worker fresh(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
                 &transport, options());
    std::stringstream in(bytes);
    std::string error;
    bool loaded = true;
    EXPECT_NO_THROW(loaded = fresh.load_checkpoint(in, nullptr, &error))
        << what;
    EXPECT_FALSE(loaded) << what << " accepted";
    EXPECT_FALSE(error.empty()) << what;
    return error;
  }
};

TEST_F(WorkerTest, ComputeLocalClosesAndRoutes) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  const std::vector<rdf::Triple> base{{iri("a"), iri("p"), iri("b")},
                                      {iri("b"), iri("p"), iri("c")}};
  w.load(base);
  EXPECT_EQ(w.base_size(), 2u);

  double seconds = -1.0;
  const std::vector<Outgoing> out = w.compute_local(&seconds);
  EXPECT_GE(seconds, 0.0);
  EXPECT_TRUE(w.store().contains({iri("a"), iri("p"), iri("c")}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dest, 1u);
  ASSERT_EQ(out[0].tuples.size(), 1u);
  EXPECT_EQ(w.result_size(), 1u);
}

TEST_F(WorkerTest, BaseTuplesAreNeverShipped) {
  Worker w(0, rules::RuleSet{}, std::make_shared<EverythingToRouter>(1),
           &transport, options());
  const std::vector<rdf::Triple> base{{iri("a"), iri("p"), iri("b")}};
  w.load(base);
  const std::vector<Outgoing> out = w.compute_local();
  EXPECT_TRUE(out.empty());
}

TEST_F(WorkerTest, AbsorbedTuplesAreReasonedButNotReshipped) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  const std::vector<rdf::Triple> base{{iri("a"), iri("p"), iri("b")}};
  w.load(base);
  (void)w.compute_local();

  // Foreign tuple extends the chain; its consequence is shipped but the
  // foreign tuple itself is not.
  const std::vector<rdf::Triple> foreign{{iri("b"), iri("p"), iri("c")}};
  EXPECT_EQ(w.absorb(foreign), 1u);
  const std::vector<Outgoing> out = w.compute_local();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].tuples.size(), 1u);
  EXPECT_EQ(out[0].tuples[0], (rdf::Triple{iri("a"), iri("p"), iri("c")}));
}

TEST_F(WorkerTest, ConsecutiveAbsorbsAllReachTheNextClosure) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{});
  (void)w.compute_local();

  // Two separate absorbs before one compute: both must be in the frontier.
  w.absorb(std::vector<rdf::Triple>{{iri("x"), iri("p"), iri("y")}});
  w.absorb(std::vector<rdf::Triple>{{iri("y"), iri("p"), iri("z")}});
  (void)w.compute_local();
  EXPECT_TRUE(w.store().contains({iri("x"), iri("p"), iri("z")}));
}

TEST_F(WorkerTest, AbsorbDeduplicates) {
  Worker w(0, rules::RuleSet{}, std::make_shared<EverythingToRouter>(1),
           &transport, options());
  const std::vector<rdf::Triple> base{{iri("a"), iri("p"), iri("b")}};
  w.load(base);
  EXPECT_EQ(w.absorb(base), 0u);  // already known
}

TEST_F(WorkerTest, RoundStatsAccumulate) {
  Worker w0(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
            &transport, options());
  Worker w1(1, trans_rules(), std::make_shared<EverythingToRouter>(0),
            &transport, options());
  w0.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")},
                                   {iri("b"), iri("p"), iri("c")}});
  w1.load(std::vector<rdf::Triple>{});

  const std::size_t sent0 = w0.compute_and_send(0);
  EXPECT_EQ(sent0, 1u);
  EXPECT_EQ(w1.compute_and_send(0), 0u);
  EXPECT_EQ(w1.collect(0, nullptr), 1u);
  EXPECT_EQ(w1.aggregate_round(0), 1u);

  const RoundStats& rs0 = w0.rounds()[0];
  EXPECT_EQ(rs0.sent_tuples, 1u);
  EXPECT_EQ(rs0.sent_messages, 1u);
  EXPECT_EQ(rs0.derived, 1u);
  const RoundStats& rs1 = w1.rounds()[0];
  EXPECT_EQ(rs1.received_tuples, 1u);
  EXPECT_EQ(rs1.received_new, 1u);
}

TEST_F(WorkerTest, RuleFiringsAccumulateAcrossRounds) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")},
                                  {iri("b"), iri("p"), iri("c")}});
  w.compute_and_send(0);  // derives (a p c)
  ASSERT_EQ(w.rule_firings().size(), 1u);
  EXPECT_EQ(w.rule_firings()[0], 1u);

  // A foreign tuple extends the chain; the next round's firings add up.
  w.absorb(std::vector<rdf::Triple>{{iri("c"), iri("p"), iri("d")}});
  w.compute_and_send(1);  // derives (b p d), (a p d), (c? ...)
  EXPECT_GE(w.rule_firings()[0], 3u);
}

// -- Checkpointing ----------------------------------------------------

TEST_F(WorkerTest, CheckpointRoundTripRestoresEverything) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")},
                                  {iri("b"), iri("p"), iri("c")}});
  w.compute_and_send(0);
  w.absorb(std::vector<rdf::Triple>{{iri("c"), iri("p"), iri("d")}});

  std::stringstream buf;
  w.save_checkpoint(buf, 0);

  Worker fresh(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
               &transport, options());
  std::uint32_t round = 99;
  std::string error;
  ASSERT_TRUE(fresh.load_checkpoint(buf, &round, &error)) << error;
  EXPECT_EQ(round, 0u);

  // Identical store log (order included), marks, stats, and firings.
  EXPECT_EQ(fresh.store().triples(), w.store().triples());
  EXPECT_EQ(fresh.base_size(), w.base_size());
  EXPECT_EQ(fresh.result_size(), w.result_size());
  EXPECT_EQ(fresh.rule_firings(), w.rule_firings());
  ASSERT_EQ(fresh.rounds().size(), w.rounds().size());
  EXPECT_EQ(fresh.rounds()[0].derived, w.rounds()[0].derived);
  EXPECT_EQ(fresh.rounds()[0].sent_tuples, w.rounds()[0].sent_tuples);

  // The restored worker continues identically: same next-round closure.
  const std::size_t sent_orig = w.compute_and_send(1);
  const std::size_t sent_fresh = fresh.compute_and_send(1);
  EXPECT_EQ(sent_fresh, sent_orig);
  EXPECT_EQ(fresh.store().triples(), w.store().triples());
  EXPECT_EQ(fresh.rule_firings(), w.rule_firings());
}

TEST_F(WorkerTest, CheckpointDetectsTamperedBytes) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")},
                                  {iri("b"), iri("p"), iri("c")}});
  w.compute_and_send(0);

  std::stringstream buf;
  w.save_checkpoint(buf, 0);
  std::string bytes = buf.str();
  bytes[bytes.size() / 2] ^= 0x40;  // one bit flip mid-file

  std::stringstream damaged(bytes);
  Worker fresh(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
               &transport, options());
  std::uint32_t round = 0;
  std::string error;
  EXPECT_FALSE(fresh.load_checkpoint(damaged, &round, &error));
  EXPECT_FALSE(error.empty());

  // Every single-bit flip of a checkpoint that carries sender state too.
  const std::string outbox = outbox_checkpoint();
  for (std::size_t bit = 0; bit < outbox.size() * 8; ++bit) {
    std::string flipped = outbox;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(flipped, "flip of bit " + std::to_string(bit));
  }
}

/// Where one varint count sits in a checkpoint: byte offset and length.
struct CountField {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Every count a version-5 checkpoint stores: the store log's block count,
/// the seen-id, round, rule and outbox counts, then each outbox entry's
/// block count.
std::vector<CountField> checkpoint_counts(const std::string& bytes) {
  std::vector<CountField> counts;
  std::string_view in(bytes);
  in.remove_suffix(8);  // the digest
  const auto pos = [&] { return bytes.size() - 8 - in.size(); };
  const auto varint = [&] {
    std::uint64_t v = 0;
    EXPECT_TRUE(rdf::codec::get_varint(in, v)) << "at byte " << pos();
    return v;
  };
  const auto count = [&] {
    const std::size_t at = pos();
    const std::uint64_t n = varint();
    counts.push_back({at, pos() - at});
    return n;
  };
  const auto block = [&] {
    std::string_view header = in.substr(1);  // past the block magic
    const std::size_t at = pos() + 1;
    std::uint64_t n = 0;
    EXPECT_TRUE(rdf::codec::get_varint(header, n));
    counts.push_back({at, bytes.size() - 8 - header.size() - at});
    std::vector<rdf::Triple> ts;
    EXPECT_TRUE(rdf::codec::decode_block(in, ts));
  };
  in.remove_prefix(4);  // magic
  for (int i = 0; i < 6; ++i) varint();  // version, id, round, three marks
  block();                                // store log
  for (std::uint64_t n = count(); n > 0; --n) varint();  // seen batch ids
  for (std::uint64_t n = count(); n > 0; --n) {          // round stats
    in.remove_prefix(4 * 8);              // the seconds fields
    for (int i = 0; i < 8; ++i) varint();  // the counters
  }
  for (std::uint64_t n = count(); n > 0; --n) varint();  // rule firings
  varint();                                               // send sequence
  for (std::uint64_t n = count(); n > 0; --n) {           // outbox
    for (int i = 0; i < 3; ++i) varint();  // destination, kind, sequence
    block();
  }
  EXPECT_TRUE(in.empty());
  return counts;
}

TEST_F(WorkerTest, CheckpointRejectsInflatedCounts) {
  const std::string bytes = outbox_checkpoint();
  const std::vector<CountField> counts = checkpoint_counts(bytes);
  ASSERT_EQ(counts.size(), 6u);  // five counts plus one outbox entry's
  for (const CountField& c : counts) {
    std::string damaged = bytes.substr(0, c.offset);
    rdf::codec::put_varint(damaged, std::uint64_t{1} << 40);
    damaged += bytes.substr(c.offset + c.size,
                            bytes.size() - 8 - c.offset - c.size);
    // Re-sealed, so the digest passes and the count bound must object.
    rdf::codec::put_u64le(damaged, util::fnv1a64(damaged));
    const std::string error = expect_rejected(
        damaged, "count at byte " + std::to_string(c.offset) + " inflated");
    EXPECT_NE(error.find("count"), std::string::npos) << error;
  }
}

TEST_F(WorkerTest, FailedCheckpointLoadClearsSenderState) {
  std::string damaged = outbox_checkpoint();
  damaged[damaged.size() / 2] ^= 0x40;

  const std::unique_ptr<Worker> w = shipped_worker();
  std::stringstream in(damaged);
  EXPECT_FALSE(w->load_checkpoint(in, nullptr, nullptr));
  // The stale pre-load outbox must not be resent.
  EXPECT_EQ(w->resend_outbox(), 0u);
}

TEST_F(WorkerTest, CheckpointDetectsTruncation) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")}});
  w.compute_and_send(0);

  std::stringstream buf;
  w.save_checkpoint(buf, 0);
  const std::string bytes = buf.str();

  // A torn file (every possible prefix) must be rejected, never half-loaded.
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{7}, std::size_t{0}}) {
    std::stringstream torn(bytes.substr(0, cut));
    Worker fresh(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
                 &transport, options());
    EXPECT_FALSE(fresh.load_checkpoint(torn, nullptr, nullptr))
        << "prefix of " << cut << " bytes accepted";
  }
}

TEST_F(WorkerTest, CheckpointRejectsWrongWorker) {
  Worker w(0, trans_rules(), std::make_shared<EverythingToRouter>(1),
           &transport, options());
  w.load(std::vector<rdf::Triple>{{iri("a"), iri("p"), iri("b")}});

  std::stringstream buf;
  w.save_checkpoint(buf, 3);

  Worker other(1, trans_rules(), std::make_shared<EverythingToRouter>(0),
               &transport, options());
  std::string error;
  EXPECT_FALSE(other.load_checkpoint(buf, nullptr, &error));
  EXPECT_NE(error.find("different worker"), std::string::npos) << error;
}

}  // namespace
}  // namespace parowl::parallel
