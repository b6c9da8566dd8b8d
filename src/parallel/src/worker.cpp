#include "parowl/parallel/worker.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <istream>
#include <iterator>
#include <limits>
#include <numeric>
#include <ostream>
#include <string_view>
#include <tuple>

#include "parowl/obs/obs.hpp"
#include "parowl/rdf/codec.hpp"
#include "parowl/reason/forward.hpp"
#include "parowl/util/strings.hpp"
#include "parowl/util/thread_team.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::parallel {

namespace {

/// Virtual Perfetto track for a worker: every worker gets its own row in
/// the trace even when all of them run on one thread (sequential-simulated
/// mode).  The cluster names these tracks at run start.
std::uint32_t worker_track(std::uint32_t id) { return 100 + id; }

}  // namespace

Worker::Worker(std::uint32_t id, rules::RuleSet rule_base,
               std::shared_ptr<const Router> router, Transport* transport,
               WorkerOptions options)
    : id_(id),
      rule_base_(std::move(rule_base)),
      router_(std::move(router)),
      transport_(transport),
      options_(options),
      cliques_({}, options_.dict) {
  const auto* owner_router = dynamic_cast<const OwnerRouter*>(router_.get());
  if (owner_router != nullptr &&
      options_.strategy == reason::Strategy::kForward) {
    owners_ = {&owner_router->owners(), id_};
    cliques_ = reason::CliqueForests(
        reason::analyze_cliques(rule_base_).predicates, options_.dict);
  }
}

void Worker::load(std::span<const rdf::Triple> base) {
  store_.insert_all(base);
  for (const rdf::Triple& t :
       std::span<const rdf::Triple>(store_.triples()).subspan(route_mark_)) {
    fold(t, true);
  }
  base_size_ = store_.size();
  close_cliques();
  frontier_ = 0;  // everything is new for the first closure
  route_mark_ = store_.size();  // base tuples are never shipped
}

void Worker::fold(const rdf::Triple& t, bool own) {
  if (!cliques_.holds(t.p)) {
    return;
  }
  const bool changed = cliques_.fold(t);
  const bool literal_subject =
      options_.dict != nullptr &&
      options_.dict->kind(t.s) == rdf::TermKind::kLiteral;
  if (own && (changed || literal_subject)) {
    owed_.push_back(t);
  }
}

std::size_t Worker::close_cliques() {
  std::vector<rdf::Triple> pairs;
  std::vector<std::uint32_t> rules;
  // Attempts are the engine's statistic; the worker keeps firings only and
  // publishes the pairs checked against those it inserts.
  std::vector<std::size_t> attempts(rule_base_.size(), 0);
  cliques_.close_touched(store_, pairs, rules, attempts, owners_);
  std::size_t added = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!store_.insert(pairs[i])) {
      continue;
    }
    if (rule_firings_.size() <= rules[i]) {
      rule_firings_.resize(rules[i] + 1, 0);
    }
    rule_firings_[rules[i]] += 1;
    ++added;
  }
  PAROWL_COUNT("parallel.clique_checked",
               std::accumulate(attempts.begin(), attempts.end(),
                               std::size_t{0}));
  PAROWL_COUNT("parallel.clique_inserted", added);
  return added;
}

void Worker::rebuild_forests() {
  owed_.clear();
  cliques_.clear();
  // Closed components are closed again on the next step: a restored store
  // already holds their pairs, so that only checks them.
  const std::span<const rdf::Triple> log(store_.triples());
  for (const rdf::Triple& t : log.first(std::min(route_mark_, log.size()))) {
    fold(t, false);
  }
}

RoundStats& Worker::round_stats(std::uint32_t round) {
  if (rounds_.size() <= round) {
    rounds_.resize(round + 1);
  }
  return rounds_[round];
}

std::vector<Outgoing> Worker::compute_local(double* compute_seconds) {
  // (a) Local closure from the frontier.
  util::Stopwatch reason_watch;
  if (options_.strategy == reason::Strategy::kForward) {
    reason::ForwardOptions fopts;
    fopts.dict = options_.dict;
    fopts.caller_closes_cliques = owners_.owners != nullptr;
    reason::ForwardEngine engine(store_, rule_base_, fopts);
    // The engine's fixpoint, then the components its derivations changed;
    // their new pairs feed the next pass.
    do {
      const std::size_t before = store_.size();
      const reason::ForwardStats fstats = engine.run(frontier_);
      if (rule_firings_.size() < fstats.firings_per_rule.size()) {
        rule_firings_.resize(fstats.firings_per_rule.size(), 0);
      }
      for (std::size_t r = 0; r < fstats.firings_per_rule.size(); ++r) {
        rule_firings_[r] += fstats.firings_per_rule[r];
      }
      frontier_ = store_.size();
      for (const rdf::Triple& t :
           std::span<const rdf::Triple>(store_.triples()).subspan(before)) {
        fold(t, true);
      }
    } while (close_cliques() > 0);
  } else {
    // Incremental after round 0: only resources affected by newly received
    // tuples are re-queried (frontier_ == 0 falls back to a full run).
    reason::query_driven_closure_delta(store_, *options_.dict, rule_base_,
                                       frontier_);
    frontier_ = store_.size();
  }
  if (compute_seconds != nullptr) {
    *compute_seconds = reason_watch.elapsed_seconds();
  }

  // (b) Route fresh derivations.
  return route_fresh();
}

std::size_t Worker::absorb(std::span<const rdf::Triple> tuples, bool own) {
  // frontier_ is NOT advanced here: it marks the first log index the next
  // closure must consume, which may include tuples from an earlier absorb
  // that no compute has processed yet.
  std::size_t fresh = 0;
  for (const rdf::Triple& t : tuples) {
    if (store_.insert(t)) {
      ++fresh;
      fold(t, own);
    }
  }
  // Absorbed tuples are never re-shipped, only reasoned over (owed forest
  // edges of a steal result travel as owed_).
  route_mark_ = store_.size();
  close_cliques();
  return fresh;
}

// -- The envelope path ------------------------------------------------
//
// Both drivers exchange tuples through the same five steps: route fresh
// tuples to their owners, ship each destination's batch as a stamped
// envelope (kept pending until acknowledged), stage arrivals (validate,
// acknowledge, deduplicate), absorb the stash in canonical order, and
// retransmit whatever the board has not acknowledged.  The round driver
// stamps envelopes with its round; the async driver, which has no shared
// round, with the sender's monotonic sequence.

namespace {

/// An unstamped envelope carrying `out`'s tuples to its destination.
Batch envelope(Outgoing out, BatchKind kind = BatchKind::kData) {
  Batch batch;
  batch.to = out.dest;
  batch.kind = kind;
  batch.tuples = std::move(out.tuples);
  return batch;
}

}  // namespace

std::vector<Outgoing> Worker::route(std::span<const rdf::Triple> tuples,
                                    std::uint32_t owner) {
  // Indexed by destination, so the batches come out in ship order.
  std::vector<std::vector<rdf::Triple>> by_dest;
  if (owner == id_ && !owed_.empty()) {
    by_dest.resize(transport_->num_partitions());
    for (std::uint32_t dest = 0; dest < by_dest.size(); ++dest) {
      if (dest != id_) {
        by_dest[dest] = owed_;
      }
    }
    owed_.clear();
  }
  std::vector<std::uint32_t> destinations;
  for (const rdf::Triple& t : tuples) {
    if (cliques_.holds(t.p)) {
      continue;  // forest edges travel as owed_
    }
    destinations.clear();
    router_->route(t, owner, destinations);
    for (const std::uint32_t dest : destinations) {
      if (by_dest.size() <= dest) {
        by_dest.resize(dest + 1);
      }
      by_dest[dest].push_back(t);
    }
  }
  std::vector<Outgoing> batches;
  for (std::uint32_t dest = 0; dest < by_dest.size(); ++dest) {
    if (!by_dest[dest].empty()) {
      batches.push_back(Outgoing{dest, std::move(by_dest[dest])});
    }
  }
  return batches;
}

std::vector<Outgoing> Worker::route_fresh() {
  const auto fresh =
      std::span<const rdf::Triple>(store_.triples()).subspan(route_mark_);
  route_mark_ = store_.size();
  return route(fresh, id_);
}

std::size_t Worker::ship(Batch batch, std::uint32_t round, RoundStats& rs) {
  util::Stopwatch io_watch;
  batch.from = id_;
  batch.round = round;
  batch.seq = 0;  // one envelope per destination per round field
  batch.attempt = 0;
  batch.checksum = batch_checksum(batch.tuples);
  const std::size_t tuples = batch.tuples.size();
  pending_.push_back(batch);  // kept for retransmission until acked
  if (log_outbox_ && batch.kind != BatchKind::kToken) {
    outbox_.push_back(OutboxEntry{batch, -1});
  }
  transport_->send_batch(std::move(batch));
  rs.sent_messages += 1;
  rs.sent_tuples += tuples;
  rs.io_seconds += io_watch.elapsed_seconds();
  return tuples;
}

std::size_t Worker::stage(std::vector<Batch> arrivals, AckBoard* board,
                          RoundStats& rs) {
  std::size_t staged = 0;
  for (Batch& batch : arrivals) {
    rs.received_tuples += batch.tuples.size();
    if (!batch.valid()) {
      rs.corrupt_batches += 1;
      transport_->note_checksum_failure(id_);
      continue;  // no ack: the sender will retransmit
    }
    const std::uint64_t id = batch.id();
    if (board != nullptr) {
      board->ack(id);  // ack even redeliveries: the sender may have missed it
    }
    if (!seen_batches_.insert(id).second) {
      rs.redelivered += 1;
      transport_->note_redelivery(id_);
      continue;
    }
    stash_.push_back(std::move(batch));
    staged += 1;
  }
  return staged;
}

std::size_t Worker::absorb_stash(RoundStats& rs) {
  util::Stopwatch agg_watch;
  // Canonical merge order: the store log (and hence the next closure's
  // frontier order and per-rule firing credit) must not depend on arrival
  // order, which faults and thread interleavings perturb.
  std::sort(stash_.begin(), stash_.end(), [](const Batch& a, const Batch& b) {
    return std::tie(a.from, a.round, a.seq) < std::tie(b.from, b.round, b.seq);
  });
  // Foreign data, then steal results (this worker's own derivations), each
  // absorbed as one delta so a component is closed once per kind.
  std::vector<rdf::Triple> foreign;
  std::vector<rdf::Triple> stolen;
  for (Batch& batch : stash_) {
    std::sort(batch.tuples.begin(), batch.tuples.end());
    std::vector<rdf::Triple>& into =
        batch.kind == BatchKind::kStealResult ? stolen : foreign;
    into.insert(into.end(), batch.tuples.begin(), batch.tuples.end());
  }
  stash_.clear();
  const std::size_t before = store_.size();
  const std::size_t fresh = absorb(foreign) + absorb(stolen, true);
  rs.derived += store_.size() - before - fresh;  // pairs the closes added
  rs.aggregate_seconds += agg_watch.elapsed_seconds();
  rs.received_new += fresh;
  return fresh;
}

std::size_t Worker::retransmit_unacked(std::uint32_t round,
                                       const AckBoard& board) {
  obs::Span span("parallel.retransmit", {{"round", round}, {"worker", id_}},
                 worker_track(id_));
  RoundStats& rs = round_stats(round);
  std::erase_if(pending_,
                [&](const Batch& b) { return board.acked(b.id()); });

  util::Stopwatch io_watch;
  for (Batch& batch : pending_) {
    batch.attempt += 1;
    transport_->send_batch(batch);
  }
  const std::size_t resent = pending_.size();
  rs.retransmitted += resent;
  rs.io_seconds += io_watch.elapsed_seconds();
  span.arg({"resent", resent});
  PAROWL_COUNT("parallel.retransmissions", resent);
  return resent;
}

// -- Round-synchronous execution --------------------------------------

std::size_t Worker::compute_and_send(std::uint32_t round) {
  obs::Span round_span("parallel.round", {{"round", round}, {"worker", id_}},
                       worker_track(id_));
  RoundStats& rs = round_stats(round);
  pending_.clear();
  stash_.clear();

  const std::size_t before = store_.size();
  double compute_seconds = 0.0;
  std::vector<Outgoing> batches;
  {
    obs::Span compute_span("parallel.compute",
                           {{"round", round}, {"worker", id_}},
                           worker_track(id_));
    batches = compute_local(&compute_seconds);
    compute_span.arg({"derived", store_.size() - before});
  }
  rs.reason_seconds += compute_seconds;
  rs.derived += store_.size() - before;

  std::size_t sent = 0;
  obs::Span send_span("parallel.send", {{"round", round}, {"worker", id_}},
                      worker_track(id_));
  for (Outgoing& out : batches) {
    sent += ship(envelope(std::move(out)), round, rs);
  }
  send_span.arg({"tuples", sent});
  PAROWL_COUNT("parallel.tuples_sent", sent);
  return sent;
}

std::size_t Worker::collect(std::uint32_t round, AckBoard* board) {
  obs::Span span("parallel.recv", {{"round", round}, {"worker", id_}},
                 worker_track(id_));
  RoundStats& rs = round_stats(round);
  util::Stopwatch io_watch;
  std::vector<Batch> arrived = transport_->receive_batches(id_, round);
  rs.io_seconds += io_watch.elapsed_seconds();
  const std::size_t staged = stage(std::move(arrived), board, rs);
  span.arg({"batches", staged});
  return staged;
}

std::size_t Worker::aggregate_round(std::uint32_t round) {
  obs::Span span("parallel.aggregate", {{"round", round}, {"worker", id_}},
                 worker_track(id_));
  const std::size_t fresh = absorb_stash(round_stats(round));
  span.arg({"fresh", fresh});
  return fresh;
}

// -- Asynchronous execution -------------------------------------------

Worker::AsyncArrivals Worker::async_collect(AckBoard* board) {
  obs::Span span("parallel.drain", {{"worker", id_}}, worker_track(id_));
  RoundStats& rs = round_stats(0);  // async stats accumulate on slot 0

  util::Stopwatch io_watch;
  std::vector<Batch> arrived = transport_->receive_all(id_);
  rs.io_seconds += io_watch.elapsed_seconds();

  AsyncArrivals result;
  stage(std::move(arrived), board, rs);
  // Termination probes steer the executor; they carry no tuples.
  const auto tokens =
      std::stable_partition(stash_.begin(), stash_.end(), [](const Batch& b) {
        return b.kind != BatchKind::kToken;
      });
  result.tokens.assign(std::make_move_iterator(tokens),
                       std::make_move_iterator(stash_.end()));
  stash_.erase(tokens, stash_.end());
  result.batches = stash_.size();
  result.fresh = absorb_stash(rs);
  // Forest edges among absorbed steal results go out at once.
  for (Outgoing& out : route({}, id_)) {
    ship(envelope(std::move(out)), send_seq_++, rs);
  }
  span.arg({"batches", result.batches});
  span.arg({"fresh", result.fresh});
  return result;
}

Worker::AsyncStepStats Worker::async_step(std::size_t max_delta) {
  AsyncStepStats st;
  RoundStats& rs = round_stats(0);
  const std::size_t before = store_.size();

  util::Stopwatch reason_watch;
  if (options_.strategy == reason::Strategy::kForward) {
    // One bounded matching pass over the next frontier chunk.  New
    // derivations land at the end of the log and become further backlog,
    // so repeated steps still reach the local fixpoint.
    const std::size_t hi = std::min(store_.size(), frontier_ + max_delta);
    if (frontier_ >= hi) {
      return st;
    }
    reason::ForwardOptions fopts;
    fopts.dict = options_.dict;
    fopts.caller_closes_cliques = owners_.owners != nullptr;
    reason::ForwardEngine engine(store_, rule_base_, fopts);
    const auto derivations = engine.match_delta(frontier_, hi);
    st.consumed = hi - frontier_;
    frontier_ = hi;
    for (const auto& d : derivations) {
      if (store_.insert(d.triple)) {
        st.derived += 1;
        if (rule_firings_.size() <= d.rule) {
          rule_firings_.resize(d.rule + 1, 0);
        }
        rule_firings_[d.rule] += 1;
        fold(d.triple, true);
      }
    }
    st.derived += close_cliques();
  } else {
    // Query-driven workers have no incremental chunk notion: close fully
    // from the frontier, exactly as one synchronous round would.
    const std::size_t backlog_before = backlog();
    if (backlog_before == 0) {
      return st;
    }
    reason::query_driven_closure_delta(store_, *options_.dict, rule_base_,
                                       frontier_);
    st.consumed = backlog_before;
    frontier_ = store_.size();
    st.derived = store_.size() - before;
  }
  st.compute_seconds = reason_watch.elapsed_seconds();
  rs.reason_seconds += st.compute_seconds;
  rs.derived += store_.size() - before;

  for (Outgoing& out : route_fresh()) {
    st.sent_tuples += ship(envelope(std::move(out)), send_seq_++, rs);
    st.sent_batches += 1;
  }
  PAROWL_COUNT("parallel.tuples_sent", st.sent_tuples);
  return st;
}

Worker::StealShard Worker::grant_steal(std::size_t max_tuples) {
  StealShard shard;
  shard.lo = frontier_;
  shard.hi = std::min(store_.size(), frontier_ + max_tuples);
  frontier_ = shard.hi;  // the thief owns evaluating [lo, hi) now
  return shard;
}

std::vector<reason::ForwardEngine::Derivation> Worker::evaluate_shard(
    std::size_t lo, std::size_t hi) const {
  // match_delta never mutates the store; the const_cast only satisfies the
  // engine's store-reference constructor.
  auto& store = const_cast<rdf::TripleStore&>(store_);
  reason::ForwardOptions fopts;
  fopts.dict = options_.dict;
  fopts.threads = 1;  // thief-side pass is already the parallel unit
  fopts.caller_closes_cliques = owners_.owners != nullptr;
  reason::ForwardEngine engine(store, rule_base_, fopts);
  return engine.match_delta(lo, hi);
}

std::size_t Worker::ship_steal_results(
    std::uint32_t victim_id,
    std::span<const reason::ForwardEngine::Derivation> derivations) {
  RoundStats& rs = round_stats(0);
  // Everything returns to the victim: the derivations are *its* closure
  // work, it must re-evaluate them against its rules (they are new
  // frontier there) and own the per-rule firing credit.
  std::vector<rdf::Triple> tuples;
  tuples.reserve(derivations.size());
  for (const auto& d : derivations) {
    tuples.push_back(d.triple);
  }
  // Plus the ordinary routed copies, computed with the VICTIM's partition
  // id — the placement rule is per-owner, and these tuples belong to the
  // victim's partition.  The router never names the owner itself, so the
  // kStealResult envelope alone covers the victim.
  std::vector<Outgoing> batches = route(tuples, victim_id);

  std::size_t shipped = 0;
  if (!tuples.empty()) {
    shipped += ship(envelope(Outgoing{victim_id, std::move(tuples)},
                             BatchKind::kStealResult),
                    send_seq_++, rs);
  }
  for (Outgoing& out : batches) {
    shipped += ship(envelope(std::move(out)), send_seq_++, rs);
  }
  return shipped;
}

void Worker::send_token(std::uint32_t to, std::uint32_t epoch, bool black) {
  Batch token;
  token.to = to;
  token.kind = BatchKind::kToken;
  token.token_epoch = epoch;
  token.token_black = black;
  ship(std::move(token), send_seq_++, round_stats(0));
}

std::size_t Worker::release_acked(const AckBoard& board) {
  std::erase_if(pending_,
                [&](const Batch& b) { return board.acked(b.id()); });
  if (log_outbox_) {
    for (OutboxEntry& e : outbox_) {
      if (e.acked_ck < 0 && board.acked(e.batch.id())) {
        e.acked_ck = ckpt_count_;
      }
    }
  }
  return pending_.size();
}

std::size_t Worker::resend_outbox() {
  // Crash recovery: re-ship every retained envelope under its original id.
  // Receivers that already absorbed one deduplicate; receivers restored
  // from an older cut genuinely need it.
  for (const OutboxEntry& e : outbox_) {
    pending_.push_back(e.batch);
    transport_->send_batch(e.batch);
  }
  return outbox_.size();
}

void Worker::prune_outbox() {
  // Called once per checkpoint.  An entry acked before the PREVIOUS
  // checkpoint is safe to drop: termination probes are strictly
  // sequential, so every receiver's epoch-(k-1) cut happens-after the ack
  // and therefore contains the payload durably.  Entries acked since then
  // ride along one more checkpoint.
  ckpt_count_ += 1;
  std::erase_if(outbox_, [&](const OutboxEntry& e) {
    return e.acked_ck >= 0 && e.acked_ck < ckpt_count_ - 1;
  });
}

// -- Checkpointing ----------------------------------------------------
//
// Format version 5, every field in rdf::codec's encoding:
//   "POWC" | varint version
//   varint worker id | varint round
//   varint base_size | varint frontier | varint route_mark
//   triple block: the store log
//   varint nseen   | nseen varint batch ids, ascending
//   varint nrounds | per round: the four seconds fields as u64le bit
//                    patterns, then the eight counters as varints
//   varint nrules  | nrules varint firings
//   varint send_seq
//   varint noutbox | per entry: varint to | varint kind |
//                    varint round (the sender sequence) | triple block
//   u64le digest   (util::fnv1a64 of every byte before it)
// The loader checks magic, version and digest before it decodes anything,
// then bounds every count by the bytes left, so a torn or damaged file is
// rejected and no count can size an allocation past the file.  Identical
// state writes identical bytes (seen ids are sorted).  In async runs the
// `round` field holds the termination-token epoch of the cut.  Files of
// any other version are rejected.

namespace {

constexpr std::string_view kCkptMagic = "POWC";
constexpr std::uint64_t kCkptVersion = 5;
/// Gap added to send_seq_ (and by the executor to the probe-epoch base)
/// on checkpoint load, so post-recovery batch ids and token epochs can
/// never collide with in-flight pre-crash ones.
constexpr std::uint32_t kRecoverySeqGap = 1u << 20;

/// RoundStats' fields, listed once for the writer and the reader.
constexpr std::array kStatSeconds{
    &RoundStats::reason_seconds, &RoundStats::io_seconds,
    &RoundStats::sync_seconds, &RoundStats::aggregate_seconds};
constexpr std::array kStatCounts{
    &RoundStats::derived,         &RoundStats::sent_tuples,
    &RoundStats::sent_messages,   &RoundStats::received_tuples,
    &RoundStats::received_new,    &RoundStats::retransmitted,
    &RoundStats::redelivered,     &RoundStats::corrupt_batches};

/// Fewest bytes a record can encode to: the bound on each count.
constexpr std::size_t kMinStatsBytes = 8 * kStatSeconds.size() +
                                       kStatCounts.size();
/// Three varints and an empty block (magic, two varints, u64 checksum).
constexpr std::size_t kMinOutboxBytes = 3 + 11;

/// Bounds-checked decoder of a checkpoint body.  The first failure sticks:
/// every later read yields zero, and `finish` names what failed.
class CkptReader {
 public:
  explicit CkptReader(std::string_view body) : in_(body) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (ok() && !rdf::codec::get_varint(in_, v)) fail("truncated checkpoint");
    return ok() ? v : 0;
  }

  std::uint32_t u32() {
    const std::uint64_t v = u64();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail("checkpoint field out of range");
    }
    return ok() ? static_cast<std::uint32_t>(v) : 0;
  }

  double f64() {
    std::uint64_t bits = 0;
    if (ok() && !rdf::codec::get_u64le(in_, bits)) {
      fail("truncated checkpoint");
    }
    return ok() ? std::bit_cast<double>(bits) : 0.0;
  }

  /// A record count, rejected unless that many records of at least
  /// `min_bytes` each fit in the bytes left.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > in_.size() / min_bytes) {
      fail("checkpoint count exceeds the bytes left");
    }
    return ok() ? static_cast<std::size_t>(n) : 0;
  }

  void block(std::vector<rdf::Triple>& out) {
    std::string why;
    if (ok() && !rdf::codec::decode_block(in_, out, &why)) {
      fail("checkpoint " + why);
    }
  }

  void fail(std::string why) {
    if (ok()) error_ = std::move(why);
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }

  /// The first failure, or trailing bytes; empty when the body decoded.
  [[nodiscard]] const std::string& finish() {
    if (!in_.empty()) fail("trailing bytes in checkpoint");
    return error_;
  }

 private:
  std::string_view in_;
  std::string error_;
};

}  // namespace

void Worker::save_checkpoint(std::ostream& out, std::uint32_t round) const {
  using rdf::codec::put_varint;
  std::string buf(kCkptMagic);
  put_varint(buf, kCkptVersion);
  for (const std::uint64_t v :
       {std::uint64_t{id_}, std::uint64_t{round}, std::uint64_t{base_size_},
        std::uint64_t{frontier_}, std::uint64_t{route_mark_}}) {
    put_varint(buf, v);
  }
  rdf::codec::encode_block(store_.triples(), buf);

  // Sorted so identical state produces byte-identical checkpoints.
  std::vector<std::uint64_t> seen(seen_batches_.begin(), seen_batches_.end());
  std::sort(seen.begin(), seen.end());
  put_varint(buf, seen.size());
  for (const std::uint64_t b : seen) put_varint(buf, b);

  put_varint(buf, rounds_.size());
  for (const RoundStats& rs : rounds_) {
    for (const auto field : kStatSeconds) {
      rdf::codec::put_u64le(buf, std::bit_cast<std::uint64_t>(rs.*field));
    }
    for (const auto field : kStatCounts) put_varint(buf, rs.*field);
  }

  put_varint(buf, rule_firings_.size());
  for (const std::size_t f : rule_firings_) put_varint(buf, f);

  put_varint(buf, send_seq_);
  put_varint(buf, outbox_.size());
  for (const OutboxEntry& e : outbox_) {
    put_varint(buf, e.batch.to);
    put_varint(buf, static_cast<std::uint64_t>(e.batch.kind));
    put_varint(buf, e.batch.round);
    rdf::codec::encode_block(e.batch.tuples, buf);
  }

  rdf::codec::put_u64le(buf, util::fnv1a64(buf));
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool Worker::load_checkpoint(std::istream& in, std::uint32_t* round,
                             std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    store_.clear();
    base_size_ = frontier_ = route_mark_ = 0;
    rebuild_forests();
    rounds_.clear();
    rule_firings_.clear();
    seen_batches_.clear();
    pending_.clear();
    stash_.clear();
    outbox_.clear();
    send_seq_ = 0;
    ckpt_count_ = 0;
    return false;
  };

  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  std::string_view body(bytes);
  if (!body.starts_with(kCkptMagic)) {
    return fail("bad checkpoint magic");
  }
  body.remove_prefix(kCkptMagic.size());
  std::uint64_t version = 0;
  if (!rdf::codec::get_varint(body, version) || version != kCkptVersion) {
    return fail("unsupported checkpoint version");
  }
  if (body.size() < 8) {
    return fail("truncated checkpoint");
  }
  body.remove_suffix(8);
  const std::string_view sealed(bytes.data(), bytes.size() - 8);
  std::string_view tail = std::string_view(bytes).substr(sealed.size());
  std::uint64_t digest = 0;
  if (!rdf::codec::get_u64le(tail, digest) ||
      digest != util::fnv1a64(sealed)) {
    return fail("checkpoint digest mismatch (torn or damaged file)");
  }

  CkptReader r(body);
  if (r.u32() != id_ && r.ok()) {
    return fail("checkpoint belongs to a different worker");
  }
  const std::uint32_t saved_round = r.u32();
  const std::uint64_t base = r.u64();
  const std::uint64_t frontier = r.u64();
  const std::uint64_t route_mark = r.u64();
  std::vector<rdf::Triple> log;
  r.block(log);

  std::vector<std::uint64_t> seen(r.count(1));
  for (std::uint64_t& b : seen) b = r.u64();

  std::vector<RoundStats> stats(r.count(kMinStatsBytes));
  for (RoundStats& rs : stats) {
    for (const auto field : kStatSeconds) rs.*field = r.f64();
    for (const auto field : kStatCounts) rs.*field = r.u64();
  }

  std::vector<std::size_t> firings(r.count(1));
  for (std::size_t& f : firings) f = r.u64();

  const std::uint32_t send_seq = r.u32();
  std::vector<OutboxEntry> outbox(r.count(kMinOutboxBytes));
  for (OutboxEntry& e : outbox) {
    Batch& b = e.batch;
    b.from = id_;
    b.to = r.u32();
    const std::uint64_t kind = r.u64();
    if (kind > static_cast<std::uint64_t>(BatchKind::kStealResult)) {
      r.fail("checkpoint outbox entry of unknown kind");
    }
    b.kind = static_cast<BatchKind>(kind);
    b.round = r.u32();
    r.block(b.tuples);
    b.checksum = batch_checksum(b.tuples);
  }
  if (const std::string& why = r.finish(); !why.empty()) {
    return fail(why);
  }

  store_.clear();
  store_.insert_all(log);
  if (store_.size() != log.size()) {
    return fail("checkpoint log contained duplicate triples");
  }
  base_size_ = static_cast<std::size_t>(base);
  frontier_ = static_cast<std::size_t>(frontier);
  route_mark_ = static_cast<std::size_t>(route_mark);
  rebuild_forests();
  rounds_ = std::move(stats);
  rule_firings_ = std::move(firings);
  seen_batches_.clear();
  seen_batches_.insert(seen.begin(), seen.end());
  pending_.clear();
  stash_.clear();
  // Restore the async sender state with a sequence gap: every batch id
  // minted after recovery is distinct from anything in flight pre-crash,
  // so stale envelopes can only ever be deduplicated, never confused.
  send_seq_ = send_seq + kRecoverySeqGap;
  outbox_ = std::move(outbox);
  ckpt_count_ = 0;
  if (round != nullptr) {
    *round = saved_round;
  }
  return true;
}

std::size_t count_distinct(std::span<const std::span<const rdf::Triple>> logs,
                           util::ThreadTeam& team,
                           const rdf::TripleStore* exclude) {
  const unsigned members = team.size();
  std::vector<std::size_t> counts(members, 0);
  team.run([&](unsigned m) {
    rdf::TripleSet mine;
    for (const std::span<const rdf::Triple> log : logs) {
      for (const rdf::Triple& t : log) {
        const std::size_t hash = rdf::TripleHash{}(t);
        if ((static_cast<std::uint64_t>(hash) >> 58) % members == m &&
            (exclude == nullptr || !exclude->contains(t))) {
          mine.insert(t, hash);
        }
      }
    }
    counts[m] = mine.size();
  });
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

std::size_t union_of_derived(std::span<const std::unique_ptr<Worker>> workers,
                             util::ThreadTeam& team) {
  PAROWL_SPAN("parallel.union", {{"workers", workers.size()}});
  std::vector<std::span<const rdf::Triple>> logs;
  logs.reserve(workers.size());
  for (const auto& worker : workers) {
    logs.push_back(worker->derived());
  }
  return count_distinct(logs, team);
}

}  // namespace parowl::parallel
