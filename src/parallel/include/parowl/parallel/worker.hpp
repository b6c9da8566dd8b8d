#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "parowl/parallel/router.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/clique.hpp"
#include "parowl/reason/forward.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::parallel {

/// Per-round timing/volume record for one worker — the raw data behind the
/// paper's Fig. 2 overhead breakdown, extended with the ack/retry
/// protocol's delivery accounting.
struct RoundStats {
  double reason_seconds = 0.0;     // local closure computation
  double io_seconds = 0.0;         // transport send + receive
  double sync_seconds = 0.0;       // waiting for the slowest partition
  double aggregate_seconds = 0.0;  // merging received tuples into the store
  std::size_t derived = 0;         // new local derivations this round
  std::size_t sent_tuples = 0;
  std::size_t sent_messages = 0;
  std::size_t received_tuples = 0; // everything that arrived (wire volume)
  std::size_t received_new = 0;    // received tuples that were actually new
  std::size_t retransmitted = 0;   // batches resent after a missing ack
  std::size_t redelivered = 0;     // duplicate batches discarded by id
  std::size_t corrupt_batches = 0; // checksum failures detected
};

/// Options shared by all workers of a cluster.
struct WorkerOptions {
  /// Local reasoning strategy per round.  kQueryDriven reproduces the
  /// paper's Jena materialization behaviour (super-linear cost in partition
  /// size); kForward is the efficient engine.
  reason::Strategy strategy = reason::Strategy::kForward;
  const rdf::Dictionary* dict = nullptr;
};

/// A batch of tuples routed to one destination partition.
struct Outgoing {
  std::uint32_t dest = 0;
  std::vector<rdf::Triple> tuples;
};

/// One node of the parallel reasoner (Algorithm 3).  A worker owns its
/// triple store and rule subset; each round it (a) closes its store under
/// its rules, (b) routes and sends fresh derivations, and after the barrier
/// (c) merges received tuples.  Workers never share mutable state — all
/// exchange goes through the Transport.
///
/// Delivery is exactly-once *effective*: envelopes carry a checksum and a
/// unique batch id; `collect` discards invalid envelopes (forcing a
/// retransmission) and deduplicates redeliveries, and `aggregate_round`
/// merges the surviving payloads in a canonical order — so any fault
/// schedule the retry machinery survives yields a store log bit-identical
/// to the fault-free run's.
///
/// Under data partitioning (an OwnerRouter) with the forward engine, a
/// symmetric-transitive ("clique") predicate p crosses the cluster as
/// forest edges, not pairs.  The worker keeps reason::CliqueForests, one
/// forest per p over every p-triple it holds, ships a p-triple of its own
/// (base or derived) to every peer iff it changed that forest or has a
/// literal subject, and never re-ships a received one.  Every forest then ends up
/// spanning the same components, and the worker closes them itself: a
/// component it changed expands only into the pairs this partition must
/// hold, those with an endpoint it owns or with no owned endpoint at all.
/// The engine leaves p's symmetric and transitive joins to it (except
/// through literal middle terms), in every driver.
class Worker {
 public:
  /// `transport` must be non-null and outlive the worker.
  Worker(std::uint32_t id, rules::RuleSet rule_base,
         std::shared_ptr<const Router> router, Transport* transport,
         WorkerOptions options);

  /// Load the base partition (and any replicated triples, e.g. schema).
  /// Base tuples are never shipped, except the clique-predicate edges the
  /// forest rule owes every peer: those go out with the first shipment.
  void load(std::span<const rdf::Triple> base);

  /// Close the store under this worker's rules starting from the current
  /// frontier and route the fresh derivations.  Returns the outgoing
  /// batches (sorted by destination); `compute_seconds`, when non-null,
  /// receives the measured reasoning time.  Sends nothing itself.
  std::vector<Outgoing> compute_local(double* compute_seconds = nullptr);

  /// Merge a delta of tuples into the store (no transport involved), then
  /// close the components they touched.  They are foreign, or, with `own`,
  /// a steal result: the thief's derivations are this worker's, so their
  /// forest edges are owed to every peer.  Returns the number of new tuples
  /// among `tuples` (pairs the close inserted are not counted).
  std::size_t absorb(std::span<const rdf::Triple> tuples, bool own = false);

  /// Round phase A: local closure from the current frontier, then route and
  /// ship fresh derivations as checksummed envelopes (kept for
  /// retransmission until acknowledged).  Returns the number of tuples
  /// sent.
  std::size_t compute_and_send(std::uint32_t round);

  /// Delivery loop step 1 (repeatable): drain the transport inbox for
  /// `round`, discard invalid envelopes (counting a checksum failure),
  /// deduplicate redeliveries by batch id, acknowledge and stage the rest.
  /// Returns the number of envelopes newly staged.  A null `board` stages
  /// without acknowledging.
  std::size_t collect(std::uint32_t round, AckBoard* board);

  /// Delivery loop step 2: resend every pending envelope the board has not
  /// acknowledged, with a bumped attempt counter; acknowledged envelopes
  /// are released.  Returns the number of retransmissions issued.  Async
  /// callers pass round 0, the slot their counters accumulate on.
  std::size_t retransmit_unacked(std::uint32_t round, const AckBoard& board);

  /// Delivery loop finale: merge the staged payloads into the store in the
  /// canonical order — batches by (sender, round, seq), tuples sorted
  /// within each batch — so the store log is independent of arrival order.
  /// Returns the number of genuinely new tuples.
  std::size_t aggregate_round(std::uint32_t round);

  // -- Asynchronous execution ------------------------------------------
  //
  // The async executors (ExecutionMode::kAsync / kAsyncThreaded) drop the
  // round barrier: workers drain arrivals with `async_collect`, evaluate
  // bounded frontier chunks with `async_step`, steal frontier shards from
  // backlogged peers (`grant_steal` on the victim, `evaluate_shard` +
  // `ship_steal_results` on the thief), and detect global quiescence with
  // a Dijkstra-style token ring (`send_token`).  Both drivers share one
  // envelope path: the same routing, the same stamping and pending copy
  // (an async envelope carries the sender's monotonic sequence in its id's
  // round field), the same validate/ack/dedup staging, the same canonical
  // absorb and the same retransmission — so the fault model and retry
  // machinery of the synchronous mode apply unchanged.  Async counters
  // accumulate on RoundStats slot 0.

  /// What one `async_collect` poll produced.
  struct AsyncArrivals {
    std::size_t batches = 0;    // data/steal envelopes newly staged
    std::size_t fresh = 0;      // genuinely new tuples absorbed
    std::vector<Batch> tokens;  // termination probes (handled by caller)
  };

  /// Drain the transport inbox (any round), stage it exactly as `collect`
  /// does, hand termination tokens back to the executor and absorb the
  /// data and steal-result payloads in canonical order.
  AsyncArrivals async_collect(AckBoard* board);

  /// What one `async_step` call did.
  struct AsyncStepStats {
    std::size_t consumed = 0;      // frontier tuples evaluated
    std::size_t derived = 0;       // new local derivations
    std::size_t sent_tuples = 0;
    std::size_t sent_batches = 0;
    double compute_seconds = 0.0;
  };

  /// Evaluate up to `max_delta` frontier tuples (one bounded matching
  /// pass — not a fixpoint), insert the new derivations, and ship the
  /// routed ones.  Query-driven workers ignore `max_delta` and close fully.
  AsyncStepStats async_step(std::size_t max_delta);

  /// Frontier tuples not yet evaluated — the steal-target metric.
  [[nodiscard]] std::size_t backlog() const {
    return store_.size() - frontier_;
  }

  /// A contiguous frontier shard handed to a thief.
  struct StealShard {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  /// Victim side of a steal: advance the frontier over up to `max_tuples`
  /// pending tuples and return the surrendered range (empty when no
  /// backlog).  The thief now owns evaluating [lo, hi).
  StealShard grant_steal(std::size_t max_tuples);

  /// Thief side of a steal: evaluate the victim's frontier range [lo, hi)
  /// against the victim's store WITHOUT mutating it (single matching
  /// pass).  Safe to call concurrently with nothing else touching the
  /// victim; the threaded executor serializes via the victim's lock.
  [[nodiscard]] std::vector<reason::ForwardEngine::Derivation> evaluate_shard(
      std::size_t lo, std::size_t hi) const;

  /// Ship a steal's derivations: everything goes back to the victim as one
  /// kStealResult envelope (the victim absorbs them as foreign deltas and
  /// re-evaluates), plus ordinary kData envelopes to every destination the
  /// router names for the *victim's* partition.  Returns tuples shipped.
  std::size_t ship_steal_results(
      std::uint32_t victim_id,
      std::span<const reason::ForwardEngine::Derivation> derivations);

  /// Ship a termination probe to worker `to`.
  void send_token(std::uint32_t to, std::uint32_t epoch, bool black);

  /// Release acknowledged envelopes from the pending set and mark their
  /// outbox entries with the current checkpoint count (for pruning).
  /// Returns the number still unacknowledged.
  std::size_t release_acked(const AckBoard& board);

  /// Begin logging every shipped envelope to the outbox (async runs with
  /// checkpointing enabled); no-op otherwise.
  void enable_outbox() { log_outbox_ = true; }

  /// Resend every envelope still in the outbox log (crash recovery:
  /// receivers deduplicate by batch id, so over-sending is harmless).
  /// Returns the number of envelopes resent.
  std::size_t resend_outbox();

  /// Drop outbox entries acknowledged before the *previous* checkpoint —
  /// any receiver cut that old has already durably absorbed them.
  void prune_outbox();

  /// Only forward-strategy workers can serve as steal victims: the stolen
  /// shard is evaluated by ForwardEngine::match_delta against their store.
  [[nodiscard]] bool can_steal_from() const {
    return options_.strategy == reason::Strategy::kForward;
  }

  // -- Checkpointing --------------------------------------------------

  /// Serialize the worker's complete reasoning state (store log, frontier
  /// marks, per-round stats, per-rule firings, delivery dedup set) as of
  /// the end of `round`.  The stream is binary and versioned; a trailing
  /// digest detects torn or damaged checkpoints on load.
  void save_checkpoint(std::ostream& out, std::uint32_t round) const;

  /// Restore state from a checkpoint, replacing everything.  On success
  /// sets `*round` to the round the checkpoint was taken at and returns
  /// true; on failure returns false with `*error` describing why (the
  /// worker is left cleared, sender state included).  Never throws on a
  /// damaged stream: the digest is checked before anything is decoded, and
  /// every count is bounded by the bytes left.
  bool load_checkpoint(std::istream& in, std::uint32_t* round,
                       std::string* error = nullptr);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const rdf::TripleStore& store() const { return store_; }
  [[nodiscard]] std::size_t base_size() const { return base_size_; }

  /// Triples beyond the initial load: this processor's "result" for the
  /// OR metric.
  [[nodiscard]] std::size_t result_size() const {
    return store_.size() - base_size_;
  }

  /// Those triples: the store's log past the initial load.
  [[nodiscard]] std::span<const rdf::Triple> derived() const {
    return std::span<const rdf::Triple>(store_.triples()).subspan(base_size_);
  }

  /// Unique derivations credited per rule, accumulated across rounds
  /// (forward strategy only; empty under query-driven workers).
  [[nodiscard]] const std::vector<std::size_t>& rule_firings() const {
    return rule_firings_;
  }

  [[nodiscard]] const std::vector<RoundStats>& rounds() const {
    return rounds_;
  }
  /// Cluster fills in sync_seconds after each round.
  [[nodiscard]] std::vector<RoundStats>& mutable_rounds() { return rounds_; }

 private:
  [[nodiscard]] RoundStats& round_stats(std::uint32_t round);

  // -- The envelope path both drivers share ---------------------------

  /// Group `tuples` by the destinations the router names for partition
  /// `owner`; batches come back sorted by destination, tuples in input
  /// order.  Clique-predicate triples are left out: with `owner` == id the
  /// owed forest edges go first, to every peer, and a thief routing a
  /// victim's steal results leaves their edges to the victim.
  [[nodiscard]] std::vector<Outgoing> route(
      std::span<const rdf::Triple> tuples, std::uint32_t owner);

  /// Route the log past `route_mark_` as this worker's own derivations.
  [[nodiscard]] std::vector<Outgoing> route_fresh();

  /// Stamp sender, `round` (the id's round field), seq, attempt and
  /// checksum on `batch`, keep the pending copy (plus the outbox copy when
  /// logging), ship it and count it on `rs`.  Returns the tuples shipped.
  std::size_t ship(Batch batch, std::uint32_t round, RoundStats& rs);

  /// Validate, acknowledge and deduplicate `arrivals` into `stash_`,
  /// counting on `rs`.  Returns the number of envelopes staged.
  std::size_t stage(std::vector<Batch> arrivals, AckBoard* board,
                    RoundStats& rs);

  /// Absorb `stash_` in the canonical order and empty it.  Returns the
  /// number of genuinely new tuples.
  std::size_t absorb_stash(RoundStats& rs);

  /// Fold clique-predicate triple `t` (others are ignored) into its
  /// forest, queueing its component for close_cliques().  One of this
  /// worker's own triples (`own`) is owed to every peer when it changed the
  /// forest or has a literal subject (literal middle terms join through the
  /// generic rule, so every worker needs those edges).
  void fold(const rdf::Triple& t, bool own);

  /// Close every queued component into this partition's pairs, inserting
  /// the ones the store lacks (credited to p's transitive rule).  Returns
  /// how many were inserted.
  std::size_t close_cliques();

  /// Rebuild the forests from log[0, route_mark_) (checkpoint restore).
  void rebuild_forests();

  std::uint32_t id_;
  rules::RuleSet rule_base_;
  std::shared_ptr<const Router> router_;
  Transport* transport_;  // never null
  WorkerOptions options_;

  rdf::TripleStore store_;
  std::size_t base_size_ = 0;
  std::size_t frontier_ = 0;    // store index where the next closure starts
  std::size_t route_mark_ = 0;  // store index of the first unrouted triple
  std::vector<RoundStats> rounds_;
  std::vector<std::size_t> rule_firings_;

  // -- Clique predicates (the forest rule; see the class comment) ------
  /// The owner table and this worker's id; no table = the rule is off.
  reason::CliqueOwners owners_;
  /// The p-triples of log[0, route_mark_); no predicates when the rule is
  /// off.
  reason::CliqueForests cliques_;
  /// Forest edges of this worker's own, awaiting shipment to every peer
  /// (every partition of the transport).
  std::vector<rdf::Triple> owed_;

  std::vector<Batch> pending_;  // shipped, awaiting acknowledgement
  std::vector<Batch> stash_;    // validated arrivals awaiting absorption
  std::unordered_set<std::uint64_t> seen_batches_;  // redelivery dedup

  // -- Async state ----------------------------------------------------
  /// Monotonic per-sender sequence, packed into the batch-id round field
  /// (no shared round exists).  Bumped by a large gap on checkpoint load
  /// so post-recovery ids can never collide with pre-crash ones.
  std::uint32_t send_seq_ = 0;
  /// Outbox log for async checkpointing: every shipped data/steal
  /// envelope, retained until a checkpoint older than its ack proves every
  /// receiver cut has absorbed it.  `acked_ck` is the checkpoint count at
  /// which the ack was observed (-1 = not yet acked).
  struct OutboxEntry {
    Batch batch;
    std::int64_t acked_ck = -1;
  };
  std::vector<OutboxEntry> outbox_;
  std::int64_t ckpt_count_ = 0;  // checkpoints taken this run
  bool log_outbox_ = false;
};

/// Number of distinct triples across `logs` that `exclude` (when non-null)
/// does not contain.  Counted on `team`: member m owns the triples whose
/// top TripleHash bits select it, walks every log in order and keeps its
/// share in its own flat TripleSet, so members never share a set.  The
/// slot of a triple comes from the low hash bits, so the top-bit split
/// leaves each member's set evenly filled.
[[nodiscard]] std::size_t count_distinct(
    std::span<const std::span<const rdf::Triple>> logs,
    util::ThreadTeam& team, const rdf::TripleStore* exclude = nullptr);

/// The union_results of a run: distinct derivations across `workers`.
[[nodiscard]] std::size_t union_of_derived(
    std::span<const std::unique_ptr<Worker>> workers, util::ThreadTeam& team);

}  // namespace parowl::parallel
