#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "parowl/obs/options.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/parallel/worker.hpp"

namespace parowl::parallel {

/// How a cluster run is executed: Algorithm 3's round-synchronous loop or
/// the asynchronous variant of §VI-B, each with its per-worker steps run
/// either on the calling thread or with worker m on thread-team member m.
enum class ExecutionMode {
  /// Rounds, with the workers stepped one at a time on the calling thread.
  /// Per-worker compute time is measured without interference and the
  /// parallel makespan is *modelled* as the sum over rounds of the slowest
  /// worker plus communication: the paper's reported quantities (speedup,
  /// per-round overhead shares) are functions of per-partition work and
  /// traffic, not of physical concurrency.
  kSequentialSimulated,

  /// Rounds, with worker m stepped by thread-team member m in every phase
  /// (real concurrency).  Store logs, firings and round counts are
  /// bit-identical to kSequentialSimulated.
  kThreaded,

  /// Asynchronous execution over the real Transport/ack machinery, driven
  /// deterministically on the calling thread with per-worker virtual
  /// clocks: workers drain arrivals as they come, evaluate bounded frontier
  /// chunks, steal frontier shards from the most-backlogged peer when
  /// idle, and terminate via a Dijkstra-style token ring — no round
  /// barrier.  The closure SET is bit-identical to the synchronous modes
  /// (monotone closure: the fixpoint is interleaving-independent).
  kAsync,

  /// Same protocol with worker m polled by thread-team member m
  /// (mutex-guarded worker state, lock-free backlog hints) — the mode TSan
  /// exercises, since stealing introduces genuine cross-worker sharing.
  kAsyncThreaded,
};

/// Communication-cost model used to convert measured traffic into the
/// simulated makespan (a tuple is charged as 64 serialized bytes).  A file
/// transport ignores it: the measured read/write/parse time *is* the
/// communication cost there, as in the paper's shared-filesystem
/// implementation.
struct NetworkModel {
  double latency_seconds = 100e-6;          // per message
  double bandwidth_bytes_per_sec = 125e6;   // ~1 Gbit/s
};

/// Crash injection for recovery tests (kSequentialSimulated and kAsync
/// only): when `crash_at_round` >= 0, worker `crash_worker` dies — throws
/// SimulatedCrash — as round `crash_at_round` reaches its compute phase
/// (kAsync: at its `crash_at_round`-th activation once an epoch cut has
/// checkpointed every worker).  `run()` then restores the whole cluster from the last complete
/// checkpoint set (the single-process equivalent of restarting the killed
/// node: at a round boundary the survivors' checkpoints equal their live
/// state) and resumes.
struct FaultToleranceOptions {
  std::int64_t crash_at_round = -1;
  std::uint32_t crash_worker = 0;
};

/// Knobs of the asynchronous executors (kAsync / kAsyncThreaded).
struct AsyncOptions {
  /// Steal frontier shards from the most-backlogged peer when idle.
  bool steal = true;
  /// Max frontier tuples surrendered per steal grant.
  std::size_t steal_batch = 256;
  /// Max frontier tuples one async_step evaluates (the activation grain —
  /// smaller chunks interleave communication more aggressively).
  std::size_t chunk = 256;
};

/// What the asynchronous executors did, beyond the round-mode accounting.
struct AsyncStats {
  std::uint64_t activations = 0;     // bounded evaluation steps executed
  std::uint64_t steals = 0;          // successful steal grants
  std::uint64_t stolen_tuples = 0;   // frontier tuples stolen
  std::uint64_t steal_derivations = 0;  // tuples shipped back by thieves
  std::uint64_t token_epochs = 0;    // termination probes launched
  std::uint64_t token_passes = 0;    // token hops observed
  double idle_seconds = 0.0;         // summed per-worker idle time
  std::vector<double> idle_seconds_per_worker;
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const AsyncStats& s);

struct ClusterOptions {
  ExecutionMode mode = ExecutionMode::kSequentialSimulated;
  NetworkModel network;
  std::size_t max_rounds = 10000;

  /// Checkpoint directory ("" = checkpointing disabled).  Every worker
  /// checkpoints after every round, once delivery and aggregation are done:
  /// nothing is in flight then, so one round's per-worker files together
  /// are a consistent cut of the whole cluster.  All rounds are kept.
  std::string checkpoint_dir;
  FaultToleranceOptions fault_tolerance;
  AsyncOptions async;

  /// Observability sinks/sampling (docs/architecture.md "Observability").
  obs::ObsOptions obs;
};

/// Thrown by the injected crash (caught internally by `run()` when
/// recovery is possible) and by recovery itself when no usable checkpoint
/// exists.
class SimulatedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a round cannot be fully delivered within the bounded retry
/// loop (10 sub-iterations, cluster.cpp), when a run needs more
/// than ClusterOptions::max_rounds rounds (or termination-token epochs),
/// and when an asynchronous run stalls.
class DeliveryFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-round maxima across workers (the series Fig. 2 plots).  An async
/// run, which has no rounds, has one entry for the whole run.
struct RoundBreakdown {
  double reason_max = 0.0;
  double io_max = 0.0;
  double sync_max = 0.0;
  double aggregate_max = 0.0;
  std::size_t tuples_exchanged = 0;  // sent, summed over workers
  /// Arrived at receivers (wire volume, redeliveries included), and how
  /// many of those were new there: the gap is redundant traffic.
  std::size_t received_tuples = 0;
  std::size_t received_new = 0;
};

/// Fault-tolerance accounting for one run: what was injected, what the
/// protocol did about it, and whether recovery happened.
struct RunReport {
  std::uint64_t batches_sent = 0;       // first transmissions
  std::uint64_t retransmissions = 0;    // batches resent after missing acks
  std::uint64_t redeliveries = 0;       // duplicates discarded by batch id
  std::uint64_t checksum_failures = 0;  // corrupt envelopes detected
  std::uint64_t checkpoints_written = 0;  // files on disk, not attempts
  double backoff_seconds = 0.0;         // virtual retry backoff charged
  bool recovered = false;               // a crash was recovered from
  std::int64_t recovered_from_round = -1;
  FaultLog injected;                    // from the FaultyTransport, if any
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const RunReport& r);

/// Outcome of a cluster run.
struct ClusterResult {
  std::size_t rounds = 0;
  double wall_seconds = 0.0;       // actual harness wall time
  double simulated_seconds = 0.0;  // modeled parallel makespan
  std::vector<RoundBreakdown> breakdown;

  /// Result tuples (beyond initial load) per partition, and the size of
  /// their union — the inputs to the OR metric.
  std::vector<std::size_t> results_per_partition;
  std::size_t union_results = 0;

  /// Sum across rounds of each component's per-round maximum.
  double reason_seconds = 0.0;
  double io_seconds = 0.0;
  double sync_seconds = 0.0;
  double aggregate_seconds = 0.0;

  /// Total reasoning time per worker (all rounds) — the measured-cost
  /// input to predictive rebalancing (partition/rebalance.hpp).
  std::vector<double> reason_seconds_per_worker;

  RunReport report;

  /// Filled by the asynchronous executors (zeroed elsewhere).
  AsyncStats async_stats;
};

/// The parallel reasoner of Algorithm 3: a set of workers, a transport, and
/// two drivers.  The round driver terminates on quiescence (a round in
/// which no worker ships any tuple ends the run — nothing is in transit);
/// the async driver (kAsync / kAsyncThreaded) polls workers without a
/// barrier and detects termination with a token ring.
///
/// Delivery within each round is an ack/retry loop: workers collect and
/// acknowledge validated envelopes, senders retransmit whatever the shared
/// AckBoard is still missing, bounded by a fixed retry count with (virtual)
/// exponential backoff.  Because receivers deduplicate by batch id and
/// aggregate in canonical order, the closure — store logs, per-rule
/// firings, round stats — is bit-identical whether or not faults occurred.
class Cluster {
 public:
  Cluster(Transport& transport, ClusterOptions options);

  /// Add a worker; returns its id (= insertion order).
  std::uint32_t add_worker(rules::RuleSet rule_base,
                           std::shared_ptr<const Router> router,
                           WorkerOptions worker_options);

  /// Load partition data into worker `id`.
  void load(std::uint32_t id, std::span<const rdf::Triple> base);

  /// Run to global quiescence; computes stats and the simulated makespan.
  /// Recovers internally from an injected crash when checkpoints allow.
  /// The threaded modes step worker m on member m of `team`, and the
  /// post-run union count runs on it too.  `team` must belong to the
  /// calling thread and have one member per worker; when it is null (or
  /// sized otherwise) the run makes such a team itself.
  ClusterResult run(util::ThreadTeam* team = nullptr);

  /// Restore every worker from the newest round whose complete per-worker
  /// checkpoint set loads cleanly (torn or damaged files disqualify their
  /// round); a subsequent `run()` resumes at the following round.  Returns
  /// the restored round; throws SimulatedCrash when no usable round
  /// exists.  Requires checkpoint_dir to be set and workers added.
  std::int64_t restore_from_checkpoints();

  [[nodiscard]] const Worker& worker(std::uint32_t id) const {
    return *workers_[id];
  }
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

 private:
  struct AsyncState;

  /// The drivers.  With `team` null every per-worker step runs on the
  /// calling thread in worker order; otherwise worker m runs on member m.
  ClusterResult run_rounds(util::ThreadTeam* team);
  ClusterResult run_async(util::ThreadTeam* team);
  /// Call `step` on every worker, inline or one worker per team member.
  void each_worker(util::ThreadTeam* team,
                   const std::function<void(Worker&)>& step);
  /// Bounded ack/retry delivery of one round, then aggregation.
  void deliver_round(std::uint32_t round, util::ThreadTeam* team);
  /// One asynchronous scheduling step of worker `w`: drain arrivals,
  /// evaluate a chunk or steal, retransmit when idle, pass the token.
  void poll(std::uint32_t w, AsyncState& state);
  /// Write `worker`'s checkpoint for `round`; false (and a warning) when
  /// the file could not be written.
  bool checkpoint_worker(Worker& worker, std::uint32_t round);
  void finalize(ClusterResult& result);
  void finalize_async(ClusterResult& result, const AsyncStats& stats);
  /// Fill result.report and publish it with the run's headline gauges.
  void publish_report(ClusterResult& result);

  Transport& transport_;
  ClusterOptions options_;
  /// Charge measured transport time instead of the network model: true
  /// for file transports (see NetworkModel).
  const bool measured_io_;
  std::vector<std::unique_ptr<Worker>> workers_;
  AckBoard ack_board_;

  std::uint32_t start_round_ = 0;   // set by restore_from_checkpoints
  bool crash_armed_ = false;
  bool recovered_ = false;
  std::int64_t recovered_from_round_ = -1;
  std::uint64_t checkpoints_written_ = 0;
  /// Some epoch cut of the async driver wrote every worker's file.
  bool complete_cut_ = false;
  double backoff_seconds_ = 0.0;
};

}  // namespace parowl::parallel
