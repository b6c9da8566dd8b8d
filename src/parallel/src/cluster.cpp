#include "parowl/parallel/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "parowl/obs/obs.hpp"
#include "parowl/util/log.hpp"
#include "parowl/util/thread_team.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::parallel {

namespace fs = std::filesystem;

namespace {

fs::path checkpoint_path(const std::string& dir, std::uint32_t worker,
                         std::uint32_t round) {
  return fs::path(dir) / ("w" + std::to_string(worker) + "_r" +
                          std::to_string(round) + ".ckpt");
}

/// Epoch gap applied after a crash recovery so post-restore termination
/// probes can never be confused with pre-crash ones still in flight.
/// Mirrors the send-sequence gap the worker applies on checkpoint load.
constexpr std::uint32_t kRecoveryEpochGap = 1u << 20;

/// Safety valve: consecutive full scheduler cycles in which *nothing*
/// happened anywhere (no arrival, no evaluation, no steal, no token hop,
/// no ack released) before the async executor declares a livelock.  The
/// threaded executor counts a worker's idle polls the same way, but resets
/// the count whenever any worker progressed or is inside a step, and also
/// requires kAsyncStallSeconds of that standstill: a stall is the whole
/// cluster standing still, not one worker waiting on a peer's long
/// evaluation or absorb.
constexpr std::uint32_t kAsyncStallLimit = 10000;
constexpr double kAsyncStallSeconds = 2.0;

/// Counts the workers inside an evaluation for as long as it lives.
class StepGuard {
 public:
  explicit StepGuard(std::atomic<std::uint32_t>& busy) : busy_(busy) {
    busy_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~StepGuard() { busy_.fetch_sub(1, std::memory_order_acq_rel); }
  StepGuard(const StepGuard&) = delete;
  StepGuard& operator=(const StepGuard&) = delete;

 private:
  std::atomic<std::uint32_t>& busy_;
};

}  // namespace

Cluster::Cluster(Transport& transport, ClusterOptions options)
    : transport_(transport), options_(std::move(options)) {
  obs::configure(options_.obs);
  if (transport_.name().find("file") != std::string::npos) {
    // File IPC: the measured read/write/parse time *is* the communication
    // cost, as in the paper's shared-filesystem implementation.
    options_.network.use_measured_io = true;
  }
  if (!options_.checkpoint.dir.empty()) {
    fs::create_directories(options_.checkpoint.dir);
  }
}

std::uint32_t Cluster::add_worker(rules::RuleSet rule_base,
                                  std::shared_ptr<const Router> router,
                                  WorkerOptions worker_options) {
  const auto id = static_cast<std::uint32_t>(workers_.size());
  workers_.push_back(std::make_unique<Worker>(
      id, std::move(rule_base), std::move(router), &transport_,
      worker_options));
  return id;
}

void Cluster::load(std::uint32_t id, std::span<const rdf::Triple> base) {
  workers_[id]->load(base);
}

bool Cluster::checkpoint_due(std::uint32_t round) const {
  return !options_.checkpoint.dir.empty() &&
         round % std::max<std::uint32_t>(1, options_.checkpoint.interval) == 0;
}

void Cluster::checkpoint_worker(Worker& worker, std::uint32_t round) {
  obs::Span span("parallel.checkpoint",
                 {{"round", round}, {"worker", worker.id()}},
                 100 + worker.id());
  const std::string& dir = options_.checkpoint.dir;
  const fs::path final_path = checkpoint_path(dir, worker.id(), round);
  const fs::path tmp_path = final_path.string() + ".tmp";
  try {
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      worker.save_checkpoint(out, round);
      if (!out) {
        throw std::runtime_error("write failed");
      }
    }
    fs::rename(tmp_path, final_path);  // atomic: never a torn final file
  } catch (const std::exception& e) {
    util::log_warn("checkpoint for worker ", worker.id(), " round ", round,
                   " failed: ", e.what());
    std::error_code ec;
    fs::remove(tmp_path, ec);
    return;
  }

  const std::uint32_t retain = options_.checkpoint.retain;
  if (retain > 0) {
    const std::uint64_t horizon =
        static_cast<std::uint64_t>(retain) *
        std::max<std::uint32_t>(1, options_.checkpoint.interval);
    if (round >= horizon) {
      std::error_code ec;
      fs::remove(checkpoint_path(dir, worker.id(),
                                 static_cast<std::uint32_t>(round - horizon)),
                 ec);
    }
  }
}

std::int64_t Cluster::restore_from_checkpoints() {
  const std::string& dir = options_.checkpoint.dir;
  if (dir.empty() || workers_.empty()) {
    throw SimulatedCrash("no checkpoint directory configured");
  }

  // Candidate rounds: any round worker 0 has a file for, newest first.
  std::vector<std::uint32_t> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("w0_r", 0) != 0 || !name.ends_with(".ckpt")) {
      continue;
    }
    try {
      candidates.push_back(static_cast<std::uint32_t>(
          std::stoul(name.substr(4, name.size() - 4 - 5))));
    } catch (const std::exception&) {
      continue;
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());

  for (const std::uint32_t round : candidates) {
    bool all_ok = true;
    for (auto& worker : workers_) {
      std::ifstream in(checkpoint_path(dir, worker->id(), round),
                       std::ios::binary);
      std::uint32_t loaded_round = 0;
      std::string error;
      if (!in || !worker->load_checkpoint(in, &loaded_round, &error) ||
          loaded_round != round) {
        util::log_warn("checkpoint round ", round, " unusable (worker ",
                       worker->id(), "): ",
                       error.empty() ? "missing file" : error,
                       " — trying an older round");
        all_ok = false;
        break;
      }
    }
    if (all_ok) {
      start_round_ = round + 1;
      return round;
    }
  }
  throw SimulatedCrash("no complete checkpoint round available");
}

ClusterResult Cluster::run(util::ThreadTeam* team) {
  assert(options_.mode != ExecutionMode::kAsyncSimulated &&
         "async mode is handled by AsyncSimulator, not Cluster");
  if (obs::Tracer::global().enabled()) {
    // Per-worker virtual tracks (100 + id, matching worker.cpp) so the
    // trace has one row per worker even in sequential-simulated mode.
    for (const auto& worker : workers_) {
      obs::Tracer::global().name_track(
          100 + worker->id(), "worker " + std::to_string(worker->id()));
    }
  }
  crash_armed_ = options_.fault_tolerance.crash_at_round >= 0 &&
                 (options_.mode == ExecutionMode::kSequentialSimulated ||
                  options_.mode == ExecutionMode::kAsync);
  std::optional<util::ThreadTeam> own;
  if (team == nullptr || team->size() != workers_.size()) {
    team = &own.emplace(static_cast<unsigned>(workers_.size()));
  }
  const auto dispatch = [this, team]() {
    switch (options_.mode) {
      case ExecutionMode::kAsync:
        return run_async();
      case ExecutionMode::kAsyncThreaded:
        return run_async_threaded(*team);
      case ExecutionMode::kThreaded:
        return run_threaded(*team);
      default:
        return run_sequential();
    }
  };
  ClusterResult result;
  try {
    result = dispatch();
  } catch (const SimulatedCrash&) {
    // The killed worker restarts from its last checkpoint; restoring every
    // worker to the same consistent cut is equivalent, since at a round
    // boundary (or termination-token epoch, in async mode) the survivors'
    // checkpoints plus the resent outboxes reconstruct the cluster state.
    const std::int64_t round = restore_from_checkpoints();
    recovered_ = true;
    recovered_from_round_ = round;
    util::log_warn("recovered from crash: resuming at round ", round + 1);
    result = dispatch();
  }
  // The result-tuple union for the OR metric.
  result.union_results = union_of_derived(workers_, *team);
  return result;
}

void Cluster::deliver_round_sequential(std::uint32_t round) {
  PAROWL_SPAN("parallel.deliver", {{"round", round}});
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  ack_board_.clear();

  for (auto& worker : workers_) {
    worker->collect(round, &ack_board_);
  }
  double backoff = ft.backoff_base_seconds;
  for (std::uint32_t retry = 0;; ++retry) {
    std::size_t resent = 0;
    for (auto& worker : workers_) {
      resent += worker->retransmit_unacked(round, ack_board_);
    }
    if (resent == 0) {
      break;  // every envelope of the round is acknowledged
    }
    if (retry >= ft.max_retries) {
      std::ostringstream msg;
      msg << "round " << round << ": " << resent
          << " batches undelivered after " << ft.max_retries << " retries";
      throw DeliveryFailure(msg.str());
    }
    backoff_seconds_ += backoff;  // virtual: charged, not slept
    backoff *= ft.backoff_multiplier;
    for (auto& worker : workers_) {
      worker->collect(round, &ack_board_);
    }
  }
  for (auto& worker : workers_) {
    worker->aggregate_round(round);
  }
}

ClusterResult Cluster::run_sequential() {
  util::Stopwatch wall;
  ClusterResult result;
  const FaultToleranceOptions& ft = options_.fault_tolerance;

  for (std::uint32_t round = start_round_; round < options_.max_rounds;
       ++round) {
    std::size_t total_sent = 0;
    for (auto& worker : workers_) {
      if (crash_armed_ &&
          static_cast<std::int64_t>(round) == ft.crash_at_round &&
          worker->id() == ft.crash_worker) {
        crash_armed_ = false;  // the restarted worker does not die again
        throw SimulatedCrash("worker " + std::to_string(worker->id()) +
                             " killed at round " + std::to_string(round));
      }
      total_sent += worker->compute_and_send(round);
    }
    result.rounds = round + 1;
    if (total_sent == 0) {
      break;  // quiescent: nothing in transit anywhere
    }
    deliver_round_sequential(round);
    if (checkpoint_due(round)) {
      for (auto& worker : workers_) {
        checkpoint_worker(*worker, round);
        ++checkpoints_written_;
      }
    }
  }

  result.wall_seconds = wall.elapsed_seconds();
  finalize(result);
  return result;
}

ClusterResult Cluster::run_threaded(util::ThreadTeam& team) {
  util::Stopwatch wall;
  ClusterResult result;
  const FaultToleranceOptions& ft = options_.fault_tolerance;

  const auto n = static_cast<std::ptrdiff_t>(workers_.size());
  std::atomic<std::size_t> round_sent{0};
  std::atomic<std::size_t> resent_total{0};
  std::atomic<bool> done{false};
  std::atomic<bool> delivery_done{false};
  std::atomic<bool> delivery_failed{false};
  std::atomic<std::uint32_t> rounds_executed{start_round_};
  std::atomic<std::uint32_t> delivery_retries{0};

  // Completion step of the post-compute barrier: decide termination for
  // the round everyone just finished, and reset the delivery loop.
  auto on_compute_done = [&]() noexcept {
    rounds_executed.fetch_add(1);
    if (round_sent.exchange(0) == 0) {
      done.store(true);
    }
    ack_board_.clear();
    delivery_retries.store(0);
    delivery_done.store(false);
  };
  // Completion step after each retransmission sweep: the round's delivery
  // is complete when nobody had anything left to resend.
  auto on_resend_done = [&]() noexcept {
    if (resent_total.exchange(0) == 0) {
      delivery_done.store(true);
      return;
    }
    const std::uint32_t retry = delivery_retries.fetch_add(1);
    if (retry >= ft.max_retries) {
      delivery_failed.store(true);
    } else {
      backoff_seconds_ += ft.backoff_base_seconds *
                          std::pow(ft.backoff_multiplier, retry);
    }
  };
  std::barrier compute_barrier(n, on_compute_done);
  std::barrier collect_barrier(n);
  std::barrier resend_barrier(n, on_resend_done);
  std::barrier receive_barrier(n);
  std::atomic<std::uint64_t> ckpts{0};

  // Worker m runs as team member m.
  team.run([&](unsigned m) noexcept {
    if (m >= workers_.size()) {
      return;  // a cluster without workers still gets a team of one
    }
    Worker* worker = workers_[m].get();
    for (std::uint32_t round = start_round_; round < options_.max_rounds;
         ++round) {
      const std::size_t sent = worker->compute_and_send(round);
      round_sent.fetch_add(sent);

      util::Stopwatch sync_watch;
      compute_barrier.arrive_and_wait();
      worker->mutable_rounds()[round].sync_seconds +=
          sync_watch.elapsed_seconds();

      if (done.load()) {
        return;
      }

      // Ack/retry delivery loop, in lockstep across threads: collect &
      // ack, barrier, retransmit what the board is missing, barrier —
      // until a sweep resends nothing.
      worker->collect(round, &ack_board_);
      while (true) {
        collect_barrier.arrive_and_wait();
        resent_total.fetch_add(
            worker->retransmit_unacked(round, ack_board_));
        resend_barrier.arrive_and_wait();
        if (delivery_done.load() || delivery_failed.load()) {
          break;
        }
        worker->collect(round, &ack_board_);
      }
      if (delivery_failed.load()) {
        return;
      }
      worker->aggregate_round(round);
      if (checkpoint_due(round)) {
        checkpoint_worker(*worker, round);
        ckpts.fetch_add(1);
      }
      receive_barrier.arrive_and_wait();
    }
  });

  checkpoints_written_ += ckpts.load();
  if (delivery_failed.load()) {
    throw DeliveryFailure("round delivery exceeded max_retries");
  }

  result.rounds = rounds_executed.load();
  result.wall_seconds = wall.elapsed_seconds();
  finalize(result);
  return result;
}

// -- Asynchronous executors -------------------------------------------
//
// Both async modes drop the round barrier: each worker drains arrivals as
// they come (async_collect), evaluates bounded frontier chunks
// (async_step), and — when idle — steals a frontier shard from the most-
// backlogged peer, evaluating it against the victim's store and shipping
// the derivations back (kStealResult) plus routed copies.  Global
// quiescence is detected with a Dijkstra-style dirty-flag token ring over
// the same ack'd envelopes: worker 0 launches strictly sequential probes;
// a worker forwards the token only when passive (no backlog) with every
// sent envelope acknowledged, blackening it if the worker did anything
// since its previous forward.  A white token returning to a clean, passive,
// fully-acked initiator proves global quiescence: any in-flight message
// would have kept its sender's pending set non-empty (blocking the
// sender's forward), and any absorb after a worker's forward dirties a
// worker that must still forward — blackening this or a later token.
//
// The closure is a monotone fixpoint, so the final per-worker tuple SETS
// are identical to the synchronous modes' for every interleaving, fault
// schedule, and steal decision — the equivalence sweep asserts exactly
// this.

ClusterResult Cluster::run_async() {
  util::Stopwatch wall;
  ClusterResult result;
  AsyncStats stats;
  const AsyncOptions& ao = options_.async;
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  const NetworkModel& net = options_.network;
  const std::size_t n = workers_.size();
  const bool checkpointing = !options_.checkpoint.dir.empty();

  // Per-worker scheduler state (the sequential flavour keeps it all on one
  // thread; virtual clocks model the parallel makespan on this host).
  struct Ctl {
    bool dirty = true;  // activity since the last token forward
    bool has_token = false;
    std::uint32_t token_epoch = 0;
    bool token_black = false;
    std::uint32_t idle_polls = 0;
    double vclock = 0.0;  // busy seconds: compute + modeled/measured comm
    std::uint64_t activations = 0;
  };
  std::vector<Ctl> ctl(n);

  // Probe epochs restart above any pre-crash epoch after a recovery, just
  // as worker send sequences do.
  std::uint32_t epoch = start_round_ > 0
                            ? start_round_ + kRecoveryEpochGap
                            : 0;
  bool probe_outstanding = false;
  std::uint32_t probe_launch_epoch = 0;
  bool initiator_dirty_since_launch = false;
  bool terminated = n == 0;

  if (checkpointing) {
    for (auto& worker : workers_) {
      worker->enable_outbox();
    }
  }
  if (start_round_ > 0) {
    // Crash recovery: the board's pre-crash acks are stale (a fresh drop
    // of a resent envelope must trigger retransmission, not be masked by
    // an old ack), and every retained outbox envelope is resent — the
    // receivers deduplicate what they already absorbed.
    ack_board_.clear();
    for (auto& worker : workers_) {
      worker->resend_outbox(nullptr);
    }
  }

  const double bw = std::max(1.0, net.bandwidth_bytes_per_sec);
  const auto comm_cost = [&](std::size_t batches, std::size_t tuples) {
    return net.latency_seconds * static_cast<double>(batches) +
           net.bytes_per_tuple * static_cast<double>(tuples) / bw;
  };

  std::uint32_t stalled_cycles = 0;
  while (!terminated) {
    bool any_progress = false;
    for (std::uint32_t w = 0; w < n && !terminated; ++w) {
      Worker& worker = *workers_[w];
      Ctl& c = ctl[w];

      // Injected crash: the async analogue of crash_at_round is "the Nth
      // evaluation activation of crash_worker" — deferred until the first
      // epoch checkpoint exists, so recovery is always possible (the test
      // knob is for exercising recovery, not unrecoverable loss).
      if (crash_armed_ && w == ft.crash_worker &&
          checkpoints_written_ > 0 &&
          static_cast<std::int64_t>(c.activations) >= ft.crash_at_round) {
        crash_armed_ = false;
        throw SimulatedCrash("worker " + std::to_string(w) +
                             " killed at activation " +
                             std::to_string(c.activations));
      }

      // Drain arrivals (data + steal results absorbed, tokens handed up).
      const auto arrivals = worker.async_collect(&ack_board_);
      if (arrivals.fresh > 0 || arrivals.batches > 0) {
        c.dirty = true;
        if (w == 0 && probe_outstanding) {
          initiator_dirty_since_launch = true;
        }
        any_progress = true;
      }
      for (const Batch& token : arrivals.tokens) {
        if (token.token_epoch < epoch) {
          continue;  // stale pre-recovery probe
        }
        c.has_token = true;
        c.token_epoch = token.token_epoch;
        c.token_black = c.token_black || token.token_black;
        stats.token_passes += 1;
        any_progress = true;
      }

      // Evaluate one frontier chunk, or steal from the most backlogged
      // peer when this worker has nothing of its own.
      bool active = false;
      if (worker.backlog() > 0) {
        const auto step = worker.async_step(ao.chunk, nullptr);
        c.vclock += step.compute_seconds +
                    comm_cost(step.sent_batches, step.sent_tuples);
        c.activations += 1;
        stats.activations += 1;
        c.dirty = true;
        if (w == 0 && probe_outstanding) {
          initiator_dirty_since_launch = true;
        }
        active = step.consumed > 0;
      } else if (ao.steal) {
        std::uint32_t victim = w;
        std::size_t best = 0;
        for (std::uint32_t v = 0; v < n; ++v) {
          if (v != w && workers_[v]->can_steal_from() &&
              workers_[v]->backlog() > best) {
            best = workers_[v]->backlog();
            victim = v;
          }
        }
        // Only steal genuine backlog beyond one chunk: the owner is about
        // to evaluate its next chunk anyway.
        if (victim != w && best > ao.chunk) {
          obs::Span steal_span("parallel.steal",
                               {{"worker", w}, {"victim", victim}},
                               100 + w);
          Worker& vic = *workers_[victim];
          const auto shard = vic.grant_steal(ao.steal_batch);
          util::Stopwatch steal_watch;
          const auto derivations =
              vic.evaluate_shard(shard.lo, shard.hi);
          const std::size_t shipped =
              worker.ship_steal_results(victim, derivations, nullptr);
          c.vclock += steal_watch.elapsed_seconds() +
                      comm_cost(shipped > 0 ? 2 : 0, shipped);
          c.activations += 1;
          stats.activations += 1;
          stats.steals += 1;
          stats.stolen_tuples += shard.hi - shard.lo;
          stats.steal_derivations += shipped;
          steal_span.arg({"tuples", shard.hi - shard.lo});
          steal_span.arg({"derived", derivations.size()});
          c.dirty = true;
          ctl[victim].dirty = true;  // its frontier advanced
          if (probe_outstanding && (w == 0 || victim == 0)) {
            initiator_dirty_since_launch = true;
          }
          active = true;
        }
      }
      if (active) {
        c.idle_polls = 0;
        any_progress = true;
      } else {
        PAROWL_SPAN("parallel.idle", {{"worker", w}}, 100 + w);
        c.idle_polls += 1;
        if (c.idle_polls % std::max<std::uint32_t>(1, ao.retransmit_after) ==
            0) {
          const std::size_t unacked = worker.release_acked(ack_board_);
          if (unacked > 0 &&
              worker.retransmit_unacked_async(ack_board_) > 0) {
            backoff_seconds_ += ft.backoff_base_seconds;
            any_progress = true;
          }
        }
      }

      const std::size_t still_pending = worker.release_acked(ack_board_);
      const bool passive = worker.backlog() == 0 && still_pending == 0;

      // Token ring.  The initiator launches strictly sequential probes;
      // everyone else forwards when passive, blackening if dirty.
      if (w == 0) {
        if (!probe_outstanding && passive && n > 1) {
          probe_launch_epoch = ++epoch;
          probe_outstanding = true;
          initiator_dirty_since_launch = false;
          c.dirty = false;
          worker.send_token(1, probe_launch_epoch, false, nullptr);
          stats.token_epochs += 1;
          any_progress = true;
        } else if (c.has_token && c.token_epoch == probe_launch_epoch) {
          // The probe came home.
          const bool white = !c.token_black;
          c.has_token = false;
          c.token_black = false;
          probe_outstanding = false;
          if (checkpointing &&
              (ao.checkpoint_epochs == 0 ||
               probe_launch_epoch %
                       std::max<std::uint32_t>(1, ao.checkpoint_epochs) ==
                   0)) {
            // Epoch cut: every worker checkpoints with the token epoch as
            // the round header.  In-flight envelopes are covered by the
            // retained outbox logs each checkpoint embeds.
            for (auto& wk : workers_) {
              wk->release_acked(ack_board_);
              checkpoint_worker(*wk, probe_launch_epoch);
              wk->prune_outbox();
              ++checkpoints_written_;
            }
          }
          if (white && !initiator_dirty_since_launch && passive) {
            terminated = true;
          }
          any_progress = true;
        } else if (n == 1) {
          terminated = passive;
        }
      } else if (c.has_token && passive) {
        const bool black = c.token_black || c.dirty;
        c.dirty = false;
        c.has_token = false;
        c.token_black = false;
        worker.send_token((w + 1) % static_cast<std::uint32_t>(n),
                          c.token_epoch, black, nullptr);
        stats.token_passes += 1;
        any_progress = true;
      }
    }

    if (stats.token_epochs > options_.max_rounds) {
      throw DeliveryFailure("async run exceeded max_rounds token epochs");
    }
    stalled_cycles = any_progress ? 0 : stalled_cycles + 1;
    if (stalled_cycles > kAsyncStallLimit) {
      throw DeliveryFailure(
          "async executor stalled: no progress over " +
          std::to_string(kAsyncStallLimit) + " scheduler cycles");
    }
  }

  // Makespan and idle accounting: on this single-core host the virtual
  // clocks are the honest stand-in — a worker's idle time is the gap to
  // the busiest worker, exactly the quantity the round-synchronous mode
  // reports as sync_seconds.
  double makespan = 0.0;
  for (const Ctl& c : ctl) {
    makespan = std::max(makespan, c.vclock);
  }
  stats.idle_seconds_per_worker.reserve(n);
  for (const Ctl& c : ctl) {
    const double idle = makespan - c.vclock;
    stats.idle_seconds_per_worker.push_back(idle);
    stats.idle_seconds += idle;
  }
  result.simulated_seconds = makespan + backoff_seconds_;
  result.rounds = stats.token_epochs;
  result.wall_seconds = wall.elapsed_seconds();
  finalize_async(result, stats);
  return result;
}

ClusterResult Cluster::run_async_threaded(util::ThreadTeam& team) {
  util::Stopwatch wall;
  ClusterResult result;
  AsyncStats stats;
  const AsyncOptions& ao = options_.async;
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  const std::size_t n = workers_.size();

  // Per-worker control: the worker's own mutex guards all Worker state
  // (store, frontier, pending, outbox); the atomics are cheap cross-thread
  // hints and the termination protocol state.
  struct Ctl {
    std::mutex m;
    std::atomic<bool> dirty{true};
    std::atomic<std::size_t> backlog_hint{0};
    // Token state, only touched by the owner's thread.
    bool has_token = false;
    std::uint32_t token_epoch = 0;
    bool token_black = false;
    std::uint32_t idle_polls = 0;
    double idle_seconds = 0.0;
    std::uint64_t activations = 0;
  };
  std::vector<std::unique_ptr<Ctl>> ctl;
  ctl.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctl.push_back(std::make_unique<Ctl>());
  }

  std::uint32_t epoch_base =
      start_round_ > 0 ? start_round_ + kRecoveryEpochGap : 0;
  std::atomic<bool> terminated{n == 0};
  // The two failure causes: the cluster stood still (see
  // kAsyncStallLimit), or termination probes exceeded max_rounds.
  std::atomic<bool> stalled{false};
  std::atomic<bool> over_budget{false};
  // Cluster-wide progress: bumped by every worker cycle that progressed,
  // plus the number of workers inside an evaluation right now.
  std::atomic<std::uint64_t> progress_ticks{0};
  std::atomic<std::uint32_t> in_step{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> stolen_tuples{0};
  std::atomic<std::uint64_t> steal_derivations{0};
  std::atomic<std::uint64_t> activations{0};
  std::atomic<std::uint64_t> token_epochs{0};
  std::atomic<std::uint64_t> token_passes{0};

  if (start_round_ > 0) {
    ack_board_.clear();
    for (auto& worker : workers_) {
      worker->resend_outbox(nullptr);
    }
  }

  // Worker w runs as team member w.
  team.run([&](unsigned w) noexcept {
    if (w >= n) {
      return;  // a cluster without workers still gets a team of one
    }
    Worker& worker = *workers_[w];
    Ctl& c = *ctl[w];
    bool probe_outstanding = false;
    std::uint32_t probe_launch_epoch = epoch_base;
    bool initiator_dirty_since_launch = false;
    std::uint32_t my_stall = 0;
    std::uint64_t seen_ticks = 0;
    util::Stopwatch standstill;  // since the cluster last progressed

    while (!terminated.load(std::memory_order_acquire) &&
           !stalled.load(std::memory_order_acquire) &&
           !over_budget.load(std::memory_order_acquire)) {
      bool progress = false;
      bool passive = false;
      std::vector<Batch> tokens;

      {
        const std::scoped_lock lock(c.m);
        auto arrivals = worker.async_collect(&ack_board_);
        tokens = std::move(arrivals.tokens);
        if (arrivals.fresh > 0 || arrivals.batches > 0) {
          c.dirty.store(true, std::memory_order_release);
          if (w == 0) {
            initiator_dirty_since_launch = true;
          }
          progress = true;
        }
        if (worker.backlog() > 0) {
          const StepGuard busy(in_step);
          const auto step = worker.async_step(ao.chunk, nullptr);
          c.activations += 1;
          activations.fetch_add(1);
          c.dirty.store(true, std::memory_order_release);
          if (w == 0) {
            initiator_dirty_since_launch = true;
          }
          progress = progress || step.consumed > 0;
        }
        c.backlog_hint.store(worker.backlog(),
                             std::memory_order_release);
      }

      for (const Batch& token : tokens) {
        if (token.token_epoch < epoch_base) {
          continue;
        }
        c.has_token = true;
        c.token_epoch = token.token_epoch;
        c.token_black = c.token_black || token.token_black;
        token_passes.fetch_add(1);
        progress = true;
      }

      if (!progress && ao.steal) {
        // Pick the most backlogged peer by hint, then try its lock —
        // never while holding our own (no nested worker locks).
        std::uint32_t victim = w;
        std::size_t best = ao.chunk;  // only steal real backlog
        for (std::uint32_t v = 0; v < n; ++v) {
          const std::size_t b =
              v == w ? 0
                     : ctl[v]->backlog_hint.load(
                           std::memory_order_acquire);
          if (v != w && workers_[v]->can_steal_from() && b > best) {
            best = b;
            victim = v;
          }
        }
        if (victim != w && ctl[victim]->m.try_lock()) {
          Worker::StealShard shard;
          std::vector<reason::ForwardEngine::Derivation> derivations;
          {
            const std::lock_guard<std::mutex> vlock(
                ctl[victim]->m, std::adopt_lock);
            Worker& vic = *workers_[victim];
            if (vic.backlog() > ao.chunk) {
              const StepGuard busy(in_step);
              shard = vic.grant_steal(ao.steal_batch);
              derivations = vic.evaluate_shard(shard.lo, shard.hi);
              ctl[victim]->dirty.store(true,
                                       std::memory_order_release);
              ctl[victim]->backlog_hint.store(
                  vic.backlog(), std::memory_order_release);
            }
          }
          if (shard.hi > shard.lo) {
            obs::Span steal_span("parallel.steal",
                                 {{"worker", w}, {"victim", victim}},
                                 100 + w);
            std::size_t shipped = 0;
            {
              const std::scoped_lock lock(c.m);
              shipped = worker.ship_steal_results(victim, derivations,
                                                  nullptr);
              c.dirty.store(true, std::memory_order_release);
            }
            if (w == 0) {
              initiator_dirty_since_launch = true;
            }
            c.activations += 1;
            activations.fetch_add(1);
            steals.fetch_add(1);
            stolen_tuples.fetch_add(shard.hi - shard.lo);
            steal_derivations.fetch_add(shipped);
            steal_span.arg({"tuples", shard.hi - shard.lo});
            progress = true;
          }
        }
      }

      if (progress) {
        c.idle_polls = 0;
        my_stall = 0;
        progress_ticks.fetch_add(1, std::memory_order_acq_rel);
      } else {
        obs::Span idle_span("parallel.idle", {{"worker", w}}, 100 + w);
        util::Stopwatch idle_watch;
        c.idle_polls += 1;
        if (c.idle_polls %
                std::max<std::uint32_t>(1, ao.retransmit_after) ==
            0) {
          const std::scoped_lock lock(c.m);
          if (worker.release_acked(ack_board_) > 0) {
            worker.retransmit_unacked_async(ack_board_);
          }
        }
        std::this_thread::yield();
        c.idle_seconds += idle_watch.elapsed_seconds();
        const std::uint64_t ticks =
            progress_ticks.load(std::memory_order_acquire);
        if (ticks != seen_ticks ||
            in_step.load(std::memory_order_acquire) > 0) {
          seen_ticks = ticks;
          my_stall = 0;
          standstill.restart();
        } else if (++my_stall > kAsyncStallLimit &&
                   standstill.elapsed_seconds() > kAsyncStallSeconds) {
          stalled.store(true, std::memory_order_release);
        }
      }

      {
        const std::scoped_lock lock(c.m);
        passive = worker.backlog() == 0 &&
                  worker.release_acked(ack_board_) == 0;
      }

      if (w == 0) {
        if (!probe_outstanding && passive && n > 1) {
          probe_launch_epoch += 1;
          probe_outstanding = true;
          initiator_dirty_since_launch = false;
          c.dirty.store(false, std::memory_order_release);
          {
            const std::scoped_lock lock(c.m);
            worker.send_token(1, probe_launch_epoch, false, nullptr);
          }
          token_epochs.fetch_add(1);
          if (token_epochs.load() > options_.max_rounds) {
            over_budget.store(true, std::memory_order_release);
          }
        } else if (c.has_token &&
                   c.token_epoch == probe_launch_epoch) {
          const bool white = !c.token_black;
          c.has_token = false;
          c.token_black = false;
          probe_outstanding = false;
          if (white && !initiator_dirty_since_launch && passive) {
            terminated.store(true, std::memory_order_release);
          }
        } else if (n == 1 && passive) {
          terminated.store(true, std::memory_order_release);
        }
      } else if (c.has_token && passive) {
        const bool black =
            c.token_black || c.dirty.load(std::memory_order_acquire);
        c.dirty.store(false, std::memory_order_release);
        c.has_token = false;
        c.token_black = false;
        {
          const std::scoped_lock lock(c.m);
          worker.send_token((w + 1) % static_cast<std::uint32_t>(n),
                            c.token_epoch, black, nullptr);
        }
        token_passes.fetch_add(1);
      }
    }
  });

  if (stalled.load()) {
    throw DeliveryFailure(
        "async threaded run stalled: no worker progressed over " +
        std::to_string(kAsyncStallLimit) + " idle polls and " +
        std::to_string(static_cast<int>(kAsyncStallSeconds)) + " s");
  }
  if (over_budget.load()) {
    throw DeliveryFailure(
        "async threaded run exceeded max_rounds (" +
        std::to_string(options_.max_rounds) + ") token epochs");
  }

  // One consistent final cut: after termination nothing is in flight, so
  // checkpointing here matches the synchronous mode's end-of-round cut.
  if (!options_.checkpoint.dir.empty()) {
    const auto final_epoch = static_cast<std::uint32_t>(
        epoch_base + token_epochs.load() + 1);
    for (auto& worker : workers_) {
      checkpoint_worker(*worker, final_epoch);
      ++checkpoints_written_;
    }
  }

  stats.activations = activations.load();
  stats.steals = steals.load();
  stats.stolen_tuples = stolen_tuples.load();
  stats.steal_derivations = steal_derivations.load();
  stats.token_epochs = token_epochs.load();
  stats.token_passes = token_passes.load();
  stats.idle_seconds_per_worker.reserve(n);
  for (const auto& c : ctl) {
    stats.idle_seconds_per_worker.push_back(c->idle_seconds);
    stats.idle_seconds += c->idle_seconds;
  }
  (void)ft;
  result.rounds = stats.token_epochs;
  result.wall_seconds = wall.elapsed_seconds();
  result.simulated_seconds = result.wall_seconds;
  finalize_async(result, stats);
  return result;
}

void Cluster::finalize_async(ClusterResult& result, const AsyncStats& stats) {
  // Async runs have no per-round breakdown; the component totals are the
  // per-worker maxima (the parallel-makespan contribution of each
  // component), and sync_seconds is the idle analogue.
  result.async_stats = stats;
  for (const auto& worker : workers_) {
    double reason_total = 0.0;
    double io_total = 0.0;
    double aggregate_total = 0.0;
    for (const RoundStats& rs : worker->rounds()) {
      reason_total += rs.reason_seconds;
      io_total += rs.io_seconds;
      aggregate_total += rs.aggregate_seconds;
    }
    result.reason_seconds = std::max(result.reason_seconds, reason_total);
    result.io_seconds = std::max(result.io_seconds, io_total);
    result.aggregate_seconds =
        std::max(result.aggregate_seconds, aggregate_total);
    result.reason_seconds_per_worker.push_back(reason_total);
    result.results_per_partition.push_back(worker->result_size());
  }
  for (const double idle : stats.idle_seconds_per_worker) {
    result.sync_seconds = std::max(result.sync_seconds, idle);
  }

  publish_report(result);
  obs::publish(stats, "parallel.async");
  // First-class idle metric: total idle nanoseconds across workers.
  PAROWL_COUNT("parallel.idle_ns",
               static_cast<std::uint64_t>(stats.idle_seconds * 1e9));
}

void Cluster::finalize(ClusterResult& result) {
  const NetworkModel& net = options_.network;
  // A worker's communication cost in one round: measured, or modeled.
  const auto comm_of = [&net](const RoundStats& rs) {
    return net.use_measured_io
               ? rs.io_seconds
               : net.latency_seconds * static_cast<double>(rs.sent_messages) +
                     net.bytes_per_tuple *
                         static_cast<double>(rs.sent_tuples +
                                             rs.received_tuples) /
                         net.bandwidth_bytes_per_sec;
  };

  // Per-round maxima and the simulated makespan.
  result.breakdown.assign(result.rounds, RoundBreakdown{});
  for (std::uint32_t round = 0; round < result.rounds; ++round) {
    RoundBreakdown& rb = result.breakdown[round];
    double compute_max = 0.0;
    for (const auto& worker : workers_) {
      if (worker->rounds().size() <= round) {
        continue;
      }
      const RoundStats& rs = worker->rounds()[round];
      rb.reason_max = std::max(rb.reason_max, rs.reason_seconds);
      rb.aggregate_max = std::max(rb.aggregate_max, rs.aggregate_seconds);
      rb.tuples_exchanged += rs.sent_tuples;

      const double comm = comm_of(rs);
      rb.io_max = std::max(rb.io_max, comm);
      compute_max = std::max(
          compute_max, rs.reason_seconds + rs.aggregate_seconds + comm);
    }
    // In the simulated mode, a worker's synchronization wait is the gap to
    // the slowest worker of the round.
    if (options_.mode == ExecutionMode::kSequentialSimulated) {
      for (const auto& worker : workers_) {
        if (worker->rounds().size() <= round) {
          continue;
        }
        RoundStats& rs = worker->mutable_rounds()[round];
        const double own =
            rs.reason_seconds + rs.aggregate_seconds + comm_of(rs);
        rs.sync_seconds = std::max(0.0, compute_max - own);
      }
    }
    for (const auto& worker : workers_) {
      if (worker->rounds().size() > round) {
        rb.sync_max = std::max(rb.sync_max,
                               worker->rounds()[round].sync_seconds);
      }
    }

    result.reason_seconds += rb.reason_max;
    result.io_seconds += rb.io_max;
    result.sync_seconds += rb.sync_max;
    result.aggregate_seconds += rb.aggregate_max;
    result.simulated_seconds += rb.reason_max + rb.aggregate_max + rb.io_max;
  }

  // Per-worker reasoning totals (for predictive rebalancing) and result
  // sizes for the OR metric.
  for (const auto& worker : workers_) {
    double reason_total = 0.0;
    for (const RoundStats& rs : worker->rounds()) {
      reason_total += rs.reason_seconds;
    }
    result.reason_seconds_per_worker.push_back(reason_total);
    result.results_per_partition.push_back(worker->result_size());
  }
  result.simulated_seconds += backoff_seconds_;
  publish_report(result);
}

void Cluster::publish_report(ClusterResult& result) {
  // Fault-tolerance accounting.
  RunReport& rep = result.report;
  for (const auto& worker : workers_) {
    for (const RoundStats& rs : worker->rounds()) {
      rep.batches_sent += rs.sent_messages;
      rep.retransmissions += rs.retransmitted;
      rep.redeliveries += rs.redelivered;
      rep.checksum_failures += rs.corrupt_batches;
    }
  }
  rep.injected = transport_.injected_faults();
  rep.checkpoints_written = checkpoints_written_;
  rep.backoff_seconds = backoff_seconds_;
  rep.recovered = recovered_;
  rep.recovered_from_round = recovered_from_round_;

  // Export the run's headline numbers into the global registry.
  obs::publish(rep, "parallel.run");
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("parallel.rounds").set(static_cast<double>(result.rounds));
  registry.gauge("parallel.reason_seconds").set(result.reason_seconds);
  registry.gauge("parallel.io_seconds").set(result.io_seconds);
  registry.gauge("parallel.sync_seconds").set(result.sync_seconds);
  registry.gauge("parallel.aggregate_seconds").set(result.aggregate_seconds);
  registry.gauge("parallel.simulated_seconds").set(result.simulated_seconds);
}

obs::FieldList fields(const AsyncStats& s) {
  return {
      {"activations", s.activations},
      {"steals", s.steals},
      {"stolen_tuples", s.stolen_tuples},
      {"steal_derivations", s.steal_derivations},
      {"token_epochs", s.token_epochs},
      {"token_passes", s.token_passes},
      {"idle_seconds", s.idle_seconds},
  };
}

obs::FieldList fields(const RunReport& r) {
  obs::FieldList out = {
      {"batches_sent", r.batches_sent},
      {"retransmissions", r.retransmissions},
      {"redeliveries", r.redeliveries},
      {"checksum_failures", r.checksum_failures},
      {"checkpoints_written", r.checkpoints_written},
      {"backoff_seconds", r.backoff_seconds},
      {"recovered", r.recovered},
      {"recovered_from_round", static_cast<std::uint64_t>(
          r.recovered_from_round < 0 ? 0 : r.recovered_from_round)},
  };
  for (obs::Field& f : fields(r.injected)) {
    f.name.insert(0, "injected_");
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace parowl::parallel
