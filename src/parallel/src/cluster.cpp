#include "parowl/parallel/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
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

/// Delivery sub-iterations per round before the round is declared
/// undeliverable.  With the default FaultSpec (max_faulty_attempts = 3)
/// every schedule completes well within this bound.
constexpr std::uint32_t kMaxRetries = 10;

/// Virtual exponential backoff charged per retry sub-iteration (no real
/// sleeping: the cost is added to the simulated makespan and reported).
constexpr double kBackoffBaseSeconds = 100e-6;
constexpr double kBackoffMultiplier = 2.0;

/// Serialized size of one triple in the network model.
constexpr double kBytesPerTuple = 64.0;

/// Async driver: idle polls without progress before a worker resends its
/// unacknowledged envelopes.
constexpr std::uint32_t kRetransmitAfter = 3;

/// Safety valve of the async driver: a worker's idle polls while no worker
/// progressed (no arrival, evaluation, steal or token) and none is inside
/// a step, before the run is declared stalled.  The standstill must also
/// last kAsyncStallSeconds: a stall is the whole cluster standing still,
/// not one worker waiting on a peer's long evaluation or absorb.
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
    : transport_(transport),
      options_(std::move(options)),
      measured_io_(transport_.name().find("file") != std::string::npos) {
  obs::configure(options_.obs);
  if (!options_.checkpoint_dir.empty()) {
    fs::create_directories(options_.checkpoint_dir);
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

bool Cluster::checkpoint_worker(Worker& worker, std::uint32_t round) {
  obs::Span span("parallel.checkpoint",
                 {{"round", round}, {"worker", worker.id()}},
                 100 + worker.id());
  const fs::path final_path =
      checkpoint_path(options_.checkpoint_dir, worker.id(), round);
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
    return false;
  }
  return true;
}

std::int64_t Cluster::restore_from_checkpoints() {
  const std::string& dir = options_.checkpoint_dir;
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
  if (obs::Tracer::global().enabled()) {
    // Per-worker virtual tracks (100 + id, matching worker.cpp) so the
    // trace has one row per worker even when all run on one thread.
    for (const auto& worker : workers_) {
      obs::Tracer::global().name_track(
          100 + worker->id(), "worker " + std::to_string(worker->id()));
    }
  }
  const ExecutionMode mode = options_.mode;
  crash_armed_ = options_.fault_tolerance.crash_at_round >= 0 &&
                 (mode == ExecutionMode::kSequentialSimulated ||
                  mode == ExecutionMode::kAsync);
  std::optional<util::ThreadTeam> own;
  if (team == nullptr || team->size() != workers_.size()) {
    team = &own.emplace(static_cast<unsigned>(workers_.size()));
  }
  util::ThreadTeam* const steps =
      mode == ExecutionMode::kThreaded || mode == ExecutionMode::kAsyncThreaded
          ? team
          : nullptr;
  const bool async =
      mode == ExecutionMode::kAsync || mode == ExecutionMode::kAsyncThreaded;
  const auto dispatch = [&]() {
    return async ? run_async(steps) : run_rounds(steps);
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

void Cluster::each_worker(util::ThreadTeam* team,
                          const std::function<void(Worker&)>& step) {
  if (team == nullptr) {
    for (auto& worker : workers_) {
      step(*worker);
    }
    return;
  }
  // Worker m on member m in every phase, never on whichever member is
  // free: a worker whose allocations hop between threads draws fresh
  // malloc arenas and inflates peak RSS.
  team->run([&](unsigned m) {
    if (m < workers_.size()) {
      step(*workers_[m]);
    }
  });
}

void Cluster::deliver_round(std::uint32_t round, util::ThreadTeam* team) {
  PAROWL_SPAN("parallel.deliver", {{"round", round}});
  std::vector<std::size_t> resent(workers_.size());
  const auto collect = [&](Worker& worker) {
    worker.collect(round, &ack_board_);
  };
  ack_board_.clear();

  each_worker(team, collect);
  double backoff = kBackoffBaseSeconds;
  for (std::uint32_t retry = 0;; ++retry) {
    each_worker(team, [&](Worker& worker) {
      resent[worker.id()] = worker.retransmit_unacked(round, ack_board_);
    });
    const std::size_t total =
        std::accumulate(resent.begin(), resent.end(), std::size_t{0});
    if (total == 0) {
      break;  // every envelope of the round is acknowledged
    }
    if (retry >= kMaxRetries) {
      std::ostringstream msg;
      msg << "round " << round << ": " << total
          << " batches undelivered after " << kMaxRetries << " retries";
      throw DeliveryFailure(msg.str());
    }
    backoff_seconds_ += backoff;  // virtual: charged, not slept
    backoff *= kBackoffMultiplier;
    each_worker(team, collect);
  }
  const bool checkpoint = !options_.checkpoint_dir.empty();
  // One slot per worker: the threaded driver writes them concurrently.
  std::vector<std::uint8_t> written(workers_.size());
  each_worker(team, [&](Worker& worker) {
    worker.aggregate_round(round);
    if (checkpoint) {
      written[worker.id()] = checkpoint_worker(worker, round) ? 1 : 0;
    }
  });
  checkpoints_written_ +=
      std::accumulate(written.begin(), written.end(), std::uint64_t{0});
}

ClusterResult Cluster::run_rounds(util::ThreadTeam* team) {
  util::Stopwatch wall;
  ClusterResult result;
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  std::vector<std::size_t> sent(workers_.size());

  for (std::uint32_t round = start_round_;; ++round) {
    if (round >= options_.max_rounds) {
      // Every round so far shipped tuples: stopping here would return an
      // incomplete closure as if it were the fixpoint.
      throw DeliveryFailure("round driver exceeded max_rounds (" +
                            std::to_string(options_.max_rounds) +
                            ") with tuples still in flight");
    }
    each_worker(team, [&](Worker& worker) {
      if (crash_armed_ &&
          static_cast<std::int64_t>(round) == ft.crash_at_round &&
          worker.id() == ft.crash_worker) {
        crash_armed_ = false;  // the restarted worker does not die again
        throw SimulatedCrash("worker " + std::to_string(worker.id()) +
                             " killed at round " + std::to_string(round));
      }
      sent[worker.id()] = worker.compute_and_send(round);
    });
    result.rounds = round + 1;
    if (std::accumulate(sent.begin(), sent.end(), std::size_t{0}) == 0) {
      break;  // quiescent: nothing in transit anywhere
    }
    deliver_round(round, team);
  }

  result.wall_seconds = wall.elapsed_seconds();
  finalize(result);
  return result;
}

// -- Asynchronous driver ----------------------------------------------
//
// The async modes drop the round barrier: each worker drains arrivals as
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

namespace {

/// Per-worker scheduler state.  The mutex guards the Worker (store,
/// frontier, pending, outbox); `dirty` and `backlog_hint` are written by
/// thieves too; everything else belongs to the worker's own poll.
struct AsyncWorker {
  std::mutex m;
  /// Activity since the last token forward (worker 0: since the last
  /// probe launch).
  std::atomic<bool> dirty{true};
  std::atomic<std::size_t> backlog_hint{0};
  bool has_token = false;
  std::uint32_t token_epoch = 0;
  bool token_black = false;
  std::uint32_t idle_polls = 0;
  double vclock = 0.0;  // busy seconds: compute + modeled/measured comm
  double idle_seconds = 0.0;  // measured idle polling (team flavour)
  std::uint64_t activations = 0;
  // Stall detection: idle polls since the cluster last progressed.
  std::uint32_t still_polls = 0;
  std::uint64_t seen_ticks = 0;
  util::Stopwatch standstill;
};

}  // namespace

struct Cluster::AsyncState {
  AsyncState(std::size_t n, bool on_team, std::uint32_t base)
      : workers(n), threaded(on_team), epoch_base(base), probe_epoch(base) {}

  std::vector<AsyncWorker> workers;
  bool threaded;  // each worker polled by its own team member
  /// Probe epochs restart above any pre-crash epoch after a recovery, just
  /// as worker send sequences do; older tokens are stale.
  std::uint32_t epoch_base;
  // Probe state, touched by worker 0's poll only.
  std::uint32_t probe_epoch;
  bool probe_outstanding = false;

  std::atomic<bool> terminated{false};
  // The two failure causes: the cluster stood still (see
  // kAsyncStallLimit), or termination probes exceeded max_rounds.
  std::atomic<bool> stalled{false};
  std::atomic<bool> over_budget{false};
  // Cluster-wide progress: bumped by every poll that progressed, plus the
  // number of workers inside an evaluation right now.
  std::atomic<std::uint64_t> progress_ticks{0};
  std::atomic<std::uint32_t> in_step{0};

  std::atomic<std::uint64_t> activations{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> stolen_tuples{0};
  std::atomic<std::uint64_t> steal_derivations{0};
  std::atomic<std::uint64_t> token_epochs{0};
  std::atomic<std::uint64_t> token_passes{0};
  std::atomic<std::uint64_t> retransmit_sweeps{0};

  [[nodiscard]] bool finished() const {
    return terminated || stalled || over_budget;
  }
};

void Cluster::poll(std::uint32_t w, AsyncState& state) {
  const AsyncOptions& ao = options_.async;
  const FaultToleranceOptions& ft = options_.fault_tolerance;
  const NetworkModel& net = options_.network;
  const auto n = static_cast<std::uint32_t>(workers_.size());
  Worker& worker = *workers_[w];
  AsyncWorker& c = state.workers[w];
  const auto comm_cost = [&net](std::size_t batches, std::size_t tuples) {
    return net.latency_seconds * static_cast<double>(batches) +
           kBytesPerTuple * static_cast<double>(tuples) /
               std::max(1.0, net.bandwidth_bytes_per_sec);
  };

  // Injected crash: the async analogue of crash_at_round is "the Nth
  // evaluation activation of crash_worker" — deferred until an epoch cut
  // has written every worker's checkpoint, so recovery is always possible
  // (the test knob is for exercising recovery, not unrecoverable loss).
  if (crash_armed_ && w == ft.crash_worker && complete_cut_ &&
      static_cast<std::int64_t>(c.activations) >= ft.crash_at_round) {
    crash_armed_ = false;
    throw SimulatedCrash("worker " + std::to_string(w) +
                         " killed at activation " +
                         std::to_string(c.activations));
  }

  // Drain arrivals (data + steal results absorbed, tokens handed up), then
  // evaluate one frontier chunk.
  bool progress = false;
  bool active = false;  // evaluated or stole
  bool stepped = false;
  std::vector<Batch> tokens;
  {
    const std::scoped_lock lock(c.m);
    auto arrivals = worker.async_collect(&ack_board_);
    tokens = std::move(arrivals.tokens);
    if (arrivals.fresh > 0 || arrivals.batches > 0) {
      c.dirty = true;
      progress = true;
    }
    if (worker.backlog() > 0) {
      const StepGuard busy(state.in_step);
      const auto step = worker.async_step(ao.chunk);
      c.vclock += step.compute_seconds +
                  comm_cost(step.sent_batches, step.sent_tuples);
      c.activations += 1;
      state.activations += 1;
      c.dirty = true;
      stepped = true;
      active = step.consumed > 0;
    }
    c.backlog_hint = worker.backlog();
  }
  for (const Batch& token : tokens) {
    if (token.token_epoch < state.epoch_base) {
      continue;  // stale pre-recovery probe
    }
    c.has_token = true;
    c.token_epoch = token.token_epoch;
    c.token_black = c.token_black || token.token_black;
    state.token_passes += 1;
    progress = true;
  }

  // Nothing of its own: steal from the first peer with the largest
  // backlog beyond one chunk (the owner is about to evaluate its next
  // chunk anyway).  Picked by hint, then try-locked — never while holding
  // our own lock.
  if (!stepped && ao.steal) {
    std::uint32_t victim = w;
    std::size_t best = ao.chunk;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::size_t backlog = state.workers[v].backlog_hint;
      if (v != w && workers_[v]->can_steal_from() && backlog > best) {
        best = backlog;
        victim = v;
      }
    }
    AsyncWorker& vc = state.workers[victim];
    if (victim != w && vc.m.try_lock()) {
      Worker::StealShard shard;
      std::vector<reason::ForwardEngine::Derivation> derivations;
      util::Stopwatch steal_watch;
      {
        const std::lock_guard<std::mutex> vlock(vc.m, std::adopt_lock);
        Worker& vic = *workers_[victim];
        if (vic.backlog() > ao.chunk) {
          const StepGuard busy(state.in_step);
          shard = vic.grant_steal(ao.steal_batch);
          derivations = vic.evaluate_shard(shard.lo, shard.hi);
          vc.dirty = true;  // its frontier advanced
          vc.backlog_hint = vic.backlog();
        }
      }
      if (shard.hi > shard.lo) {
        obs::Span steal_span("parallel.steal",
                             {{"worker", w}, {"victim", victim}}, 100 + w);
        std::size_t shipped = 0;
        {
          const std::scoped_lock lock(c.m);
          shipped = worker.ship_steal_results(victim, derivations);
        }
        c.vclock += steal_watch.elapsed_seconds() +
                    comm_cost(shipped > 0 ? 2 : 0, shipped);
        c.activations += 1;
        c.dirty = true;
        state.activations += 1;
        state.steals += 1;
        state.stolen_tuples += shard.hi - shard.lo;
        state.steal_derivations += shipped;
        steal_span.arg({"tuples", shard.hi - shard.lo});
        steal_span.arg({"derived", derivations.size()});
        active = true;
      }
    }
  }

  if (progress || active) {
    state.progress_ticks += 1;
  }
  if (active) {
    c.idle_polls = 0;
  } else {
    obs::Span idle_span("parallel.idle", {{"worker", w}}, 100 + w);
    util::Stopwatch idle_watch;
    c.idle_polls += 1;
    if (c.idle_polls % kRetransmitAfter == 0) {
      const std::scoped_lock lock(c.m);
      // Round 0: the slot every async counter accumulates on.
      if (worker.release_acked(ack_board_) > 0 &&
          worker.retransmit_unacked(0, ack_board_) > 0) {
        state.retransmit_sweeps += 1;
      }
    }
    if (state.threaded) {
      std::this_thread::yield();
    }
    c.idle_seconds += idle_watch.elapsed_seconds();
    const std::uint64_t ticks = state.progress_ticks;
    if (ticks != c.seen_ticks || state.in_step > 0) {
      c.seen_ticks = ticks;
      c.still_polls = 0;
      c.standstill.restart();
    } else if (++c.still_polls > kAsyncStallLimit &&
               c.standstill.elapsed_seconds() > kAsyncStallSeconds) {
      state.stalled = true;
    }
  }

  bool passive = false;
  {
    const std::scoped_lock lock(c.m);
    passive = worker.backlog() == 0 && worker.release_acked(ack_board_) == 0;
  }

  // Token ring.  The initiator launches strictly sequential probes;
  // everyone else forwards when passive, blackening if dirty.
  if (w == 0) {
    if (!state.probe_outstanding && passive && n > 1) {
      state.probe_epoch += 1;
      state.probe_outstanding = true;
      c.dirty = false;
      {
        const std::scoped_lock lock(c.m);
        worker.send_token(1, state.probe_epoch, false);
      }
      if (++state.token_epochs > options_.max_rounds) {
        state.over_budget = true;
      }
    } else if (c.has_token && c.token_epoch == state.probe_epoch) {
      // The probe came home.
      const bool white = !c.token_black;
      c.has_token = false;
      c.token_black = false;
      state.probe_outstanding = false;
      if (!state.threaded && !options_.checkpoint_dir.empty()) {
        // Epoch cut, one per probe: every worker checkpoints with the
        // token epoch as the round header.  In-flight envelopes are
        // covered by the retained outbox logs each checkpoint embeds.
        std::size_t written = 0;
        for (auto& wk : workers_) {
          wk->release_acked(ack_board_);
          written += checkpoint_worker(*wk, state.probe_epoch) ? 1 : 0;
          wk->prune_outbox();
        }
        checkpoints_written_ += written;
        complete_cut_ = complete_cut_ || written == workers_.size();
      }
      if (white && !c.dirty && passive) {
        state.terminated = true;
      }
    } else if (n == 1 && passive) {
      state.terminated = true;
    }
  } else if (c.has_token && passive) {
    const bool dirty = c.dirty.exchange(false);
    const bool black = c.token_black || dirty;
    c.has_token = false;
    c.token_black = false;
    {
      const std::scoped_lock lock(c.m);
      worker.send_token((w + 1) % n, c.token_epoch, black);
    }
    state.token_passes += 1;
  }
}

ClusterResult Cluster::run_async(util::ThreadTeam* team) {
  util::Stopwatch wall;
  ClusterResult result;
  const std::size_t n = workers_.size();
  const bool checkpointing = !options_.checkpoint_dir.empty();
  AsyncState state(n, team != nullptr,
                   start_round_ > 0 ? start_round_ + kRecoveryEpochGap : 0);
  state.terminated = n == 0;

  if (checkpointing && team == nullptr) {
    // Epoch cuts need the outbox; the team flavour takes one final cut.
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
      worker->resend_outbox();
    }
  }
  for (std::uint32_t w = 0; w < n; ++w) {
    state.workers[w].backlog_hint = workers_[w]->backlog();
  }

  if (team == nullptr) {
    // Round-robin on this thread; virtual clocks model the parallel
    // makespan.
    while (!state.finished()) {
      for (std::uint32_t w = 0; w < n && !state.finished(); ++w) {
        poll(w, state);
      }
    }
  } else {
    team->run([&](unsigned w) {
      if (w >= n) {
        return;  // a cluster without workers still gets a team of one
      }
      try {
        while (!state.finished()) {
          poll(w, state);
        }
      } catch (...) {
        state.terminated = true;  // release the other members
        throw;
      }
    });
  }

  if (state.stalled) {
    throw DeliveryFailure(
        "async run stalled: no worker progressed over " +
        std::to_string(kAsyncStallLimit) + " idle polls and " +
        std::to_string(static_cast<int>(kAsyncStallSeconds)) + " s");
  }
  if (state.over_budget) {
    throw DeliveryFailure("async run exceeded max_rounds (" +
                          std::to_string(options_.max_rounds) +
                          ") token epochs");
  }
  // The team flavour's one consistent cut: after termination nothing is in
  // flight, so checkpointing here matches the round driver's cut.
  if (checkpointing && team != nullptr) {
    const auto final_epoch = static_cast<std::uint32_t>(
        state.epoch_base + state.token_epochs + 1);
    for (auto& worker : workers_) {
      checkpoints_written_ += checkpoint_worker(*worker, final_epoch) ? 1 : 0;
    }
  }
  backoff_seconds_ +=
      kBackoffBaseSeconds * static_cast<double>(state.retransmit_sweeps);

  AsyncStats stats;
  stats.activations = state.activations;
  stats.steals = state.steals;
  stats.stolen_tuples = state.stolen_tuples;
  stats.steal_derivations = state.steal_derivations;
  stats.token_epochs = state.token_epochs;
  stats.token_passes = state.token_passes;
  // Idle time: measured on the team; inline, a worker's idle time is the
  // gap to the busiest virtual clock — the round modes' sync_seconds.
  double makespan = 0.0;
  for (const AsyncWorker& c : state.workers) {
    makespan = std::max(makespan, c.vclock);
  }
  for (const AsyncWorker& c : state.workers) {
    const double idle = team != nullptr ? c.idle_seconds : makespan - c.vclock;
    stats.idle_seconds_per_worker.push_back(idle);
    stats.idle_seconds += idle;
  }
  result.rounds = stats.token_epochs;
  result.wall_seconds = wall.elapsed_seconds();
  result.simulated_seconds = team != nullptr
                                 ? result.wall_seconds
                                 : makespan + backoff_seconds_;
  finalize_async(result, stats);
  return result;
}

void Cluster::finalize_async(ClusterResult& result, const AsyncStats& stats) {
  // Async runs have no rounds: the component totals are the per-worker
  // maxima (the parallel-makespan contribution of each component),
  // sync_seconds is the idle analogue, and the breakdown is one entry of
  // those totals and the run's traffic.
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
  // One breakdown entry for the whole run, carrying its traffic.
  RoundBreakdown rb;
  rb.reason_max = result.reason_seconds;
  rb.io_max = result.io_seconds;
  rb.sync_max = result.sync_seconds;
  rb.aggregate_max = result.aggregate_seconds;
  for (const auto& worker : workers_) {
    for (const RoundStats& rs : worker->rounds()) {
      rb.tuples_exchanged += rs.sent_tuples;
      rb.received_tuples += rs.received_tuples;
      rb.received_new += rs.received_new;
    }
  }
  result.breakdown.assign(1, rb);

  publish_report(result);
  obs::publish(stats, "parallel.async");
  // First-class idle metric: total idle nanoseconds across workers.
  PAROWL_COUNT("parallel.idle_ns",
               static_cast<std::uint64_t>(stats.idle_seconds * 1e9));
}

void Cluster::finalize(ClusterResult& result) {
  const NetworkModel& net = options_.network;
  // A worker's communication cost in one round: measured, or modeled.
  const auto comm_of = [this, &net](const RoundStats& rs) {
    return measured_io_
               ? rs.io_seconds
               : net.latency_seconds * static_cast<double>(rs.sent_messages) +
                     kBytesPerTuple *
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
      rb.received_tuples += rs.received_tuples;
      rb.received_new += rs.received_new;

      const double comm = comm_of(rs);
      rb.io_max = std::max(rb.io_max, comm);
      compute_max = std::max(
          compute_max, rs.reason_seconds + rs.aggregate_seconds + comm);
    }
    // A worker's synchronization wait is the gap to the slowest worker of
    // the round.
    for (const auto& worker : workers_) {
      if (worker->rounds().size() <= round) {
        continue;
      }
      RoundStats& rs = worker->mutable_rounds()[round];
      const double own =
          rs.reason_seconds + rs.aggregate_seconds + comm_of(rs);
      rs.sync_seconds = std::max(0.0, compute_max - own);
      rb.sync_max = std::max(rb.sync_max, rs.sync_seconds);
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
  std::size_t received = 0;
  std::size_t received_new = 0;
  for (const RoundBreakdown& rb : result.breakdown) {
    received += rb.received_tuples;
    received_new += rb.received_new;
  }
  registry.gauge("parallel.tuples_received")
      .set(static_cast<double>(received));
  registry.gauge("parallel.tuples_received_new")
      .set(static_cast<double>(received_new));
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
