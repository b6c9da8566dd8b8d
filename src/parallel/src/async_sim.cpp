#include "parowl/parallel/async_sim.hpp"

#include <algorithm>
#include <queue>

#include "parowl/obs/obs.hpp"
#include "parowl/util/thread_team.hpp"

namespace parowl::parallel {
namespace {

/// A batch of tuples in flight, due at `arrival` (virtual seconds).
struct Delivery {
  double arrival = 0.0;
  std::uint32_t dest = 0;
  std::vector<rdf::Triple> tuples;
};

struct LaterArrival {
  bool operator()(const Delivery& a, const Delivery& b) const {
    return a.arrival > b.arrival;  // min-heap on arrival time
  }
};

}  // namespace

AsyncSimulator::AsyncSimulator(std::uint32_t num_partitions,
                               NetworkModel network, const FaultSpec* faults)
    : network_(network), faults_(faults) {
  workers_.reserve(num_partitions);
}

std::uint32_t AsyncSimulator::add_worker(rules::RuleSet rule_base,
                                         std::shared_ptr<const Router> router,
                                         WorkerOptions worker_options) {
  const auto id = static_cast<std::uint32_t>(workers_.size());
  workers_.push_back(std::make_unique<Worker>(id, std::move(rule_base),
                                              std::move(router),
                                              /*transport=*/nullptr,
                                              worker_options));
  return id;
}

void AsyncSimulator::load(std::uint32_t id,
                          std::span<const rdf::Triple> base) {
  workers_[id]->load(base);
}

AsyncResult AsyncSimulator::run() {
  AsyncResult result;
  result.workers.resize(workers_.size());

  std::priority_queue<Delivery, std::vector<Delivery>, LaterArrival> in_flight;
  // clock[w]: virtual time up to which worker w is busy.
  std::vector<double> clock(workers_.size(), 0.0);

  auto comm_delay = [this](std::size_t tuples) {
    return network_.latency_seconds +
           network_.bytes_per_tuple * static_cast<double>(tuples) /
               network_.bandwidth_bytes_per_sec;
  };

  // Ship one batch through the (possibly faulty) virtual network.  Drops
  // and corruptions are paid for in virtual time — a retransmission
  // timeout, plus for corruption the wasted delivery that the checksum
  // rejects on arrival — and retried with a bumped attempt, exactly
  // mirroring the round-based ack/retry protocol.
  std::uint64_t next_batch_id = 0;  // event order is deterministic
  auto ship = [&](std::uint32_t dest, const std::vector<rdf::Triple>& tuples,
                  double ready) {
    const double one_way = comm_delay(tuples.size());
    const std::uint64_t id = next_batch_id++;
    double t = ready;
    for (std::uint32_t attempt = 0;; ++attempt) {
      if (faults_ == nullptr || attempt >= faults_->max_faulty_attempts) {
        in_flight.push(Delivery{t + one_way, dest, tuples});
        return;
      }
      result.injected.attempts += 1;
      const std::uint64_t h = mix64(
          faults_->seed ^ mix64(id * 0x9e3779b97f4a7c15ULL + attempt));
      const double u = hash_unit(h);
      double edge = faults_->drop;
      if (u < edge) {
        // Vanished: sender times out (retransmission timeout modeled as
        // two one-way delays) and tries again.
        result.injected.drops += 1;
        result.retries += 1;
        result.retry_seconds += 2.0 * one_way;
        t += 2.0 * one_way;
        continue;
      }
      edge += faults_->duplicate;
      if (u < edge) {
        result.injected.duplicates += 1;
        in_flight.push(Delivery{t + one_way, dest, tuples});
        in_flight.push(Delivery{t + 2.0 * one_way, dest, tuples});
        return;
      }
      edge += faults_->corrupt;
      if (u < edge) {
        // Damaged in flight: the receiver's checksum rejects it on
        // arrival, so a full round trip is wasted before the retry.
        result.injected.corruptions += 1;
        result.retries += 1;
        result.retry_seconds += 3.0 * one_way;
        t += 3.0 * one_way;
        continue;
      }
      edge += faults_->delay;
      if (u < edge) {
        const std::uint32_t extra =
            1 + static_cast<std::uint32_t>(
                    mix64(h ^ 0xabcdef12345ULL) %
                    std::max(1u, faults_->max_delay_rounds));
        result.injected.delays += 1;
        in_flight.push(Delivery{t + (1.0 + extra) * one_way, dest, tuples});
        return;
      }
      in_flight.push(Delivery{t + one_way, dest, tuples});
      return;
    }
  };

  // Activation: run worker w's local closure at virtual time `start`,
  // advancing its clock and enqueueing the outgoing batches.
  auto activate = [&](std::uint32_t w, double start) {
    AsyncWorkerStats& ws = result.workers[w];
    double compute = 0.0;
    const std::vector<Outgoing> batches =
        workers_[w]->compute_local(&compute);
    ++ws.activations;
    ws.busy_seconds += compute;
    if (start > clock[w]) {
      result.wait_seconds += start - clock[w];  // worker sat idle
    }
    clock[w] = start + compute;
    ws.finish_time = clock[w];
    for (const Outgoing& batch : batches) {
      ws.sent_tuples += batch.tuples.size();
      ship(batch.dest, batch.tuples, clock[w]);
    }
  };

  // Time zero: every worker processes its base partition immediately.
  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    activate(w, 0.0);
  }

  // Event loop: deliver the earliest batch; the destination starts work at
  // max(arrival, its clock).  Batches that arrive while it is busy coalesce
  // into that same activation (they are absorbed before the closure runs).
  while (!in_flight.empty()) {
    Delivery d = in_flight.top();
    in_flight.pop();
    ++result.deliveries;

    const std::uint32_t w = d.dest;
    const double start = std::max(d.arrival, clock[w]);

    // Absorb this batch plus any other batch for w arriving before `start`.
    std::size_t fresh = workers_[w]->absorb(d.tuples);
    result.workers[w].received_tuples += d.tuples.size();
    while (!in_flight.empty() && in_flight.top().dest == w &&
           in_flight.top().arrival <= start) {
      const Delivery more = in_flight.top();
      in_flight.pop();
      ++result.deliveries;
      fresh += workers_[w]->absorb(more.tuples);
      result.workers[w].received_tuples += more.tuples.size();
    }
    if (fresh == 0) {
      continue;  // nothing new: the closure cannot change
    }
    activate(w, start);
  }

  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    result.simulated_seconds =
        std::max(result.simulated_seconds, result.workers[w].finish_time);
  }

  // Result-tuple union (same accounting as the round-based cluster).
  for (const auto& worker : workers_) {
    result.results_per_partition.push_back(worker->result_size());
  }
  util::ThreadTeam team(static_cast<unsigned>(workers_.size()));
  result.union_results = union_of_derived(workers_, team);
  // First-class idle metric, matching the async cluster executors.
  PAROWL_COUNT("parallel.idle_ns",
               static_cast<std::uint64_t>(result.wait_seconds * 1e9));
  return result;
}

}  // namespace parowl::parallel
