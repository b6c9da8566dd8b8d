#include "parowl/serve/workload.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>

#include "parowl/util/rng.hpp"
#include "parowl/util/strings.hpp"
#include "parowl/util/table.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::serve {
namespace {

/// Shared sink for completion callbacks from any thread.
struct Collector {
  RequestCounters counters;

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t answered = 0;

  void record(const Response& response) {
    counters.record(response);
    // Notify under the lock: the waiter may destroy this collector as soon
    // as it sees the count, so nothing here may touch it after unlocking.
    const std::scoped_lock lock(mutex);
    ++answered;
    all_done.notify_all();
  }

  void wait_for(std::size_t expected) {
    std::unique_lock lock(mutex);
    all_done.wait(lock, [&] { return answered >= expected; });
  }
};

/// Exponential draw with the given mean (0 mean -> 0).
double exponential(util::Rng& rng, double mean) {
  if (mean <= 0) {
    return 0.0;
  }
  return -mean * std::log(1.0 - rng.uniform());
}

WorkloadReport finish(const Collector& collector, std::size_t submitted,
                      double wall_seconds) {
  const RequestStats counts = collector.counters.stats();
  WorkloadReport report;
  report.submitted = submitted;
  report.completed = counts.completed;
  report.shed = counts.shed;
  report.deadline_exceeded = counts.deadline_exceeded;
  report.parse_errors = counts.parse_errors;
  report.unavailable = counts.unavailable;
  report.unsupported = counts.unsupported;
  report.cache_hits = collector.counters.cache_hits();
  report.wall_seconds = wall_seconds;
  report.latency = counts.latency;
  return report;
}

WorkloadReport run_open_loop(Frontend& service,
                             std::span<const std::string> queries,
                             const WorkloadOptions& options) {
  Collector collector;
  util::Rng rng(options.seed);
  const auto interval = std::chrono::duration<double>(
      options.arrival_rate_qps > 0 ? 1.0 / options.arrival_rate_qps : 0.0);
  const auto start = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < options.total_requests; ++i) {
    // Fixed-rate arrivals: sleep to the schedule, never to the service.
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    const std::string& q = queries[rng.below(queries.size())];
    service.submit(q,
                   [&collector](const Response& r) { collector.record(r); });
  }
  collector.wait_for(options.total_requests);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return finish(collector, options.total_requests, wall);
}

WorkloadReport run_closed_loop(Frontend& service,
                               std::span<const std::string> queries,
                               const WorkloadOptions& options) {
  Collector collector;
  const std::size_t clients = options.clients == 0 ? 1 : options.clients;
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    // Client c issues requests c, c + clients, c + 2*clients, ...
    threads.emplace_back([&, c] {
      util::Rng rng(options.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));
      for (std::size_t i = c; i < options.total_requests; i += clients) {
        const std::string& q = queries[rng.below(queries.size())];
        std::mutex done_mutex;
        std::condition_variable done_cv;
        bool answered = false;
        service.submit(q, [&](const Response& r) {
          collector.record(r);
          // Notify under the lock: the waiter's stack frame owns done_cv.
          const std::scoped_lock lock(done_mutex);
          answered = true;
          done_cv.notify_one();
        });
        {
          std::unique_lock lock(done_mutex);
          done_cv.wait(lock, [&] { return answered; });
        }
        const double think = exponential(rng, options.think_seconds);
        if (think > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(think));
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return finish(collector, options.total_requests, wall);
}

}  // namespace

WorkloadReport run_workload(Frontend& service,
                            std::span<const std::string> queries,
                            const WorkloadOptions& options) {
  if (queries.empty() || options.total_requests == 0) {
    return {};
  }
  return options.mode == WorkloadMode::kOpenLoop
             ? run_open_loop(service, queries, options)
             : run_closed_loop(service, queries, options);
}

std::vector<std::string> load_query_lines(std::istream& in) {
  std::vector<std::string> out;
  std::string line;
  std::string pending;
  while (std::getline(in, line)) {
    std::string_view trimmed = util::trim(line);
    if (pending.empty() && (trimmed.empty() || trimmed.front() == '#')) {
      continue;
    }
    const bool continued = !trimmed.empty() && trimmed.back() == '\\';
    if (continued) {
      trimmed.remove_suffix(1);
      trimmed = util::trim(trimmed);
    }
    if (!pending.empty() && !trimmed.empty()) {
      pending += ' ';
    }
    pending += trimmed;
    if (!continued) {
      if (!pending.empty()) {
        out.push_back(std::move(pending));
      }
      pending.clear();
    }
  }
  if (!pending.empty()) {
    out.push_back(std::move(pending));
  }
  return out;
}

void WorkloadReport::print(std::ostream& os) const {
  util::Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(submitted)});
  table.add_row({"completed", std::to_string(completed)});
  table.add_row({"shed", std::to_string(shed)});
  table.add_row({"deadline exceeded", std::to_string(deadline_exceeded)});
  table.add_row({"parse errors", std::to_string(parse_errors)});
  table.add_row({"unavailable", std::to_string(unavailable)});
  table.add_row({"unsupported", std::to_string(unsupported)});
  table.add_row({"cache hits", std::to_string(cache_hits)});
  table.add_row({"wall time", util::format_seconds(wall_seconds)});
  table.add_row({"throughput", util::fmt_double(throughput_qps(), 1) + " q/s"});
  table.add_row({"p50", fmt_latency(latency.percentile_seconds(0.50))});
  table.add_row({"p95", fmt_latency(latency.percentile_seconds(0.95))});
  table.add_row({"p99", fmt_latency(latency.percentile_seconds(0.99))});
  table.print(os);
}

}  // namespace parowl::serve
