#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "parowl/serve/frontend.hpp"
#include "parowl/serve/stats.hpp"

namespace parowl::serve {

/// How load is offered to the service.
enum class WorkloadMode {
  /// Fixed arrival rate: requests are admitted on a clock regardless of how
  /// fast answers come back.  This is the regime where admission control
  /// matters — offered load can exceed capacity and the excess must shed.
  kOpenLoop,
  /// N clients, each waiting for its answer (plus think time) before the
  /// next request.  Self-clocking: offered load adapts to service speed.
  kClosedLoop,
};

struct WorkloadOptions {
  WorkloadMode mode = WorkloadMode::kClosedLoop;
  std::size_t total_requests = 1000;
  std::uint64_t seed = 42;  // drives query selection and think times

  // Open loop.
  double arrival_rate_qps = 1000.0;

  // Closed loop.
  std::size_t clients = 4;
  double think_seconds = 0.0;  // mean of an exponential think time; 0 = none
};

/// Client-side view of one run.
struct WorkloadReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t parse_errors = 0;
  std::size_t unavailable = 0;  // distributed path: no replica answered
  std::size_t unsupported = 0;  // shape not answerable under rewriting
  std::size_t cache_hits = 0;
  double wall_seconds = 0.0;
  LatencyHistogram latency;  // client-observed (admission -> answer)

  [[nodiscard]] double throughput_qps() const {
    return wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds
                            : 0.0;
  }

  /// One row per metric, via util::Table.
  void print(std::ostream& os) const;
};

/// Drive `service` (either serving tier) with requests drawn uniformly
/// (seeded) from `queries`.  Blocks until every admitted request has been
/// answered.  Deterministic in which queries are issued (not in timing).
WorkloadReport run_workload(Frontend& service,
                            std::span<const std::string> queries,
                            const WorkloadOptions& options);

/// Read one query per line from `in` (blank lines and '#' comments are
/// skipped; a line ending in '\' continues on the next line so multi-line
/// SPARQL can be stored readably).  Shared by the workload driver and the
/// CLI's --queries-file flag.
[[nodiscard]] std::vector<std::string> load_query_lines(std::istream& in);

}  // namespace parowl::serve
