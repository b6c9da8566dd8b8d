#pragma once

// Shared pieces of the benchmark program: clocks, exact percentiles over raw
// samples, order-independent digests for answer checks, and the result
// record every workload fills in.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "parowl/query/bgp.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds this process has used (all threads).  The kernel leaves out
/// time the hypervisor stole from the vCPUs, so on a shared VM this stays
/// repeatable where wall time does not.
[[nodiscard]] double cpu_seconds();

/// Busy and stolen ticks of all vCPUs so far, from /proc/stat.  "busy"
/// counts every state but idle and iowait, stolen ticks included.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// The share of the busy vCPU time between `a` and `b` that the hypervisor
/// gave to other guests (0 when nothing ran).
[[nodiscard]] double stolen_share(const CpuTicks& a, const CpuTicks& b);

/// Wall seconds net of steal: `wall` scaled by the share of busy vCPU time
/// the guest kept.  On a shared host the stolen share swings from ~5% to
/// ~40% within minutes and stretches every wall time with it; the net
/// figure stays comparable across those swings while still falling when
/// the program gets faster or more parallel.
[[nodiscard]] inline double net_of_steal(double wall, double stolen) {
  return wall * (1.0 - stolen);
}

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, the same rule as Python's statistics.quantiles "inclusive").
/// Returns 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// max(v) / mean(v), the skew of per-partition or per-worker loads (0 for
/// an empty or all-zero sample).
[[nodiscard]] double max_over_mean(const std::vector<double>& v);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// splitmix64 finaliser.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Order-independent digest of a result table: row count plus the sum of
/// per-row hashes (a multiset hash, so row order never matters).
struct RowDigest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  friend bool operator==(const RowDigest&, const RowDigest&) = default;
};

/// Digest `results`, skipping every row that names a term id in
/// [skip_lo, skip_hi) (pass an empty range to keep all rows).
[[nodiscard]] RowDigest digest_rows(const parowl::query::ResultSet& results,
                                    parowl::rdf::TermId skip_lo = 0,
                                    parowl::rdf::TermId skip_hi = 0);

/// Order-independent digest of a store over the lexical forms of its terms,
/// so two stores built with different term ids still compare equal.
[[nodiscard]] RowDigest digest_store(const parowl::rdf::TripleStore& store,
                                     const parowl::rdf::Dictionary& dict);

/// True iff `a` and `b` hold the same set of triples (same dictionary).
[[nodiscard]] bool same_triples(const parowl::rdf::TripleStore& a,
                                const parowl::rdf::TripleStore& b);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `failed` counts failed operations (shed,
/// deadline, parse error, unsupported, unavailable, wrong answer, closure
/// mismatch); `valid` is false when a validity check (e.g. generator lag)
/// says the figures must not be used.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why, std::uint64_t count = 1) {
    failed += count;
    problems.push_back(std::move(why));
  }
  void invalidate(std::string why) {
    valid = false;
    problems.push_back(std::move(why));
  }
};

/// Arguments every workload receives.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch files (generated inputs, snapshots)
  std::string trace_out;  // Chrome trace of the traced section
};

Result run_lubm_build(const RunConfig& config);
Result run_uobm_cluster(const RunConfig& config);
Result run_lubm_serve_rw(const RunConfig& config);
Result run_lubm_serve_dist(const RunConfig& config);

/// Enable span collection for the traced section only.  The section's
/// outermost span is named "bench.timed"; run.py takes its track as the
/// driving thread and its interval as the traced wall time.
void start_tracing();
void stop_tracing(const RunConfig& config, Result& result);

}  // namespace perfbench
