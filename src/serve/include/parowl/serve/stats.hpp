#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>

#include "parowl/obs/metrics.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/util/table.hpp"

namespace parowl::serve {

/// Log-bucketed latency histogram.
///
/// This was the serving layer's histogram first; it is now the shared
/// obs::Histogram (same buckets, same API) so every layer records latency
/// into one shape and the MetricsRegistry can export it.
using LatencyHistogram = obs::Histogram;

/// Cache counters (see ResultCache).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      // LRU capacity evictions
  std::uint64_t invalidations = 0;  // dropped by update-delta footprints
  std::uint64_t rejected = 0;       // stale inserts refused after an update

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const CacheCounters& c);

/// The request counters both serving tiers keep (serve::Frontend); each
/// tier's stats extend this struct with what only it observes.
struct RequestStats {
  std::uint64_t completed = 0;          // executed and answered
  std::uint64_t shed = 0;               // rejected at admission (queue full)
  std::uint64_t deadline_exceeded = 0;  // expired before a worker got to it
  std::uint64_t parse_errors = 0;
  std::uint64_t unavailable = 0;  // distributed tier: a partition never answered
  std::uint64_t unsupported = 0;  // shape not answerable under rewriting
  CacheCounters cache;
  LatencyHistogram latency;  // service-side, admission -> completion

  [[nodiscard]] std::uint64_t total_requests() const {
    return completed + shed + deadline_exceeded + parse_errors + unavailable +
           unsupported;
  }
  [[nodiscard]] double shed_rate() const {
    const std::uint64_t total = total_requests();
    return total == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(total);
  }
};

[[nodiscard]] obs::FieldList fields(const RequestStats& s);

/// The single-store service's view (QueryService::stats).
struct ServiceStats : RequestStats {
  std::uint64_t updates_applied = 0;
  std::uint64_t snapshot_version = 0;
};

[[nodiscard]] obs::FieldList fields(const ServiceStats& s);

/// "123.4 us" / "5.67 ms" / "1.23 s" — for latency cells.
[[nodiscard]] std::string fmt_latency(double seconds);

/// Render `stats` (RequestStats or a tier's extension of it) as a
/// two-column util::Table ("metric", "value"): the protocol fields plus
/// human-formatted latency percentiles.
template <obs::Reportable Stats>
void print(const Stats& stats, std::ostream& os) {
  util::Table table({"metric", "value"});
  obs::print(stats, table);
  for (const auto& [label, q] : {std::pair{"p50 latency", 0.50},
                                 std::pair{"p95 latency", 0.95},
                                 std::pair{"p99 latency", 0.99}}) {
    table.add_row({label, fmt_latency(stats.latency.percentile_seconds(q))});
  }
  table.print(os);
}

}  // namespace parowl::serve
