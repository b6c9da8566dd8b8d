#include "parowl/serve/stats.hpp"

namespace parowl::serve {

std::string fmt_latency(double seconds) {
  if (seconds < 1e-3) {
    return util::fmt_double(seconds * 1e6, 1) + " us";
  }
  if (seconds < 1.0) {
    return util::fmt_double(seconds * 1e3, 2) + " ms";
  }
  return util::fmt_double(seconds, 2) + " s";
}

obs::FieldList fields(const CacheCounters& c) {
  return {
      {"cache_hits", c.hits},
      {"cache_misses", c.misses},
      {"cache_hit_rate", c.hit_rate()},
      {"cache_evictions", c.evictions},
      {"cache_invalidations", c.invalidations},
      {"cache_rejected", c.rejected},
  };
}

obs::FieldList fields(const RequestStats& s) {
  obs::FieldList out = {
      {"requests", s.total_requests()},
      {"completed", s.completed},
      {"shed", s.shed},
      {"deadline_exceeded", s.deadline_exceeded},
      {"parse_errors", s.parse_errors},
      {"unavailable", s.unavailable},
      {"unsupported", s.unsupported},
      {"shed_rate", s.shed_rate()},
      {"p50_latency_seconds", s.latency.percentile_seconds(0.50)},
      {"p95_latency_seconds", s.latency.percentile_seconds(0.95)},
      {"p99_latency_seconds", s.latency.percentile_seconds(0.99)},
  };
  for (obs::Field& f : fields(s.cache)) {
    out.push_back(std::move(f));
  }
  return out;
}

obs::FieldList fields(const ServiceStats& s) {
  obs::FieldList out = fields(static_cast<const RequestStats&>(s));
  out.emplace_back("updates_applied", s.updates_applied);
  out.emplace_back("snapshot_version", s.snapshot_version);
  return out;
}

}  // namespace parowl::serve
