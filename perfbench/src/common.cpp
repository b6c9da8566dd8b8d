#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <functional>
#include <numeric>

#include "parowl/obs/trace.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu") {
    return {};
  }
  return {user + nice + system + irq + softirq + steal, steal};
}

double stolen_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t busy = b.busy - a.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(busy);
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  const double mean =
      std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  return mean > 0.0 ? *std::max_element(v.begin(), v.end()) / mean : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RowDigest digest_rows(const parowl::query::ResultSet& results,
                      parowl::rdf::TermId skip_lo,
                      parowl::rdf::TermId skip_hi) {
  RowDigest d;
  for (const auto& row : results.rows) {
    std::uint64_t h = 0x5eedULL;
    bool skip = false;
    for (const parowl::rdf::TermId id : row) {
      if (id >= skip_lo && id < skip_hi) {
        skip = true;
        break;
      }
      h = mix64(h ^ id);
    }
    if (!skip) {
      ++d.rows;
      d.sum += h;
    }
  }
  return d;
}

RowDigest digest_store(const parowl::rdf::TripleStore& store,
                       const parowl::rdf::Dictionary& dict) {
  std::vector<std::uint64_t> term_hash(dict.size() + 1, 0);
  const std::hash<std::string> hasher;
  for (parowl::rdf::TermId id = 1; id <= dict.size(); ++id) {
    term_hash[id] = mix64(hasher(dict.lexical(id)) +
                          static_cast<std::uint64_t>(dict.kind(id)));
  }
  RowDigest d;
  for (const parowl::rdf::Triple& t : store.triples()) {
    ++d.rows;
    d.sum += mix64(term_hash[t.s] + 3 * mix64(term_hash[t.p] +
                                              7 * mix64(term_hash[t.o])));
  }
  return d;
}

bool same_triples(const parowl::rdf::TripleStore& a,
                  const parowl::rdf::TripleStore& b) {
  if (a.size() != b.size()) {
    return false;
  }
  return std::all_of(a.triples().begin(), a.triples().end(),
                     [&b](const parowl::rdf::Triple& t) {
                       return b.contains(t);
                     });
}

void start_tracing() {
  parowl::obs::Tracer& tracer = parowl::obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
}

void stop_tracing(const RunConfig& config, Result& result) {
  parowl::obs::Tracer& tracer = parowl::obs::Tracer::global();
  tracer.set_enabled(false);
  if (tracer.dropped_count() > 0) {
    result.invalidate("trace dropped " +
                      std::to_string(tracer.dropped_count()) + " spans");
  }
  if (!tracer.write_file(config.trace_out)) {
    result.invalidate("cannot write trace " + config.trace_out);
  }
}

}  // namespace perfbench
