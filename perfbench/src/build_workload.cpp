// lubm-build: text ingest, then the single-store closure.
//
// Set-up writes LUBM(kScale) from the seed as N-Triples.  The timed path is
// rdf::ingest_file (4 threads) followed by reason::materialize (4 threads),
// repeated until the run's time is spent.  Every repetition's closure must
// match, by size and by an order-independent lexical digest, the closure a
// serial (1-thread) ingest and materialize produced at set-up.

#include <fstream>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/reason/materialize.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kScale = 200;  // LUBM universities
constexpr unsigned kThreads = 4;
constexpr int kSetupReps = 5;
constexpr std::size_t kMinReps = 3;

struct Build {
  double wall = 0.0;
  double cpu = 0.0;
  double stolen = 0.0;  // stolen_share over the timed path
  double ingest = 0.0;
  parowl::rdf::IngestStats ingest_stats;
  parowl::reason::MaterializeResult closure;
  std::size_t closure_size = 0;
  RowDigest digest;
};

/// One ingest + closure.
Build build_once(const std::string& path, unsigned threads, bool timed_span) {
  Build b;
  parowl::rdf::Dictionary dict;
  parowl::rdf::TripleStore store;
  {
    std::optional<parowl::obs::Span> timed;
    if (timed_span) {
      timed.emplace("bench.timed");
    }
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    const CpuTicks k0 = cpu_ticks();
    {
      parowl::obs::Span span("rdf.call.ingest_file");
      parowl::rdf::IngestOptions options;
      options.threads = threads;
      std::string error;
      if (!parowl::rdf::ingest_file(path, dict, store, b.ingest_stats,
                                    options, &error)) {
        throw std::runtime_error("ingest failed: " + error);
      }
    }
    b.ingest = seconds_between(t0, Clock::now());
    parowl::ontology::Vocabulary vocab(dict);
    {
      parowl::obs::Span span("reason.call.materialize");
      parowl::reason::MaterializeOptions options;
      options.threads = threads;
      b.closure = parowl::reason::materialize(store, dict, vocab, options);
    }
    b.wall = seconds_between(t0, Clock::now());
    b.cpu = cpu_seconds() - c0;
    b.stolen = stolen_share(k0, cpu_ticks());
  }
  b.closure_size = store.size();
  b.digest = digest_store(store, dict);
  return b;
}

}  // namespace

Result run_lubm_build(const RunConfig& config) {
  Result result;
  const std::string path = config.work_dir + "/lubm-build.nt";

  // Set-up: the generator writes the input text.  This workload has no
  // other set-up, so setup_s times the generator and the N-Triples writer.
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  // The stolen share is taken over all set-ups together.
  const CpuTicks setup_k0 = cpu_ticks();
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    parowl::rdf::Dictionary dict;
    parowl::rdf::TripleStore store;
    parowl::gen::LubmOptions options;
    options.universities = kScale;
    options.seed = config.seed;
    parowl::gen::generate_lubm(options, dict, store);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    parowl::rdf::write_ntriples(out, store, dict);
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write " + path);
    }
    setup_cpu.push_back(cpu_seconds() - c0);
    setup_wall.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_stolen = stolen_share(setup_k0, cpu_ticks());

  // Reference closure: serial ingest, serial closure.
  const Build reference = build_once(path, 1, false);

  std::vector<Build> builds;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  while (builds.size() < kMinReps || Clock::now() < deadline) {
    builds.push_back(build_once(path, kThreads, false));
    ++result.attempted;
    if (builds.back().closure_size != reference.closure_size ||
        !(builds.back().digest == reference.digest)) {
      result.fail("closure mismatch: " +
                  std::to_string(builds.back().closure_size) + " vs " +
                  std::to_string(reference.closure_size) + " triples");
    }
  }

  std::vector<double> wall;
  std::vector<double> net;
  std::vector<double> stolen;
  std::vector<double> cpu;
  std::vector<double> ingest, read, parse, merge, mbps, compile, closure;
  for (const Build& b : builds) {
    wall.push_back(b.wall);
    net.push_back(net_of_steal(b.wall, b.stolen));
    stolen.push_back(b.stolen);
    cpu.push_back(b.cpu);
    ingest.push_back(b.ingest);
    read.push_back(b.ingest_stats.read_seconds);
    parse.push_back(b.ingest_stats.parse_seconds);
    merge.push_back(b.ingest_stats.merge_seconds);
    mbps.push_back(static_cast<double>(b.ingest_stats.bytes) / 1e6 / b.ingest);
    compile.push_back(b.closure.compile_seconds);
    closure.push_back(b.closure.reason_seconds);
  }
  result.add("op_wall_s", median(net), "s");
  result.add("build_s", median(wall), "s");
  result.add("host.stolen_share", median(stolen), "ratio");
  result.add("cpu_per_op_s", median(cpu), "s");
  result.add("setup_s", net_of_steal(median(setup_wall), setup_stolen), "s");
  result.add("setup_wall_s", median(setup_wall), "s");
  result.add("setup_cpu_s", median(setup_cpu), "s");
  result.add("bench.samples", static_cast<double>(builds.size()), "count");
  result.add("rdf.ingest_s", median(ingest), "s");
  result.add("rdf.read_s", median(read), "s");
  result.add("rdf.parse_s", median(parse), "s");
  result.add("rdf.merge_s", median(merge), "s");
  result.add("rdf.ingest_mb_per_s", median(mbps), "MB/s");
  result.add("reason.compile_s", median(compile), "s");
  result.add("reason.closure_s", median(closure), "s");
  result.add("reason.iterations",
             static_cast<double>(reference.closure.iterations), "count");
  result.add("reason.inferred",
             static_cast<double>(reference.closure.inferred), "count");

  if (config.trace) {
    start_tracing();
    const Build traced = build_once(path, kThreads, true);
    stop_tracing(config, result);
    result.add("trace.wall_s", traced.wall, "s");
    result.add("trace.overhead_s", traced.wall - median(wall), "s");
  }
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
