// uobm-cluster: streaming partition, then the k-worker closure.
//
// Set-up ingests UOBM(kScale) from N-Triples.  The timed path mirrors the
// CLI's `run --partitioner hdrf`: make_partitioner -> ingest over the store
// log -> finalize -> FixedOwnerPolicy, then parallel::parallel_materialize
// with data partitioning, ExecutionMode::kThreaded, k = 4 and the merged
// output built.  Every merged closure must equal the single-store closure
// computed at set-up.

#include <fstream>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/partition/partitioner.hpp"
#include "parowl/partition/rebalance.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/reason/materialize.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kScale = 10;  // UOBM universities
constexpr std::uint32_t kWorkers = 4;
constexpr unsigned kIngestThreads = 4;
constexpr int kSetupReps = 25;  // one ingest is only ~50 ms
constexpr std::size_t kMinReps = 3;

struct ClusterRun {
  double wall = 0.0;
  double cpu = 0.0;
  double stolen = 0.0;  // stolen_share over the timed path
  double plan_wall = 0.0;
  parowl::partition::PartitionPlan plan;  // owners moved out
  parowl::parallel::ParallelResult result;
};

ClusterRun cluster_once(const parowl::rdf::TripleStore& store,
                        const parowl::rdf::Dictionary& dict,
                        const parowl::ontology::Vocabulary& vocab,
                        bool timed_span) {
  ClusterRun run;
  std::optional<parowl::obs::Span> timed;
  if (timed_span) {
    timed.emplace("bench.timed");
  }
  const Clock::time_point t0 = Clock::now();
  const double c0 = cpu_seconds();
  const CpuTicks k0 = cpu_ticks();
  std::unique_ptr<parowl::partition::OwnerPolicy> policy;
  {
    parowl::obs::Span span("partition.call.stream_hdrf");
    parowl::partition::PartitionerOptions popts;
    popts.kind = parowl::partition::PartitionerKind::kHdrf;
    popts.type_predicate = vocab.rdf_type;
    const auto partitioner =
        parowl::partition::make_partitioner(popts, dict, kWorkers);
    partitioner->ingest(store.triples());
    run.plan = partitioner->finalize();
    policy = std::make_unique<parowl::partition::FixedOwnerPolicy>(
        std::move(run.plan.owners), run.plan.algorithm);
  }
  run.plan_wall = seconds_between(t0, Clock::now());
  {
    parowl::obs::Span span("parallel.call.parallel_materialize");
    parowl::parallel::ParallelOptions opts;
    opts.partitions = kWorkers;
    opts.approach = parowl::parallel::Approach::kDataPartition;
    opts.mode = parowl::parallel::ExecutionMode::kThreaded;
    opts.policy = policy.get();
    opts.build_merged = true;
    run.result = parowl::parallel::parallel_materialize(store, dict, vocab,
                                                        opts);
  }
  run.wall = seconds_between(t0, Clock::now());
  run.cpu = cpu_seconds() - c0;
  run.stolen = stolen_share(k0, cpu_ticks());
  return run;
}

}  // namespace

Result run_uobm_cluster(const RunConfig& config) {
  Result result;
  const std::string path = config.work_dir + "/uobm-cluster.nt";
  {
    parowl::rdf::Dictionary dict;
    parowl::rdf::TripleStore store;
    parowl::gen::UobmOptions options;
    options.base.universities = kScale;
    options.base.seed = config.seed;
    options.hometowns = 10 * kScale;  // as `parowl gen uobm`
    parowl::gen::generate_uobm(options, dict, store);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    parowl::rdf::write_ntriples(out, store, dict);
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write " + path);
    }
  }

  // Set-up: ingest the text (timed several times; the last load is kept).
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  std::optional<parowl::rdf::Dictionary> dict;
  std::optional<parowl::rdf::TripleStore> store;
  // One set-up is too short for /proc/stat's 10 ms ticks, so the stolen
  // share is taken over all of them.
  const CpuTicks setup_k0 = cpu_ticks();
  for (int i = 0; i < kSetupReps; ++i) {
    store.reset();
    dict.reset();
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    dict.emplace();
    store.emplace();
    parowl::rdf::IngestStats stats;
    parowl::rdf::IngestOptions options;
    options.threads = kIngestThreads;
    std::string error;
    if (!parowl::rdf::ingest_file(path, *dict, *store, stats, options,
                                  &error)) {
      throw std::runtime_error("ingest failed: " + error);
    }
    setup_cpu.push_back(cpu_seconds() - c0);
    setup_wall.push_back(seconds_between(t0, Clock::now()));
  }
  const double setup_stolen = stolen_share(setup_k0, cpu_ticks());
  const parowl::ontology::Vocabulary vocab(*dict);

  // Reference: the single-store closure of the same input, serial.
  parowl::rdf::TripleStore single = *store;
  const Clock::time_point s0 = Clock::now();
  const parowl::reason::MaterializeResult single_result =
      parowl::reason::materialize(single, *dict, vocab);
  const double single_s = seconds_between(s0, Clock::now());

  std::vector<ClusterRun> runs;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  while (runs.size() < kMinReps || Clock::now() < deadline) {
    runs.push_back(cluster_once(*store, *dict, vocab, false));
    ++result.attempted;
    const auto& merged = runs.back().result.merged;
    if (!merged || !same_triples(*merged, single)) {
      result.fail("merged closure differs from the single-store closure (" +
                  std::to_string(merged ? merged->size() : 0) + " vs " +
                  std::to_string(single.size()) + " triples)");
    }
    runs.back().result.merged.reset();  // keep memory flat across reps
  }

  std::vector<double> wall, net, stolen, cpu, plan, distribute, reason, io, sync, aggregate,
      merge;
  for (const ClusterRun& r : runs) {
    wall.push_back(r.wall);
    net.push_back(net_of_steal(r.wall, r.stolen));
    stolen.push_back(r.stolen);
    cpu.push_back(r.cpu);
    plan.push_back(r.plan_wall);
    distribute.push_back(r.result.partition_seconds);
    reason.push_back(r.result.cluster.reason_seconds);
    io.push_back(r.result.cluster.io_seconds);
    sync.push_back(r.result.cluster.sync_seconds);
    aggregate.push_back(r.result.cluster.aggregate_seconds);
    merge.push_back(r.result.merge_seconds);
  }
  const double cluster_s = median(wall);
  result.add("op_wall_s", median(net), "s");
  result.add("cluster_s", cluster_s, "s");
  result.add("host.stolen_share", median(stolen), "ratio");
  result.add("cpu_per_op_s", median(cpu), "s");
  result.add("setup_s", net_of_steal(median(setup_wall), setup_stolen), "s");
  result.add("setup_wall_s", median(setup_wall), "s");
  result.add("setup_cpu_s", median(setup_cpu), "s");
  result.add("bench.samples", static_cast<double>(runs.size()), "count");

  const ClusterRun& last = runs.back();
  const parowl::partition::PartitionMetrics& pm = last.plan.metrics;
  std::vector<double> weights(pm.partition_weights.begin(),
                              pm.partition_weights.end());
  result.add("partition.plan_s", median(plan), "s");
  result.add("partition.replication_factor", pm.replication_factor, "ratio");
  result.add("partition.edge_cut", static_cast<double>(pm.edge_cut), "count");
  result.add("partition.balance", max_over_mean(weights), "ratio");
  result.add("partition.peak_state_entries",
             static_cast<double>(last.plan.peak_state_entries), "count");

  const parowl::parallel::ClusterResult& c = last.result.cluster;
  std::size_t exchanged = 0;
  for (const auto& round : c.breakdown) {
    exchanged += round.tuples_exchanged;
  }
  result.add("parallel.distribute_s", median(distribute), "s");
  result.add("parallel.reason_s", median(reason), "s");
  result.add("parallel.io_s", median(io), "s");
  result.add("parallel.sync_s", median(sync), "s");
  result.add("parallel.aggregate_s", median(aggregate), "s");
  result.add("parallel.merge_s", median(merge), "s");
  result.add("parallel.rounds", static_cast<double>(c.rounds), "count");
  result.add("parallel.tuples_exchanged", static_cast<double>(exchanged),
             "count");
  result.add("parallel.batches_sent",
             static_cast<double>(c.report.batches_sent), "count");
  result.add("parallel.retransmissions",
             static_cast<double>(c.report.retransmissions), "count");
  result.add("parallel.worker_skew", max_over_mean(c.reason_seconds_per_worker),
             "ratio");
  result.add("parallel.input_replication",
             last.result.metrics ? last.result.metrics->input_replication : 0.0,
             "ratio");
  result.add("parallel.output_replication", last.result.output_replication,
             "ratio");
  result.add("parallel.speedup_vs_single", single_s / cluster_s, "ratio");
  result.add("reason.compile_s", single_result.compile_seconds, "s");
  result.add("reason.closure_s", single_result.reason_seconds, "s");
  result.add("reason.iterations",
             static_cast<double>(single_result.iterations), "count");
  result.add("reason.inferred", static_cast<double>(single_result.inferred),
             "count");

  if (config.trace) {
    start_tracing();
    const ClusterRun traced = cluster_once(*store, *dict, vocab, true);
    stop_tracing(config, result);
    result.add("trace.wall_s", traced.wall, "s");
    result.add("trace.overhead_s", traced.wall - cluster_s, "s");
  }
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
