#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/ontology/ontology.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/dependency_graph.hpp"

namespace parowl::parallel {
namespace {

/// Fixture with a small LUBM data-set and its serial closure to compare
/// every parallel configuration against.
class ClusterTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  rdf::TripleStore serial;

  void SetUp() override {
    gen::LubmOptions opts;
    opts.universities = 2;
    opts.departments_per_university = 2;
    opts.faculty_per_department = 4;
    opts.students_per_faculty = 3;
    gen::generate_lubm(opts, dict, store);

    serial.insert_all(store.triples());
    reason::materialize(serial, dict, vocab, {});
  }

  /// What a cluster run charged for communication, and the sum over rounds
  /// of the largest per-worker transport time it measured.
  struct IoCharge {
    double charged = 0.0;
    double measured = 0.0;
  };

  /// Run a hash-partitioned 3-worker cluster over `transport` under an
  /// absurdly slow network model (10 ms a message, 10 kB/s).
  IoCharge run_with_slow_network(Transport& transport) {
    const rules::CompiledRules compiled =
        reason::compile_ontology(store, vocab, {});
    const partition::HashOwnerPolicy policy;
    partition::DataPartitioning dp =
        partition::partition_data(store, dict, vocab, policy, 3);
    const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
    ClusterOptions copts;
    copts.network.latency_seconds = 0.01;
    copts.network.bandwidth_bytes_per_sec = 1e4;
    Cluster cluster(transport, copts);
    WorkerOptions wopts;
    wopts.dict = &dict;
    for (std::uint32_t p = 0; p < 3; ++p) {
      cluster.load(cluster.add_worker(compiled.rules, router, wopts),
                   dp.parts[p]);
    }
    const ClusterResult result = cluster.run();
    IoCharge io{result.io_seconds, 0.0};
    for (std::size_t round = 0; round < result.rounds; ++round) {
      double slowest = 0.0;
      for (std::uint32_t w = 0; w < cluster.num_workers(); ++w) {
        const std::vector<RoundStats>& rounds = cluster.worker(w).rounds();
        if (round < rounds.size()) {
          slowest = std::max(slowest, rounds[round].io_seconds);
        }
      }
      io.measured += slowest;
    }
    return io;
  }

  void expect_equivalent(const ParallelResult& result) {
    ASSERT_TRUE(result.merged.has_value());
    const rdf::TripleStore& merged = *result.merged;
    EXPECT_EQ(merged.size(), serial.size());
    for (const rdf::Triple& t : serial.triples()) {
      ASSERT_TRUE(merged.contains(t))
          << "missing inference in parallel result";
    }
    for (const rdf::Triple& t : merged.triples()) {
      ASSERT_TRUE(serial.contains(t)) << "parallel derived extra triple";
    }
  }
};

TEST_F(ClusterTest, DataPartitionGraphPolicyMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_GE(result.cluster.rounds, 1u);
  ASSERT_TRUE(result.metrics.has_value());
  EXPECT_GE(result.metrics->total_nodes, 1u);
}

TEST_F(ClusterTest, DataPartitionHashPolicyMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, DataPartitionDomainPolicyMatchesSerial) {
  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, RulePartitionMatchesSerial) {
  ParallelOptions opts;
  opts.approach = Approach::kRulePartition;
  opts.partitions = 3;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, RulePartitionUnweightedMatchesSerial) {
  ParallelOptions opts;
  opts.approach = Approach::kRulePartition;
  opts.partitions = 2;
  opts.weighted_rule_graph = false;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, ThreadedModeMatchesSequential) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 3;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kThreaded;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, FileTransportMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  const auto spool = std::filesystem::temp_directory_path() /
                     "parowl_cluster_test_spool";
  FileTransport transport(spool, 3);
  ParallelOptions opts;
  opts.partitions = 3;
  opts.policy = &policy;
  opts.transport = &transport;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  // File transport must have actually moved bytes (unless the partitioning
  // was perfect — with 3 graph partitions over 2 universities it cannot be).
  std::uint64_t bytes = 0;
  for (std::uint32_t p = 0; p < 3; ++p) {
    bytes += transport.stats(p).bytes_sent;
  }
  EXPECT_GT(bytes, 0u);
}

TEST_F(ClusterTest, QueryDrivenWorkersMatchSerial) {
  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  opts.local_strategy = reason::Strategy::kQueryDriven;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(ClusterTest, SinglePartitionIsSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 1;
  opts.policy = &policy;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  // One partition never communicates.
  EXPECT_EQ(result.cluster.rounds, 1u);
  EXPECT_NEAR(result.output_replication, 0.0, 1e-9);
}

TEST_F(ClusterTest, BreakdownAndSimulatedTimeArePopulated) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  EXPECT_EQ(result.cluster.breakdown.size(), result.cluster.rounds);
  EXPECT_GT(result.cluster.simulated_seconds, 0.0);
  EXPECT_GT(result.cluster.reason_seconds, 0.0);
  EXPECT_GE(result.cluster.sync_seconds, 0.0);
  // Round maxima decompose the simulated time.
  double sum = 0.0;
  for (const RoundBreakdown& rb : result.cluster.breakdown) {
    sum += rb.reason_max + rb.io_max + rb.aggregate_max;
  }
  EXPECT_NEAR(sum, result.cluster.simulated_seconds, 1e-9);
}

TEST_F(ClusterTest, MergedDisabledSkipsStore) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  opts.build_merged = false;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  EXPECT_FALSE(result.merged.has_value());
  EXPECT_EQ(result.inferred, serial.size() - store.size());
}

TEST_F(ClusterTest, NetworkModelChargesCommunication) {
  // Hash partitioning guarantees cross-partition traffic; under the memory
  // transport the network model must charge it.
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.build_merged = false;
  // Absurdly slow network: communication must dominate.
  opts.network.latency_seconds = 0.01;
  opts.network.bandwidth_bytes_per_sec = 1e4;
  const ParallelResult slow = parallel_materialize(store, dict, vocab, opts);

  opts.network.latency_seconds = 1e-9;
  opts.network.bandwidth_bytes_per_sec = 1e12;
  const ParallelResult fast = parallel_materialize(store, dict, vocab, opts);

  EXPECT_GT(slow.cluster.io_seconds, fast.cluster.io_seconds * 100);
  EXPECT_GT(slow.cluster.simulated_seconds,
            fast.cluster.simulated_seconds);
}

TEST_F(ClusterTest, FileTransportsChargeMeasuredIoNotTheModel) {
  // A file transport's measured read/write/parse time is its communication
  // cost, with or without faults injected on top; the in-memory transport
  // is charged by the model.
  const auto spool = std::filesystem::temp_directory_path() /
                     ("parowl_measured_io_" + std::to_string(::getpid()));
  FileTransport file(spool, 3);
  const IoCharge by_file = run_with_slow_network(file);
  EXPECT_GT(by_file.measured, 0.0);
  EXPECT_DOUBLE_EQ(by_file.charged, by_file.measured);

  FaultSpec spec;
  spec.seed = 5;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  FileTransport faulty_file(spool / "faulty", 3);
  FaultyTransport faulty(faulty_file, spec);
  const IoCharge by_faulty = run_with_slow_network(faulty);
  EXPECT_GT(faulty.injected_faults().total(), 0u);
  EXPECT_GT(by_faulty.measured, 0.0);
  EXPECT_DOUBLE_EQ(by_faulty.charged, by_faulty.measured);

  MemoryTransport memory(3);
  const IoCharge by_model = run_with_slow_network(memory);
  // One 10 ms message latency is far above any measured in-memory send.
  EXPECT_GE(by_model.charged, 0.01);
  EXPECT_GT(by_model.charged, by_model.measured);
  std::filesystem::remove_all(spool);
}

TEST_F(ClusterTest, PerWorkerReasonTotalsExposed) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 3;
  opts.policy = &policy;
  opts.build_merged = false;
  const ParallelResult r = parallel_materialize(store, dict, vocab, opts);
  ASSERT_EQ(r.cluster.reason_seconds_per_worker.size(), 3u);
  double total = 0.0;
  for (const double t : r.cluster.reason_seconds_per_worker) {
    EXPECT_GE(t, 0.0);
    total += t;
  }
  EXPECT_GT(total, 0.0);
}

// ---------------------------------------------------------------------------
// Fault tolerance: faulty runs, checkpointing, crash recovery

TEST_F(ClusterTest, FaultyRunMatchesSerialAndReportReconciles) {
  const partition::HashOwnerPolicy policy;
  FaultSpec spec;
  spec.seed = 7;
  spec.drop = 0.3;
  spec.duplicate = 0.2;
  spec.corrupt = 0.15;
  spec.reorder = 0.25;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.faults = &spec;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);

  const RunReport& rep = result.cluster.report;
  EXPECT_GT(rep.injected.total(), 0u);
  // With no delay faults, each destructive fault costs one retransmission,
  // each duplicate one id-level discard, each corruption one checksum trip.
  EXPECT_EQ(rep.retransmissions, rep.injected.drops + rep.injected.corruptions);
  EXPECT_EQ(rep.redeliveries, rep.injected.duplicates);
  EXPECT_EQ(rep.checksum_failures, rep.injected.corruptions);
  EXPECT_FALSE(rep.recovered);
}

TEST_F(ClusterTest, DelayFaultsChargeBackoffAndStillMatchSerial) {
  const partition::HashOwnerPolicy policy;
  FaultSpec spec;
  spec.seed = 11;
  spec.drop = 0.1;
  spec.delay = 0.3;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.faults = &spec;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  const RunReport& rep = result.cluster.report;
  if (rep.retransmissions > 0) {
    EXPECT_GT(rep.backoff_seconds, 0.0);
  }
}

TEST_F(ClusterTest, ThreadedFaultyRunMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  FaultSpec spec;
  spec.seed = 13;
  spec.drop = 0.25;
  spec.duplicate = 0.15;
  spec.corrupt = 0.1;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.faults = &spec;
  opts.mode = ExecutionMode::kThreaded;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_GT(result.cluster.report.injected.total(), 0u);
}

TEST_F(ClusterTest, CheckpointsAreWrittenAtRoundGranularity) {
  const partition::HashOwnerPolicy policy;
  const auto ckpt_dir = std::filesystem::temp_directory_path() /
                        ("parowl_ckpt_write_" + std::to_string(::getpid()));
  ParallelOptions opts;
  opts.partitions = 3;
  opts.policy = &policy;
  opts.checkpoint_dir = ckpt_dir.string();
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_GT(result.cluster.report.checkpoints_written, 0u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
    files += entry.path().extension() == ".ckpt";
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_EQ(files, result.cluster.report.checkpoints_written);
  std::filesystem::remove_all(ckpt_dir);
}

TEST_F(ClusterTest, FailedCheckpointIsNotCounted) {
  const partition::HashOwnerPolicy policy;
  for (const ExecutionMode mode :
       {ExecutionMode::kSequentialSimulated, ExecutionMode::kThreaded}) {
    const auto ckpt_dir =
        std::filesystem::temp_directory_path() /
        ("parowl_ckpt_fail_" + std::to_string(::getpid()));
    std::filesystem::remove_all(ckpt_dir);
    // A directory where worker 0's round-0 temporary file goes fails that
    // one write; the run carries on without it.
    std::filesystem::create_directories(ckpt_dir / "w0_r0.ckpt.tmp");
    ParallelOptions opts;
    opts.partitions = 3;
    opts.policy = &policy;
    opts.mode = mode;
    opts.checkpoint_dir = ckpt_dir.string();
    const ParallelResult result =
        parallel_materialize(store, dict, vocab, opts);
    expect_equivalent(result);
    EXPECT_FALSE(std::filesystem::exists(ckpt_dir / "w0_r0.ckpt"));
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
      files += entry.path().extension() == ".ckpt";
    }
    EXPECT_GT(files, 0u);
    EXPECT_EQ(result.cluster.report.checkpoints_written, files);
    std::filesystem::remove_all(ckpt_dir);
  }
}

TEST_F(ClusterTest, AsyncCrashWaitsForACompleteCheckpointCut) {
  // Worker 0's file of the first epoch cut cannot be written, so that cut
  // is incomplete; the injected crash must wait for a cut recovery can
  // load, or not fire at all.
  const partition::HashOwnerPolicy policy;
  const auto ckpt_dir = std::filesystem::temp_directory_path() /
                        ("parowl_ckpt_cut_" + std::to_string(::getpid()));
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir / "w0_r1.ckpt.tmp");
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  opts.checkpoint_dir = ckpt_dir.string();
  opts.fault_tolerance.crash_at_round = 1;
  opts.fault_tolerance.crash_worker = 1;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  if (result.cluster.report.recovered) {
    EXPECT_GT(result.cluster.report.recovered_from_round, 1);
  }
  std::filesystem::remove_all(ckpt_dir);
}

TEST_F(ClusterTest, KilledWorkerRecoversFromCheckpointAndMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  const auto ckpt_dir = std::filesystem::temp_directory_path() /
                        ("parowl_ckpt_crash_" + std::to_string(::getpid()));
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.checkpoint_dir = ckpt_dir.string();
  opts.fault_tolerance.crash_at_round = 1;
  opts.fault_tolerance.crash_worker = 1;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_TRUE(result.cluster.report.recovered);
  EXPECT_EQ(result.cluster.report.recovered_from_round, 0);
  EXPECT_GT(result.cluster.report.checkpoints_written, 0u);
  std::filesystem::remove_all(ckpt_dir);
}

TEST_F(ClusterTest, CrashWithoutCheckpointDirIsFatal) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  opts.fault_tolerance.crash_at_round = 1;
  opts.fault_tolerance.crash_worker = 0;
  EXPECT_THROW(parallel_materialize(store, dict, vocab, opts),
               SimulatedCrash);
}

TEST_F(ClusterTest, AsyncFaultHooksPreserveFixpoint) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult clean =
      parallel_materialize(store, dict, vocab, opts);

  FaultSpec spec;
  spec.seed = 3;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.corrupt = 0.1;
  spec.delay = 0.1;
  opts.faults = &spec;
  const ParallelResult faulty =
      parallel_materialize(store, dict, vocab, opts);

  // Async delivery order differs under faults, but the fixpoint is a set:
  // the merged closures must be identical (and equal to serial).
  expect_equivalent(clean);
  expect_equivalent(faulty);
  EXPECT_GT(faulty.cluster.report.injected.total(), 0u);
  EXPECT_GT(faulty.cluster.report.retransmissions, 0u);
  EXPECT_EQ(clean.cluster.report.injected.total(), 0u);
}

TEST_F(ClusterTest, MdcParallelMatchesSerial) {
  rdf::TripleStore mdc;
  gen::MdcOptions mopts;
  mopts.fields = 3;
  mopts.wells_per_reservoir = 4;
  gen::generate_mdc(mopts, dict, mdc);

  rdf::TripleStore mdc_serial;
  mdc_serial.insert_all(mdc.triples());
  reason::materialize(mdc_serial, dict, vocab, {});

  const partition::DomainOwnerPolicy policy(&gen::mdc_field_key);
  ParallelOptions opts;
  opts.partitions = 3;
  opts.policy = &policy;
  const ParallelResult result = parallel_materialize(mdc, dict, vocab, opts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), mdc_serial.size());
  for (const rdf::Triple& t : mdc_serial.triples()) {
    ASSERT_TRUE(result.merged->contains(t));
  }
}

// -- End-of-run aggregation ---------------------------------------------
//
// The master's union count, `inferred` and merged store, across every
// approach, the deterministic executors and k in {1, 2, 4}, on LUBM(2)
// and UOBM(1).

enum class Kb { kLubm2, kUobm1 };

struct AggregationCase {
  Kb kb;
  Approach approach;
  ExecutionMode mode;
  std::uint32_t k;
};

// The listed test name, e.g. "uobm1_hybrid_threaded_k4".
void PrintTo(const AggregationCase& c, std::ostream* os) {
  *os << (c.kb == Kb::kLubm2 ? "lubm2" : "uobm1")
      << (c.approach == Approach::kDataPartition   ? "_data"
          : c.approach == Approach::kRulePartition ? "_rule"
                                                   : "_hybrid")
      << (c.mode == ExecutionMode::kSequentialSimulated ? "_sequential"
          : c.mode == ExecutionMode::kThreaded          ? "_threaded"
                                                        : "_async")
      << "_k" << c.k;
}

std::vector<AggregationCase> aggregation_cases() {
  std::vector<AggregationCase> cases;
  for (const Kb kb : {Kb::kLubm2, Kb::kUobm1}) {
    for (const Approach approach :
         {Approach::kDataPartition, Approach::kRulePartition,
          Approach::kHybrid}) {
      for (const ExecutionMode mode :
           {ExecutionMode::kSequentialSimulated, ExecutionMode::kThreaded,
            ExecutionMode::kAsync}) {
        for (const std::uint32_t k : {1u, 2u, 4u}) {
          cases.push_back({kb, approach, mode, k});
        }
      }
    }
  }
  return cases;
}

/// One generated KB and its serial closure, built once per test binary.
struct AggregationKb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  rdf::TripleStore closure;
};

const AggregationKb& aggregation_kb(Kb kb) {
  static AggregationKb kbs[2];
  static bool built[2] = {false, false};
  const auto i = static_cast<std::size_t>(kb);
  AggregationKb& k = kbs[i];
  if (!built[i]) {
    if (kb == Kb::kLubm2) {
      gen::LubmOptions o;
      o.universities = 2;
      gen::generate_lubm(o, k.dict, k.store);
    } else {
      gen::UobmOptions o;
      o.base.universities = 1;
      o.hometowns = 10;
      gen::generate_uobm(o, k.dict, k.store);
    }
    k.closure.insert_all(k.store.triples());
    reason::materialize(k.closure, k.dict, k.vocab, {});
    built[i] = true;
  }
  return k;
}

/// The workers parallel_materialize builds for `approach`, added to
/// `cluster` and loaded, so the test can read their logs.
void add_workers(Cluster& cluster, const AggregationKb& kb,
                 const partition::OwnerPolicy& policy, Approach approach,
                 std::uint32_t k, std::uint32_t rule_parts,
                 std::vector<std::vector<rdf::Triple>>& bases) {
  const rules::CompiledRules compiled =
      reason::compile_ontology(kb.store, kb.vocab, {});
  WorkerOptions wopts;
  wopts.dict = &kb.dict;
  if (approach == Approach::kDataPartition) {
    partition::DataPartitioning dp =
        partition::partition_data(kb.store, kb.dict, kb.vocab, policy, k);
    bases = std::move(dp.parts);
    const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
    for (std::uint32_t p = 0; p < k; ++p) {
      cluster.load(cluster.add_worker(compiled.rules, router, wopts),
                   bases[p]);
    }
    return;
  }
  const rules::DependencyGraph dep =
      rules::build_dependency_graph(compiled.rules, &kb.store);
  if (approach == Approach::kRulePartition) {
    partition::RulePartitioning rp =
        partition::partition_rules(compiled.rules, dep, k);
    bases.assign(1, ontology::split_schema(kb.store, kb.vocab).instance);
    const auto router = std::make_shared<RuleMatchRouter>(rp.parts);
    for (std::uint32_t p = 0; p < k; ++p) {
      cluster.load(cluster.add_worker(rp.parts[p], router, wopts), bases[0]);
    }
    return;
  }
  partition::DataPartitioning dp =
      partition::partition_data(kb.store, kb.dict, kb.vocab, policy, k);
  bases = std::move(dp.parts);
  const partition::RulePartitioning rp =
      partition::partition_rules(compiled.rules, dep, rule_parts);
  const auto router =
      std::make_shared<HybridRouter>(std::move(dp.owners), rp.parts);
  for (std::uint32_t d = 0; d < k; ++d) {
    for (std::uint32_t j = 0; j < rule_parts; ++j) {
      cluster.load(cluster.add_worker(rp.parts[j], router, wopts), bases[d]);
    }
  }
}

class ClusterAggregationTest
    : public ::testing::TestWithParam<AggregationCase> {};

TEST_P(ClusterAggregationTest, MergedInferredAndUnionMatchTheOracles) {
  const auto [which, approach, mode, k] = GetParam();
  const AggregationKb& kb = aggregation_kb(which);
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = k;
  opts.approach = approach;
  opts.policy = &policy;
  opts.mode = mode;

  // The merged store is the serial closure, as a set, and `inferred` is
  // what it adds to the input.
  const ParallelResult first =
      parallel_materialize(kb.store, kb.dict, kb.vocab, opts);
  ASSERT_TRUE(first.merged.has_value());
  const rdf::TripleStore& merged = *first.merged;
  ASSERT_EQ(merged.size(), kb.closure.size());
  for (const rdf::Triple& t : kb.closure.triples()) {
    ASSERT_TRUE(merged.contains(t));
  }
  EXPECT_EQ(first.inferred, kb.closure.size() - kb.store.size());

  // A second run gives the same merged log, byte for byte.
  const ParallelResult second =
      parallel_materialize(kb.store, kb.dict, kb.vocab, opts);
  ASSERT_TRUE(second.merged.has_value());
  EXPECT_TRUE(second.merged->triples() == merged.triples());
  EXPECT_EQ(second.cluster.union_results, first.cluster.union_results);

  // Without the merged store, `inferred` is counted, not built.
  opts.build_merged = false;
  const ParallelResult counted =
      parallel_materialize(kb.store, kb.dict, kb.vocab, opts);
  EXPECT_FALSE(counted.merged.has_value());
  EXPECT_EQ(counted.inferred, first.inferred);
  EXPECT_EQ(counted.cluster.union_results, first.cluster.union_results);

  // union_results against a node-based set over the workers' derived logs,
  // on a cluster built the way parallel_materialize builds it.
  MemoryTransport transport(approach == Approach::kHybrid
                                ? k * opts.rule_partitions
                                : k);
  ClusterOptions copts;
  copts.mode = mode;
  Cluster cluster(transport, copts);
  std::vector<std::vector<rdf::Triple>> bases;
  add_workers(cluster, kb, policy, approach, k, opts.rule_partitions, bases);
  const ClusterResult direct = cluster.run();
  std::unordered_set<rdf::Triple, rdf::TripleHash> derived;
  std::size_t results = 0;
  for (std::uint32_t w = 0; w < cluster.num_workers(); ++w) {
    const Worker& worker = cluster.worker(w);
    const std::vector<rdf::Triple>& log = worker.store().triples();
    for (std::size_t i = worker.base_size(); i < log.size(); ++i) {
      derived.insert(log[i]);
      ++results;
    }
  }
  EXPECT_EQ(direct.union_results, derived.size());
  EXPECT_EQ(first.cluster.union_results, derived.size());
  std::size_t summed = 0;
  for (const std::size_t r : first.cluster.results_per_partition) {
    summed += r;
  }
  EXPECT_EQ(summed, results);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ClusterAggregationTest,
    ::testing::ValuesIn(aggregation_cases()),
    [](const ::testing::TestParamInfo<AggregationCase>& c) {
      return ::testing::PrintToString(c.param);
    });

}  // namespace
}  // namespace parowl::parallel
