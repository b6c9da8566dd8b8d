// Sync/async equivalence harness: the asynchronous executor (kAsync /
// kAsyncThreaded) drops the round barrier, so per-worker store logs are no
// longer *order*-identical to the synchronous run — but OWL-Horst closure
// is monotone and confluent, so the final per-worker tuple SETS (and hence
// the sorted logs, the union, and the per-partition result counts) are
// interleaving-independent.  The sweep below pins exactly that invariant
// across partition counts, both transports, the PR 3 fault-schedule
// matrix, steal on/off, and a kill/restore mid-run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/parallel/cluster.hpp"
#include "parowl/parallel/router.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {
namespace {

/// The interleaving-independent closure fingerprint: per-worker store logs
/// sorted into canonical order, plus the derived aggregates.
struct SortedFingerprint {
  std::vector<std::vector<rdf::Triple>> logs;  // each sorted
  std::vector<std::size_t> results_per_partition;
  std::size_t union_results = 0;
};

class AsyncEquivalenceTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  std::optional<rules::CompiledRules> compiled;
  partition::HashOwnerPolicy policy;
  std::uint32_t unique_dirs = 0;

  void SetUp() override {
    gen::LubmOptions opts;
    opts.universities = 2;
    opts.departments_per_university = 2;
    opts.faculty_per_department = 3;
    opts.students_per_faculty = 2;
    gen::generate_lubm(opts, dict, store);
    compiled = reason::compile_ontology(store, vocab, {});
  }

  std::filesystem::path scratch_dir(const std::string& tag) {
    return std::filesystem::temp_directory_path() /
           ("parowl_ae_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(unique_dirs++));
  }

  SortedFingerprint run(std::uint32_t partitions, Transport& transport,
                        ClusterOptions copts, ClusterResult* out = nullptr) {
    partition::DataPartitioning dp = partition::partition_data(
        store, dict, vocab, policy, partitions);
    const auto router =
        std::make_shared<OwnerRouter>(std::move(dp.owners));
    Cluster cluster(transport, copts);
    WorkerOptions wopts;
    wopts.dict = &dict;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      cluster.add_worker(compiled->rules, router, wopts);
      cluster.load(p, dp.parts[p]);
    }
    const ClusterResult result = cluster.run();
    if (out != nullptr) {
      *out = result;
    }
    return fingerprint(cluster, result);
  }

  /// Golden: the round-synchronous executor on a clean memory transport.
  SortedFingerprint golden(std::uint32_t partitions) {
    MemoryTransport transport(partitions);
    return run(partitions, transport, {});
  }

  static SortedFingerprint fingerprint(const Cluster& cluster,
                                       const ClusterResult& result) {
    SortedFingerprint fp;
    for (std::uint32_t p = 0; p < cluster.num_workers(); ++p) {
      std::vector<rdf::Triple> log = cluster.worker(p).store().triples();
      std::sort(log.begin(), log.end());
      fp.logs.push_back(std::move(log));
    }
    fp.results_per_partition = result.results_per_partition;
    fp.union_results = result.union_results;
    return fp;
  }

  static void expect_identical(const SortedFingerprint& got,
                               const SortedFingerprint& want,
                               const std::string& label) {
    ASSERT_EQ(got.logs.size(), want.logs.size()) << label;
    for (std::size_t p = 0; p < want.logs.size(); ++p) {
      EXPECT_EQ(got.logs[p], want.logs[p])
          << label << ": worker " << p << " closure set diverged";
    }
    EXPECT_EQ(got.results_per_partition, want.results_per_partition)
        << label;
    EXPECT_EQ(got.union_results, want.union_results) << label;
  }

  static ClusterOptions async_options() {
    ClusterOptions copts;
    copts.mode = ExecutionMode::kAsync;
    // Small grains force many interleaved activations and steals.
    copts.async.chunk = 64;
    copts.async.steal_batch = 64;
    return copts;
  }
};

/// The PR 3 fault-mix matrix (tests/fault_injection_test.cpp).
struct Mix {
  const char* name;
  double drop, duplicate, corrupt, delay, reorder;
};

constexpr Mix kMixes[] = {
    {"drop", 0.30, 0.0, 0.0, 0.0, 0.0},
    {"dup", 0.0, 0.35, 0.0, 0.0, 0.0},
    {"corrupt", 0.0, 0.0, 0.25, 0.0, 0.0},
    {"reorder", 0.0, 0.0, 0.0, 0.0, 0.60},
    {"mixed", 0.15, 0.10, 0.10, 0.10, 0.30},
};

FaultSpec make_spec(const Mix& mix, std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.drop = mix.drop;
  spec.duplicate = mix.duplicate;
  spec.corrupt = mix.corrupt;
  spec.delay = mix.delay;
  spec.reorder = mix.reorder;
  return spec;
}

// Fault-free async vs sync over every partition count, steal on and off.
TEST_F(AsyncEquivalenceTest, CleanRunMatchesSyncAcrossPartitionCounts) {
  for (const std::uint32_t parts : {1u, 2u, 4u, 8u}) {
    const SortedFingerprint want = golden(parts);
    for (const bool steal : {true, false}) {
      MemoryTransport transport(parts);
      ClusterOptions copts = async_options();
      copts.async.steal = steal;
      const SortedFingerprint got = run(parts, transport, copts);
      expect_identical(got, want,
                       "clean/p" + std::to_string(parts) +
                           (steal ? "/steal" : "/nosteal"));
    }
  }
}

// The full memory-transport fault matrix under kAsync: 3 partition counts
// x 5 mixes x 3 seeds = 45 schedules, every one set-identical to the
// synchronous fault-free golden run.
TEST_F(AsyncEquivalenceTest, MemoryTransportFaultSweepMatchesSync) {
  const std::uint32_t partition_counts[] = {2, 4, 8};
  const std::uint64_t seeds[] = {11, 23, 47};
  std::size_t schedules = 0;
  std::uint64_t injected_total = 0;

  for (const std::uint32_t parts : partition_counts) {
    const SortedFingerprint want = golden(parts);
    for (const Mix& mix : kMixes) {
      for (const std::uint64_t seed : seeds) {
        MemoryTransport inner(parts);
        const FaultSpec spec = make_spec(mix, seed);
        FaultyTransport faulty(inner, spec);
        ClusterResult result;
        const SortedFingerprint got =
            run(parts, faulty, async_options(), &result);
        expect_identical(got, want,
                         std::string("async/") + mix.name + "/seed" +
                             std::to_string(seed) + "/p" +
                             std::to_string(parts));
        injected_total += result.report.injected.total();
        ++schedules;
      }
    }
  }
  EXPECT_EQ(schedules, 45u);
  EXPECT_GT(injected_total, 200u);
}

// The same invariant over the file transport: 2 partition counts x 2 mixes
// x 2 seeds = 8 schedules.
TEST_F(AsyncEquivalenceTest, FileTransportFaultSweepMatchesSync) {
  const std::uint32_t partition_counts[] = {2, 4};
  const Mix file_mixes[] = {kMixes[2], kMixes[4]};  // corrupt, mixed
  const std::uint64_t seeds[] = {7, 19};
  std::uint64_t injected_total = 0;

  for (const std::uint32_t parts : partition_counts) {
    const SortedFingerprint want = golden(parts);
    for (const Mix& mix : file_mixes) {
      for (const std::uint64_t seed : seeds) {
        FileTransport inner(scratch_dir("faulty"), parts);
        const FaultSpec spec = make_spec(mix, seed);
        FaultyTransport faulty(inner, spec);
        ClusterResult result;
        const SortedFingerprint got =
            run(parts, faulty, async_options(), &result);
        expect_identical(got, want,
                         std::string("async-file/") + mix.name + "/seed" +
                             std::to_string(seed) + "/p" +
                             std::to_string(parts));
        injected_total += result.report.injected.total();
      }
    }
  }
  EXPECT_GT(injected_total, 20u);
}

// The threaded async executor (real concurrency, mutex-guarded steals)
// lands on the same closure sets.
TEST_F(AsyncEquivalenceTest, ThreadedAsyncMatchesSync) {
  for (const std::uint32_t parts : {2u, 4u}) {
    const SortedFingerprint want = golden(parts);
    MemoryTransport transport(parts);
    ClusterOptions copts = async_options();
    copts.mode = ExecutionMode::kAsyncThreaded;
    const SortedFingerprint got = run(parts, transport, copts);
    expect_identical(got, want, "threaded/p" + std::to_string(parts));
  }
}

// Kill a worker mid-run (after the first token-epoch checkpoint), restore
// the whole cluster from the epoch checkpoints, and the completed run still
// lands on the synchronous closure.
TEST_F(AsyncEquivalenceTest, KillRestoreMidRunMatchesSync) {
  const std::uint32_t parts = 4;
  const SortedFingerprint want = golden(parts);

  for (const std::uint32_t crash_worker : {1u, 3u}) {
    const auto ckpt = scratch_dir("crash");
    MemoryTransport transport(parts);
    ClusterOptions copts = async_options();
    copts.checkpoint_dir = ckpt.string();
    copts.fault_tolerance.crash_at_round = 1;  // Nth activation post-ckpt
    copts.fault_tolerance.crash_worker = crash_worker;
    ClusterResult result;
    const SortedFingerprint got = run(parts, transport, copts, &result);

    const std::string label =
        "async crash worker " + std::to_string(crash_worker);
    expect_identical(got, want, label);
    EXPECT_TRUE(result.report.recovered) << label;
    EXPECT_GT(result.report.checkpoints_written, 0u) << label;
    std::filesystem::remove_all(ckpt);
  }
}

// Kill/restore composed with an active fault schedule.
TEST_F(AsyncEquivalenceTest, KillRestoreUnderFaultsMatchesSync) {
  const std::uint32_t parts = 4;
  const SortedFingerprint want = golden(parts);

  const auto ckpt = scratch_dir("crash_faulty");
  MemoryTransport inner(parts);
  const FaultSpec spec = make_spec(kMixes[4], 31);  // mixed
  FaultyTransport faulty(inner, spec);
  ClusterOptions copts = async_options();
  copts.checkpoint_dir = ckpt.string();
  copts.fault_tolerance.crash_at_round = 1;
  copts.fault_tolerance.crash_worker = 2;
  ClusterResult result;
  const SortedFingerprint got = run(parts, faulty, copts, &result);

  expect_identical(got, want, "async crash+faults");
  EXPECT_TRUE(result.report.recovered);
  EXPECT_GT(result.report.injected.total(), 0u);
  std::filesystem::remove_all(ckpt);
}

// UOBM(10) under the threaded asynchronous executor, 20 runs at each of
// k = 2 and 4.  Its hasSameHomeTownWith cliques make single async steps and
// absorbs long, so a worker can sit idle for thousands of polls while a peer
// is still busy: that is waiting, not a stall, and every run must complete
// with the synchronous closure.
TEST(AsyncEquivalenceUobm, ThreadedAsyncCompletesRepeatedly) {
  rdf::Dictionary dict;
  const ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::UobmOptions gopts;
  gopts.base.universities = 10;
  gopts.base.seed = 42;
  gopts.hometowns = 100;  // as `parowl gen uobm --scale 10`
  gen::generate_uobm(gopts, dict, store);
  const rules::CompiledRules compiled =
      reason::compile_ontology(store, vocab, {});
  const partition::HashOwnerPolicy policy;

  const auto run = [&](std::uint32_t parts, ExecutionMode mode) {
    partition::DataPartitioning dp =
        partition::partition_data(store, dict, vocab, policy, parts);
    const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
    MemoryTransport transport(parts);
    ClusterOptions copts;
    copts.mode = mode;
    Cluster cluster(transport, copts);
    WorkerOptions wopts;
    wopts.dict = &dict;
    for (std::uint32_t p = 0; p < parts; ++p) {
      cluster.add_worker(compiled.rules, router, wopts);
      cluster.load(p, dp.parts[p]);
    }
    const ClusterResult result = cluster.run();
    std::vector<std::vector<rdf::Triple>> logs;
    for (std::uint32_t p = 0; p < parts; ++p) {
      std::vector<rdf::Triple> log = cluster.worker(p).store().triples();
      std::sort(log.begin(), log.end());
      logs.push_back(std::move(log));
    }
    return std::pair(std::move(logs), result.union_results);
  };

  for (const std::uint32_t parts : {2u, 4u}) {
    const auto want = run(parts, ExecutionMode::kSequentialSimulated);
    for (int rep = 0; rep < 20; ++rep) {
      const std::string label =
          "k=" + std::to_string(parts) + " run " + std::to_string(rep);
      std::pair<std::vector<std::vector<rdf::Triple>>, std::size_t> got;
      ASSERT_NO_THROW(got = run(parts, ExecutionMode::kAsyncThreaded))
          << label;
      ASSERT_EQ(got.second, want.second) << label;
      ASSERT_EQ(got.first, want.first) << label;
    }
  }
}

}  // namespace
}  // namespace parowl::parallel
