// Fault-schedule equivalence harness: the headline invariant of the
// fault-tolerance layer is that ANY seeded fault schedule the retry /
// recovery machinery survives yields a closure *bit-identical* to the
// fault-free run — not merely set-equal.  The fingerprint below therefore
// captures the exact per-worker store logs (insertion order included) and
// per-rule firing counts, and the sweep compares them across ~50 schedules
// spanning fault mixes, seeds, partition counts, and both transports.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/parallel/cluster.hpp"
#include "parowl/parallel/router.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {
namespace {

/// Everything that must be bit-identical between a faulty and a fault-free
/// run: the per-worker store logs (order matters), per-rule firings, round
/// counts, and the union size.
struct Fingerprint {
  std::vector<std::vector<rdf::Triple>> logs;
  std::vector<std::vector<std::size_t>> firings;
  std::vector<std::size_t> rounds_per_worker;
  std::size_t union_results = 0;
  std::size_t rounds = 0;
};

class FaultInjectionTest : public ::testing::Test {
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

  /// A throwaway directory unique to this process and call.
  std::filesystem::path scratch_dir(const std::string& tag) {
    return std::filesystem::temp_directory_path() /
           ("parowl_fi_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(unique_dirs++));
  }

  /// Partition, build a cluster over `transport`, run it, and fingerprint.
  Fingerprint run(std::uint32_t partitions, Transport& transport,
                  const ClusterOptions& copts,
                  ClusterResult* out = nullptr) {
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

  static Fingerprint fingerprint(const Cluster& cluster,
                                 const ClusterResult& result) {
    Fingerprint fp;
    for (std::uint32_t p = 0; p < cluster.num_workers(); ++p) {
      const Worker& w = cluster.worker(p);
      fp.logs.push_back(w.store().triples());
      fp.firings.push_back(w.rule_firings());
      fp.rounds_per_worker.push_back(w.rounds().size());
    }
    fp.union_results = result.union_results;
    fp.rounds = result.rounds;
    return fp;
  }

  static void expect_identical(const Fingerprint& got,
                               const Fingerprint& golden,
                               const std::string& label) {
    ASSERT_EQ(got.logs.size(), golden.logs.size()) << label;
    for (std::size_t p = 0; p < golden.logs.size(); ++p) {
      EXPECT_EQ(got.logs[p], golden.logs[p])
          << label << ": worker " << p << " store log diverged";
      EXPECT_EQ(got.firings[p], golden.firings[p])
          << label << ": worker " << p << " rule firings diverged";
      EXPECT_EQ(got.rounds_per_worker[p], golden.rounds_per_worker[p])
          << label << ": worker " << p << " round count diverged";
    }
    EXPECT_EQ(got.union_results, golden.union_results) << label;
    EXPECT_EQ(got.rounds, golden.rounds) << label;
  }
};

/// Named fault mixes the sweeps draw from.
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

/// The round driver's two flavours: workers stepped inline, or worker m on
/// thread-team member m.  Both must reproduce the inline golden run byte
/// for byte.
class RoundFlavourTest : public FaultInjectionTest,
                         public ::testing::WithParamInterface<ExecutionMode> {
 protected:
  static ClusterOptions flavour_options() {
    ClusterOptions copts;
    copts.mode = GetParam();
    return copts;
  }
};

// 3 partition counts x 5 mixes x 3 seeds = 45 schedules over the memory
// transport, every one byte-compared against its fault-free golden run.
TEST_P(RoundFlavourTest, MemoryTransportScheduleSweepIsBitIdentical) {
  const std::uint32_t partition_counts[] = {2, 4, 8};
  const std::uint64_t seeds[] = {11, 23, 47};
  std::size_t schedules = 0;
  std::uint64_t injected_total = 0;

  for (const std::uint32_t parts : partition_counts) {
    MemoryTransport golden_transport(parts);
    const Fingerprint golden = run(parts, golden_transport, {});

    for (const Mix& mix : kMixes) {
      for (const std::uint64_t seed : seeds) {
        MemoryTransport inner(parts);
        const FaultSpec spec = make_spec(mix, seed);
        FaultyTransport faulty(inner, spec);
        ClusterResult result;
        const Fingerprint fp =
            run(parts, faulty, flavour_options(), &result);

        const std::string label = std::string(mix.name) + "/seed" +
                                  std::to_string(seed) + "/p" +
                                  std::to_string(parts);
        expect_identical(fp, golden, label);
        injected_total += result.report.injected.total();
        ++schedules;
      }
    }
  }
  EXPECT_EQ(schedules, 45u);
  // The sweep must have actually perturbed the runs, massively.
  EXPECT_GT(injected_total, 200u);
}

// A run that needs more rounds than max_rounds fails instead of returning
// an incomplete closure as if it had reached quiescence.
TEST_P(RoundFlavourTest, ExceedingMaxRoundsThrows) {
  const std::uint32_t parts = 4;
  MemoryTransport golden_transport(parts);
  ClusterResult golden_result;
  run(parts, golden_transport, {}, &golden_result);
  ASSERT_GE(golden_result.rounds, 2u) << "fixture closes in one round";

  MemoryTransport transport(parts);
  ClusterOptions copts = flavour_options();
  copts.max_rounds = 1;
  EXPECT_THROW(run(parts, transport, copts), DeliveryFailure);
}

INSTANTIATE_TEST_SUITE_P(
    Flavours, RoundFlavourTest,
    ::testing::Values(ExecutionMode::kSequentialSimulated,
                      ExecutionMode::kThreaded),
    [](const auto& param_info) {
      return param_info.param == ExecutionMode::kThreaded ? "threaded"
                                                          : "sequential";
    });

// The same invariant over the file transport (atomic-rename spool files):
// 2 partition counts x 2 mixes x 2 seeds = 8 schedules.
TEST_F(FaultInjectionTest, FileTransportScheduleSweepIsBitIdentical) {
  const std::uint32_t partition_counts[] = {2, 4};
  const Mix file_mixes[] = {kMixes[2], kMixes[4]};  // corrupt, mixed
  const std::uint64_t seeds[] = {7, 19};
  std::uint64_t injected_total = 0;

  for (const std::uint32_t parts : partition_counts) {
    {
      FileTransport golden_transport(scratch_dir("golden"), parts);
      const Fingerprint golden = run(parts, golden_transport, {});

      for (const Mix& mix : file_mixes) {
        for (const std::uint64_t seed : seeds) {
          FileTransport inner(scratch_dir("faulty"), parts);
          const FaultSpec spec = make_spec(mix, seed);
          FaultyTransport faulty(inner, spec);
          ClusterResult result;
          const Fingerprint fp = run(parts, faulty, {}, &result);
          expect_identical(fp, golden,
                           std::string("file/") + mix.name + "/seed" +
                               std::to_string(seed) + "/p" +
                               std::to_string(parts));
          injected_total += result.report.injected.total();
        }
      }
    }
  }
  EXPECT_GT(injected_total, 20u);
}

// Kill worker k at round r, recover from the round-(r-1) checkpoints, and
// the completed run is still bit-identical to the never-crashed one.
TEST_F(FaultInjectionTest, WorkerKillRecoversToBitIdenticalFixpoint) {
  const std::uint32_t parts = 4;
  MemoryTransport golden_transport(parts);
  ClusterResult golden_result;
  const Fingerprint golden = run(parts, golden_transport, {}, &golden_result);
  ASSERT_GE(golden_result.rounds, 2u)
      << "fixture too small to crash mid-run";

  for (const std::uint32_t crash_worker : {1u, 3u}) {
    const auto ckpt = scratch_dir("crash");
    MemoryTransport transport(parts);
    ClusterOptions copts;
    copts.checkpoint_dir = ckpt.string();
    copts.fault_tolerance.crash_at_round = 1;
    copts.fault_tolerance.crash_worker = crash_worker;
    ClusterResult result;
    const Fingerprint fp = run(parts, transport, copts, &result);

    const std::string label = "crash worker " + std::to_string(crash_worker);
    expect_identical(fp, golden, label);
    EXPECT_TRUE(result.report.recovered) << label;
    EXPECT_EQ(result.report.recovered_from_round, 0) << label;
    EXPECT_GT(result.report.checkpoints_written, 0u) << label;
    std::filesystem::remove_all(ckpt);
  }
}

// Crash recovery composed with an active fault schedule: the stale
// in-flight batches of the crashed round plus injected faults must all be
// absorbed by dedup/retry without disturbing the closure.
TEST_F(FaultInjectionTest, CrashUnderFaultsIsStillBitIdentical) {
  const std::uint32_t parts = 4;
  MemoryTransport golden_transport(parts);
  ClusterResult golden_result;
  const Fingerprint golden = run(parts, golden_transport, {}, &golden_result);
  ASSERT_GE(golden_result.rounds, 2u);

  const auto ckpt = scratch_dir("crash_faulty");
  MemoryTransport inner(parts);
  const FaultSpec spec = make_spec(kMixes[4], 31);  // mixed
  FaultyTransport faulty(inner, spec);
  ClusterOptions copts;
  copts.checkpoint_dir = ckpt.string();
  copts.fault_tolerance.crash_at_round = 1;
  copts.fault_tolerance.crash_worker = 2;
  ClusterResult result;
  const Fingerprint fp = run(parts, faulty, copts, &result);

  expect_identical(fp, golden, "crash+faults");
  EXPECT_TRUE(result.report.recovered);
  EXPECT_GT(result.report.injected.total(), 0u);
  std::filesystem::remove_all(ckpt);
}

// Cold restart: a *fresh* cluster (new transport, empty workers) restored
// from the checkpoint files of a finished run resumes and lands on the
// same fixpoint — the full process-restart story, not just in-run recovery.
TEST_F(FaultInjectionTest, FreshClusterRestoresFromCheckpointFiles) {
  const std::uint32_t parts = 3;
  const auto ckpt = scratch_dir("restart");

  MemoryTransport first_transport(parts);
  ClusterOptions copts;
  copts.checkpoint_dir = ckpt.string();
  ClusterResult first_result;
  const Fingerprint golden = run(parts, first_transport, copts, &first_result);
  EXPECT_GT(first_result.report.checkpoints_written, 0u);

  // Second process: same plan, fresh state, restore then run to completion.
  partition::DataPartitioning dp = partition::partition_data(
      store, dict, vocab, policy, parts);
  const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
  MemoryTransport second_transport(parts);
  Cluster cluster(second_transport, copts);
  WorkerOptions wopts;
  wopts.dict = &dict;
  for (std::uint32_t p = 0; p < parts; ++p) {
    cluster.add_worker(compiled->rules, router, wopts);
  }
  const std::int64_t restored = cluster.restore_from_checkpoints();
  EXPECT_GE(restored, 0);
  const ClusterResult second_result = cluster.run();
  expect_identical(fingerprint(cluster, second_result), golden,
                   "cold restart");

  std::filesystem::remove_all(ckpt);
}

// A damaged checkpoint round must be skipped in favour of the newest round
// whose complete per-worker set still loads cleanly.
TEST_F(FaultInjectionTest, DamagedCheckpointRoundFallsBackToOlderOne) {
  const std::uint32_t parts = 2;
  const auto ckpt = scratch_dir("damaged");

  MemoryTransport first_transport(parts);
  ClusterOptions copts;
  copts.checkpoint_dir = ckpt.string();
  ClusterResult first_result;
  run(parts, first_transport, copts, &first_result);
  ASSERT_GE(first_result.rounds, 2u);

  // Find the newest checkpoint round and truncate one of its files.
  std::int64_t newest = -1;
  for (const auto& entry : std::filesystem::directory_iterator(ckpt)) {
    const std::string stem = entry.path().stem().string();
    const auto pos = stem.find("_r");
    if (entry.path().extension() == ".ckpt" && pos != std::string::npos) {
      newest = std::max<std::int64_t>(newest,
                                      std::stoll(stem.substr(pos + 2)));
    }
  }
  ASSERT_GE(newest, 1);
  const auto damaged = std::filesystem::path(ckpt) /
                       ("w0_r" + std::to_string(newest) + ".ckpt");
  ASSERT_TRUE(std::filesystem::exists(damaged));
  std::filesystem::resize_file(
      damaged, std::filesystem::file_size(damaged) / 2);

  partition::DataPartitioning dp = partition::partition_data(
      store, dict, vocab, policy, parts);
  const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
  MemoryTransport second_transport(parts);
  Cluster cluster(second_transport, copts);
  WorkerOptions wopts;
  wopts.dict = &dict;
  for (std::uint32_t p = 0; p < parts; ++p) {
    cluster.add_worker(compiled->rules, router, wopts);
  }
  const std::int64_t restored = cluster.restore_from_checkpoints();
  EXPECT_LT(restored, newest);
  EXPECT_GE(restored, 0);

  std::filesystem::remove_all(ckpt);
}

// The inline async flavour is deterministic: two runs under one fault
// schedule give byte-identical per-worker logs and the same AsyncStats
// counts.
TEST_F(FaultInjectionTest, AsyncRerunUnderOneScheduleIsBitIdentical) {
  const std::uint32_t parts = 4;
  const FaultSpec spec = make_spec(kMixes[4], 31);  // mixed
  ClusterOptions copts;
  copts.mode = ExecutionMode::kAsync;
  copts.async.chunk = 16;  // many interleaved activations and steals
  copts.async.steal_batch = 16;

  std::vector<Fingerprint> fps;
  std::vector<ClusterResult> results(2);
  for (ClusterResult& result : results) {
    MemoryTransport inner(parts);
    FaultyTransport faulty(inner, spec);
    fps.push_back(run(parts, faulty, copts, &result));
  }
  expect_identical(fps[1], fps[0], "async rerun");
  const AsyncStats& a = results[0].async_stats;
  const AsyncStats& b = results[1].async_stats;
  EXPECT_EQ(b.activations, a.activations);
  EXPECT_EQ(b.steals, a.steals);
  EXPECT_EQ(b.stolen_tuples, a.stolen_tuples);
  EXPECT_EQ(b.steal_derivations, a.steal_derivations);
  EXPECT_EQ(b.token_epochs, a.token_epochs);
  EXPECT_EQ(b.token_passes, a.token_passes);
  EXPECT_EQ(results[1].report.retransmissions,
            results[0].report.retransmissions);
  EXPECT_GT(results[0].report.injected.total(), 0u);
  EXPECT_GT(a.steals, 0u);
}

}  // namespace
}  // namespace parowl::parallel
