#include <gtest/gtest.h>

#include <algorithm>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/parallel/router.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {
namespace {

class AsyncTest : public ::testing::Test {
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

  void expect_equivalent(const ParallelResult& result) {
    ASSERT_TRUE(result.merged.has_value());
    EXPECT_EQ(result.merged->size(), serial.size());
    for (const rdf::Triple& t : serial.triples()) {
      ASSERT_TRUE(result.merged->contains(t));
    }
    for (const rdf::Triple& t : result.merged->triples()) {
      ASSERT_TRUE(serial.contains(t));
    }
  }

  /// The async executor's accounting: work happened, one idle entry per
  /// worker, and the modeled makespan covers every worker's reasoning.
  static void expect_async_accounting(const ClusterResult& result,
                                      std::size_t workers) {
    const AsyncStats& st = result.async_stats;
    EXPECT_GT(st.activations, 0u);
    ASSERT_EQ(st.idle_seconds_per_worker.size(), workers);
    for (const double idle : st.idle_seconds_per_worker) {
      EXPECT_GE(idle, 0.0);
    }
    ASSERT_EQ(result.reason_seconds_per_worker.size(), workers);
    EXPECT_GE(result.simulated_seconds,
              *std::max_element(result.reason_seconds_per_worker.begin(),
                                result.reason_seconds_per_worker.end()));
  }
};

TEST_F(AsyncTest, DataPartitionAsyncMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  expect_async_accounting(result.cluster, 4);
  EXPECT_GT(result.cluster.simulated_seconds, 0.0);
}

TEST_F(AsyncTest, RulePartitionAsyncMatchesSerial) {
  ParallelOptions opts;
  opts.approach = Approach::kRulePartition;
  opts.partitions = 3;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  expect_async_accounting(result.cluster, 3);
}

TEST_F(AsyncTest, AsyncQueryDrivenMatchesSerial) {
  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  opts.local_strategy = reason::Strategy::kQueryDriven;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  expect_async_accounting(result.cluster, 2);
}

TEST_F(AsyncTest, AsyncDeliversTuplesWhenPartitionsInteract) {
  const partition::HashOwnerPolicy policy;  // heavy cross traffic
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  expect_async_accounting(result.cluster, 4);
  EXPECT_GT(result.cluster.report.batches_sent, 0u);
  EXPECT_GT(result.cluster.async_stats.token_epochs, 0u);
  EXPECT_GT(result.cluster.async_stats.token_passes, 0u);
}

TEST_F(AsyncTest, SinglePartitionNeverWaits) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 1;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  expect_async_accounting(result.cluster, 1);
  EXPECT_DOUBLE_EQ(result.cluster.async_stats.idle_seconds, 0.0);
  EXPECT_EQ(result.cluster.report.batches_sent, 0u);
  EXPECT_EQ(result.cluster.async_stats.steals, 0u);
}

TEST_F(AsyncTest, VirtualTimeInvariantsHold) {
  const partition::HashOwnerPolicy policy;
  partition::DataPartitioning dp =
      partition::partition_data(store, dict, vocab, policy, 4);
  const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
  const rules::CompiledRules compiled =
      reason::compile_ontology(store, vocab, {});
  MemoryTransport transport(4);
  ClusterOptions copts;
  copts.mode = ExecutionMode::kAsync;
  Cluster cluster(transport, copts);
  WorkerOptions wopts;
  wopts.dict = &dict;
  for (std::uint32_t p = 0; p < 4; ++p) {
    cluster.add_worker(compiled.rules, router, wopts);
    cluster.load(p, dp.parts[p]);
  }
  const ClusterResult result = cluster.run();
  expect_async_accounting(result, 4);

  // Conservation: everything sent is eventually received.
  std::size_t sent = 0;
  std::size_t received = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (const RoundStats& rs : cluster.worker(p).rounds()) {
      sent += rs.sent_tuples;
      received += rs.received_tuples;
    }
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sent, received);
}

// -- Steal and threading knobs of the asynchronous executor --

TEST_F(AsyncTest, AsyncClusterStealDisabledMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  opts.async.steal = false;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_EQ(result.cluster.async_stats.steals, 0u);
}

TEST_F(AsyncTest, AsyncClusterSmallChunksSteal) {
  // Tiny activation grain + graph partitioning (skewed backlogs) make
  // idle workers steal; the closure must be unaffected.
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  opts.async.chunk = 16;
  opts.async.steal_batch = 16;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  const AsyncStats& st = result.cluster.async_stats;
  EXPECT_GT(st.steals, 0u);
  EXPECT_GT(st.stolen_tuples, 0u);
}

TEST_F(AsyncTest, AsyncThreadedClusterMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsyncThreaded;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_GT(result.cluster.async_stats.activations, 0u);
  EXPECT_GT(result.cluster.async_stats.token_epochs, 0u);
}

TEST_F(AsyncTest, AsyncUobmMatchesSerial) {
  // Dense data-set: many in-flight batches and re-activations.
  rdf::Dictionary d2;
  ontology::Vocabulary v2(d2);
  rdf::TripleStore uobm;
  gen::UobmOptions opts;
  opts.base.universities = 2;
  opts.base.departments_per_university = 1;
  opts.hometowns = 8;
  gen::generate_uobm(opts, d2, uobm);

  rdf::TripleStore uobm_serial;
  uobm_serial.insert_all(uobm.triples());
  reason::materialize(uobm_serial, d2, v2, {});

  const partition::GraphOwnerPolicy policy;
  ParallelOptions popts;
  popts.partitions = 3;
  popts.policy = &policy;
  popts.mode = ExecutionMode::kAsync;
  const ParallelResult result = parallel_materialize(uobm, d2, v2, popts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), uobm_serial.size());
  for (const rdf::Triple& t : uobm_serial.triples()) {
    ASSERT_TRUE(result.merged->contains(t));
  }
}

}  // namespace
}  // namespace parowl::parallel
