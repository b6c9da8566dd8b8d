#include <gtest/gtest.h>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/rule_parser.hpp"

namespace parowl::parallel {
namespace {

class HybridTest : public ::testing::Test {
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
};

TEST_F(HybridTest, TwoByTwoGridMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.partitions = 2;       // data parts
  opts.rule_partitions = 2;  // rule parts -> 4 workers
  opts.policy = &policy;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_EQ(result.cluster.results_per_partition.size(), 4u);
}

TEST_F(HybridTest, AsymmetricGridMatchesSerial) {
  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.partitions = 2;
  opts.rule_partitions = 3;  // 6 workers
  opts.policy = &policy;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(HybridTest, DegenerateGridsReduceToPureApproaches) {
  const partition::GraphOwnerPolicy policy;

  // 1 rule part == pure data partitioning.
  ParallelOptions data_like;
  data_like.approach = Approach::kHybrid;
  data_like.partitions = 3;
  data_like.rule_partitions = 1;
  data_like.policy = &policy;
  expect_equivalent(parallel_materialize(store, dict, vocab, data_like));

  // 1 data part == pure rule partitioning.
  ParallelOptions rule_like;
  rule_like.approach = Approach::kHybrid;
  rule_like.partitions = 1;
  rule_like.rule_partitions = 3;
  rule_like.policy = &policy;
  expect_equivalent(parallel_materialize(store, dict, vocab, rule_like));
}

TEST_F(HybridTest, HybridAsyncMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.partitions = 2;
  opts.rule_partitions = 2;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(HybridTest, HybridThreadedMatchesSerial) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.partitions = 2;
  opts.rule_partitions = 2;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kThreaded;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(HybridTest, HybridOnMdcMatchesSerial) {
  rdf::Dictionary d2;
  ontology::Vocabulary v2(d2);
  rdf::TripleStore mdc;
  gen::MdcOptions mopts;
  mopts.fields = 2;
  gen::generate_mdc(mopts, d2, mdc);

  rdf::TripleStore mdc_serial;
  mdc_serial.insert_all(mdc.triples());
  reason::materialize(mdc_serial, d2, v2, {});

  const partition::DomainOwnerPolicy policy(&gen::mdc_field_key);
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.partitions = 2;
  opts.rule_partitions = 2;
  opts.policy = &policy;
  const auto result = parallel_materialize(mdc, d2, v2, opts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), mdc_serial.size());
  for (const rdf::Triple& t : mdc_serial.triples()) {
    ASSERT_TRUE(result.merged->contains(t));
  }
}

TEST(HybridRouterUnit, GridDestinations) {
  rdf::Dictionary dict;
  rules::RuleParser parser(dict);
  std::vector<rules::RuleSet> rule_parts(2);
  rule_parts[0].add(*parser.parse_rule("r0: (?x <p> ?y) -> (?x <q> ?y)"));
  rule_parts[1].add(*parser.parse_rule("r1: (?x <q> ?y) -> (?x <r> ?y)"));

  partition::OwnerTable owners;
  owners[100] = 0;
  owners[200] = 1;
  const HybridRouter router(owners, rule_parts);

  const auto q = dict.find_iri("q");
  // (100 q 200): owners {0,1}; triggers rule part 1 only.
  // Destinations: (0,1) = 1 and (1,1) = 3.
  std::vector<std::uint32_t> dests;
  router.route({100, q, 200}, /*self=*/99, dests);
  ASSERT_EQ(dests.size(), 2u);
  EXPECT_EQ(dests[0], 1u);
  EXPECT_EQ(dests[1], 3u);

  // Self exclusion.
  dests.clear();
  router.route({100, q, 200}, /*self=*/1, dests);
  ASSERT_EQ(dests.size(), 1u);
  EXPECT_EQ(dests[0], 3u);
}

}  // namespace
}  // namespace parowl::parallel
