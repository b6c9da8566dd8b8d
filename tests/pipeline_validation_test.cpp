#include <gtest/gtest.h>

#include <stdexcept>

#include "parowl/gen/lubm.hpp"
#include "parowl/parallel/pipeline.hpp"

namespace parowl::parallel {
namespace {

class PipelineValidationTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  partition::GraphOwnerPolicy policy;

  void SetUp() override {
    gen::LubmOptions opts;
    opts.universities = 1;
    opts.departments_per_university = 1;
    opts.faculty_per_department = 2;
    gen::generate_lubm(opts, dict, store);
  }
};

TEST_F(PipelineValidationTest, ZeroPartitionsThrows) {
  ParallelOptions opts;
  opts.partitions = 0;
  opts.policy = &policy;
  EXPECT_THROW(parallel_materialize(store, dict, vocab, opts),
               std::invalid_argument);
}

TEST_F(PipelineValidationTest, MissingPolicyThrows) {
  ParallelOptions opts;
  opts.policy = nullptr;  // required for the data approach
  EXPECT_THROW(parallel_materialize(store, dict, vocab, opts),
               std::invalid_argument);

  opts.approach = Approach::kHybrid;
  EXPECT_THROW(parallel_materialize(store, dict, vocab, opts),
               std::invalid_argument);
}

TEST_F(PipelineValidationTest, RulePartitionNeedsNoPolicy) {
  ParallelOptions opts;
  opts.approach = Approach::kRulePartition;
  opts.partitions = 2;
  opts.policy = nullptr;
  opts.build_merged = false;
  EXPECT_NO_THROW(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(PipelineValidationTest, HybridZeroRulePartsThrows) {
  ParallelOptions opts;
  opts.approach = Approach::kHybrid;
  opts.policy = &policy;
  opts.rule_partitions = 0;
  EXPECT_THROW(parallel_materialize(store, dict, vocab, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace parowl::parallel
