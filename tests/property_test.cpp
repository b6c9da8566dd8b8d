#include <gtest/gtest.h>

#include <unordered_set>

#include "parowl/gen/lubm.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/partition/multilevel.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/util/rng.hpp"

namespace parowl {
namespace {

// ---------------------------------------------------------------------------
// Property: the multilevel partitioner always yields a valid, bounded
// partition on random graphs, across seeds and k.

struct GraphCase {
  std::uint64_t seed;
  std::uint32_t n;
  int k;
  int avg_degree;
};

class PartitionProperty : public ::testing::TestWithParam<GraphCase> {};

TEST_P(PartitionProperty, ValidBalancedAssignment) {
  const GraphCase c = GetParam();
  util::Rng rng(c.seed);
  std::vector<partition::WeightedEdge> edges;
  for (std::uint32_t i = 0; i < c.n; ++i) {
    for (int d = 0; d < c.avg_degree; ++d) {
      edges.push_back({i, static_cast<std::uint32_t>(rng.below(c.n)),
                       1 + rng.below(3)});
    }
  }
  const partition::Graph g = partition::build_graph(c.n, edges);
  const partition::PartitionPlan plan = partition::partition_csr_graph(g, c.k);

  ASSERT_EQ(plan.assignment.size(), c.n);
  for (const auto part : plan.assignment) {
    ASSERT_LT(part, static_cast<std::uint32_t>(c.k));
  }
  // Edge cut reported == recomputed.
  const partition::PartitionMetrics scored =
      partition::compute_graph_metrics(g, plan.assignment, c.k);
  EXPECT_EQ(plan.metrics.edge_cut, scored.edge_cut);
  // Balance within 40% of proportional share (loose bound; random graphs).
  const double share = static_cast<double>(g.total_vwgt) / c.k;
  for (const auto w : scored.partition_weights) {
    EXPECT_LT(static_cast<double>(w), share * 1.4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PartitionProperty,
    ::testing::Values(GraphCase{1, 100, 2, 2}, GraphCase{2, 100, 4, 3},
                      GraphCase{3, 500, 2, 2}, GraphCase{4, 500, 8, 3},
                      GraphCase{5, 1000, 3, 2}, GraphCase{6, 1000, 16, 4},
                      GraphCase{7, 2000, 5, 2}, GraphCase{8, 250, 7, 5}));

// ---------------------------------------------------------------------------
// Property: Algorithm 1 invariants hold for every policy × partition count.

struct DataPartCase {
  const char* policy;
  std::uint32_t k;
};

// Without this, gtest prints the raw bytes of the case (a string pointer
// and padding), so the listed test name changed with every process's
// address layout.
void PrintTo(const DataPartCase& c, std::ostream* os) {
  *os << c.policy << "_k" << c.k;
}

class DataPartitionProperty : public ::testing::TestWithParam<DataPartCase> {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;

  std::unique_ptr<partition::OwnerPolicy> make_policy(const char* name) {
    if (std::string_view(name) == "graph") {
      return std::make_unique<partition::GraphOwnerPolicy>();
    }
    if (std::string_view(name) == "hash") {
      return std::make_unique<partition::HashOwnerPolicy>();
    }
    return std::make_unique<partition::DomainOwnerPolicy>(
        &partition::lubm_university_key);
  }
};

TEST_P(DataPartitionProperty, Invariants) {
  const DataPartCase c = GetParam();
  gen::LubmOptions opts;
  opts.universities = 3;
  opts.departments_per_university = 2;
  opts.faculty_per_department = 3;
  opts.students_per_faculty = 2;
  gen::generate_lubm(opts, dict, store);

  const auto policy = make_policy(c.policy);
  const partition::DataPartitioning dp =
      partition::partition_data(store, dict, vocab, *policy, c.k);
  const auto split = ontology::split_schema(store, vocab);

  // (1) Coverage: every instance triple appears somewhere.
  std::unordered_set<rdf::Triple, rdf::TripleHash> seen;
  std::size_t total = 0;
  for (const auto& part : dp.parts) {
    seen.insert(part.begin(), part.end());
    total += part.size();
  }
  EXPECT_EQ(seen.size(), split.instance.size());

  // (2) Bounded replication: a triple is present in at most 2 partitions.
  EXPECT_LE(total, 2 * split.instance.size());

  // (3) Owner-locality: the single-join correctness condition.
  std::vector<std::unordered_set<rdf::Triple, rdf::TripleHash>> by_part(c.k);
  for (std::uint32_t p = 0; p < c.k; ++p) {
    by_part[p].insert(dp.parts[p].begin(), dp.parts[p].end());
  }
  for (const rdf::Triple& t : split.instance) {
    ASSERT_TRUE(by_part[dp.owners.at(t.s)].contains(t));
    if (dict.is_resource(t.o) && dp.owners.contains(t.o)) {
      ASSERT_TRUE(by_part[dp.owners.at(t.o)].contains(t));
    }
  }

  // (4) No schema triples leak into parts.
  for (const auto& part : dp.parts) {
    for (const rdf::Triple& t : part) {
      ASSERT_FALSE(vocab.is_schema_triple(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndK, DataPartitionProperty,
    ::testing::Values(DataPartCase{"graph", 2}, DataPartCase{"graph", 5},
                      DataPartCase{"hash", 2}, DataPartCase{"hash", 7},
                      DataPartCase{"domain", 2}, DataPartCase{"domain", 3},
                      DataPartCase{"domain", 8}),
    [](const auto& param_info) {
      return std::string(param_info.param.policy) + "_k" +
             std::to_string(param_info.param.k);
    });

// ---------------------------------------------------------------------------
// Property: parallel == serial for every (approach, policy, k) combination.

struct EquivalenceCase {
  const char* policy;  // "graph" | "hash" | "domain" | "rule"
  std::uint32_t k;
};

// Listed names stay stable across builds (see DataPartCase's PrintTo).
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.policy << "_k" << c.k;
}

class EquivalenceProperty : public ::testing::TestWithParam<EquivalenceCase> {
};

TEST_P(EquivalenceProperty, ParallelMatchesSerial) {
  const EquivalenceCase c = GetParam();
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 2;
  opts.departments_per_university = 1;
  opts.faculty_per_department = 3;
  opts.students_per_faculty = 2;
  gen::generate_lubm(opts, dict, store);

  rdf::TripleStore serial;
  serial.insert_all(store.triples());
  reason::materialize(serial, dict, vocab, {});

  parallel::ParallelOptions popts;
  popts.partitions = c.k;
  std::unique_ptr<partition::OwnerPolicy> policy;
  if (std::string_view(c.policy) == "rule") {
    popts.approach = parallel::Approach::kRulePartition;
  } else if (std::string_view(c.policy) == "graph") {
    policy = std::make_unique<partition::GraphOwnerPolicy>();
  } else if (std::string_view(c.policy) == "hash") {
    policy = std::make_unique<partition::HashOwnerPolicy>();
  } else {
    policy = std::make_unique<partition::DomainOwnerPolicy>(
        &partition::lubm_university_key);
  }
  popts.policy = policy.get();

  const auto result =
      parallel::parallel_materialize(store, dict, vocab, popts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), serial.size());
  for (const rdf::Triple& t : serial.triples()) {
    ASSERT_TRUE(result.merged->contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, EquivalenceProperty,
    ::testing::Values(EquivalenceCase{"graph", 2}, EquivalenceCase{"graph", 6},
                      EquivalenceCase{"hash", 3}, EquivalenceCase{"hash", 5},
                      EquivalenceCase{"domain", 2},
                      EquivalenceCase{"domain", 4},
                      EquivalenceCase{"rule", 2}, EquivalenceCase{"rule", 5}),
    [](const auto& param_info) {
      return std::string(param_info.param.policy) + "_k" +
             std::to_string(param_info.param.k);
    });

// ---------------------------------------------------------------------------
// Property: forward closure is independent of triple insertion order.

class OrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderProperty, ClosureIndependentOfInsertionOrder) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 1;
  opts.departments_per_university = 1;
  opts.faculty_per_department = 3;
  opts.students_per_faculty = 2;
  gen::generate_lubm(opts, dict, store);

  // Shuffle the triples with the parameterized seed.
  std::vector<rdf::Triple> triples = store.triples();
  util::Rng rng(GetParam());
  for (std::size_t i = triples.size(); i > 1; --i) {
    std::swap(triples[i - 1], triples[rng.below(i)]);
  }
  rdf::TripleStore shuffled;
  shuffled.insert_all(triples);

  reason::materialize(store, dict, vocab, {});
  reason::materialize(shuffled, dict, vocab, {});
  EXPECT_EQ(store.size(), shuffled.size());
  for (const rdf::Triple& t : store.triples()) {
    ASSERT_TRUE(shuffled.contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace parowl
