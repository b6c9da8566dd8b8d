#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "parowl/partition/graph.hpp"
#include "parowl/partition/multilevel.hpp"
#include "parowl/partition/partitioner.hpp"
#include "parowl/partition/streaming.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/util/rng.hpp"

namespace parowl::partition {
namespace {

Graph path_graph(std::uint32_t n) {
  std::vector<WeightedEdge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1, 1});
  }
  return build_graph(n, edges);
}

/// Two dense clusters of size n joined by a single bridge edge.
Graph two_cluster_graph(std::uint32_t n) {
  std::vector<WeightedEdge> edges;
  for (std::uint32_t c = 0; c < 2; ++c) {
    const std::uint32_t base = c * n;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        edges.push_back({base + i, base + j, 1});
      }
    }
  }
  edges.push_back({0, n, 1});  // bridge
  return build_graph(2 * n, edges);
}

TEST(BuildGraph, MergesParallelEdgesAndDropsSelfLoops) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}, {1, 0, 2}, {1, 1, 5}};
  const Graph g = build_graph(2, edges);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.adjwgt[g.xadj[0]], 3u);  // 1 + 2 merged
}

TEST(BuildGraph, VertexWeightsDefaultToOne) {
  const Graph g = build_graph(3, {});
  EXPECT_EQ(g.total_vwgt, 3u);
  const std::vector<std::uint64_t> weights{5, 2, 1};
  const Graph h = build_graph(3, {}, weights);
  EXPECT_EQ(h.total_vwgt, 8u);
}

TEST(BuildGraph, CsrIsConsistent) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}};
  const Graph g = build_graph(3, edges);
  EXPECT_EQ(g.xadj.size(), 4u);
  EXPECT_EQ(g.xadj.back(), g.adjncy.size());
  // Triangle: every vertex has degree 2.
  for (std::uint32_t v = 0; v < 3; ++v) {
    EXPECT_EQ(g.neighbors(v).size(), 2u);
  }
}

TEST(ResourceGraph, BuiltFromTriples) {
  rdf::Dictionary dict;
  const auto a = dict.intern_iri("a"), b = dict.intern_iri("b"),
             p = dict.intern_iri("p");
  const auto lit = dict.intern_literal("\"x\"");
  const std::vector<rdf::Triple> triples{{a, p, b}, {a, p, lit}};
  const ResourceGraph rg = build_resource_graph(triples, dict);
  // a and b are vertices; the literal is not.
  EXPECT_EQ(rg.graph.num_vertices(), 2u);
  EXPECT_EQ(rg.graph.num_edges(), 1u);
  EXPECT_TRUE(rg.node_of.contains(a));
  EXPECT_FALSE(rg.node_of.contains(lit));
  EXPECT_EQ(rg.node_term[rg.node_of.at(b)], b);
}

TEST(PartitionGraph, KEqualsOneIsTrivial) {
  const Graph g = path_graph(10);
  const PartitionPlan plan = partition_csr_graph(g, 1);
  EXPECT_EQ(plan.metrics.edge_cut, 0u);
  for (const auto part : plan.assignment) {
    EXPECT_EQ(part, 0u);
  }
}

TEST(PartitionGraph, BisectionOfPathCutsOneEdge) {
  const Graph g = path_graph(64);
  const PartitionPlan plan = partition_csr_graph(g, 2);
  EXPECT_EQ(plan.metrics.edge_cut, 1u);  // optimal for a path
  ASSERT_EQ(plan.metrics.partition_weights.size(), 2u);
  EXPECT_NEAR(static_cast<double>(plan.metrics.partition_weights[0]), 32.0,
              4.0);
}

TEST(PartitionGraph, FindsTheBridgeBetweenClusters) {
  const Graph g = two_cluster_graph(20);
  const PartitionPlan plan = partition_csr_graph(g, 2);
  EXPECT_EQ(plan.metrics.edge_cut, 1u);
  // The two clusters must be separated exactly.
  for (std::uint32_t v = 1; v < 20; ++v) {
    EXPECT_EQ(plan.assignment[v], plan.assignment[0]);
    EXPECT_EQ(plan.assignment[20 + v], plan.assignment[20]);
  }
  EXPECT_NE(plan.assignment[0], plan.assignment[20]);
}

TEST(PartitionGraph, AssignmentsAreInRange) {
  const Graph g = two_cluster_graph(12);
  for (const int k : {2, 3, 4, 7}) {
    const PartitionPlan plan = partition_csr_graph(g, k);
    for (const auto part : plan.assignment) {
      EXPECT_LT(part, static_cast<std::uint32_t>(k));
    }
  }
}

TEST(PartitionGraph, BalancedOnRandomGraph) {
  util::Rng rng(5);
  const std::uint32_t n = 4000;
  std::vector<WeightedEdge> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      edges.push_back({i, static_cast<std::uint32_t>(rng.below(n)), 1});
    }
  }
  const Graph g = build_graph(n, edges);
  for (const int k : {2, 4, 8}) {
    const PartitionPlan plan = partition_csr_graph(g, k);
    const double target = static_cast<double>(n) / k;
    for (const auto w : plan.metrics.partition_weights) {
      EXPECT_LT(static_cast<double>(w), target * 1.3)
          << "k=" << k << " imbalanced";
      EXPECT_GT(static_cast<double>(w), target * 0.7);
    }
  }
}

TEST(PartitionGraph, RefinementReducesCut) {
  util::Rng rng(17);
  // Ring of cliques: refinement should find clean clique boundaries.
  const std::uint32_t cliques = 16, size = 12;
  std::vector<WeightedEdge> edges;
  for (std::uint32_t c = 0; c < cliques; ++c) {
    const std::uint32_t base = c * size;
    for (std::uint32_t i = 0; i < size; ++i) {
      for (std::uint32_t j = i + 1; j < size; ++j) {
        edges.push_back({base + i, base + j, 1});
      }
    }
    edges.push_back({base, ((c + 1) % cliques) * size, 1});
  }
  const Graph g = build_graph(cliques * size, edges);

  const auto cut = partition_csr_graph(g, 4).metrics.edge_cut;
  EXPECT_LE(cut, 16u);  // never worse than cutting every bridge
}

TEST(PartitionGraph, DeterministicForSameSeed) {
  const Graph g = two_cluster_graph(30);
  PartitionerOptions opts;
  opts.seed = 99;
  const auto a = partition_csr_graph(g, 4, opts);
  const auto b = partition_csr_graph(g, 4, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.metrics.edge_cut, b.metrics.edge_cut);
}

TEST(PartitionGraph, HandlesDisconnectedGraph) {
  // Two components, no edges between them at all.
  std::vector<WeightedEdge> edges;
  for (std::uint32_t i = 0; i + 1 < 50; ++i) {
    edges.push_back({i, i + 1, 1});
    edges.push_back({50 + i, 50 + i + 1, 1});
  }
  const Graph g = build_graph(100, edges);
  const PartitionPlan plan = partition_csr_graph(g, 2);
  EXPECT_EQ(plan.metrics.edge_cut, 0u);
  EXPECT_EQ(plan.metrics.partition_weights[0], 50u);
}

TEST(PartitionGraph, EmptyGraph) {
  const Graph g = build_graph(0, {});
  const PartitionPlan plan = partition_csr_graph(g, 4);
  EXPECT_TRUE(plan.assignment.empty());
  EXPECT_EQ(plan.metrics.edge_cut, 0u);
}

TEST(PartitionGraph, SingleVertex) {
  const Graph g = build_graph(1, {});
  const PartitionPlan plan = partition_csr_graph(g, 4);
  ASSERT_EQ(plan.assignment.size(), 1u);
  EXPECT_LT(plan.assignment[0], 4u);
}

TEST(PartitionGraph, BalancesVertexWeightsNotCounts) {
  // 64 light vertices (weight 1) + 8 heavy ones (weight 8) in one clique
  // chain; a 2-way split must balance total weight, so the heavy vertices
  // cannot all land on one side with half the light ones.
  std::vector<WeightedEdge> edges;
  std::vector<std::uint64_t> weights(72, 1);
  for (std::uint32_t i = 0; i + 1 < 72; ++i) {
    edges.push_back({i, i + 1, 1});
  }
  for (std::uint32_t h = 64; h < 72; ++h) {
    weights[h] = 8;
  }
  const Graph g = build_graph(72, edges, weights);
  EXPECT_EQ(g.total_vwgt, 64u + 8u * 8u);

  const PartitionPlan plan = partition_csr_graph(g, 2);
  const double half = static_cast<double>(g.total_vwgt) / 2;
  EXPECT_NEAR(static_cast<double>(plan.metrics.partition_weights[0]), half,
              half * 0.25);
}

TEST(ComputeGraphMetrics, CountsWeightedCrossings) {
  const std::vector<WeightedEdge> edges{{0, 1, 5}, {1, 2, 3}};
  const Graph g = build_graph(3, edges);
  const std::vector<std::uint32_t> split_last{0, 0, 1};
  const std::vector<std::uint32_t> split_mid{0, 1, 0};
  const std::vector<std::uint32_t> all_one{0, 0, 0};
  EXPECT_EQ(compute_graph_metrics(g, split_last, 2).edge_cut, 3u);
  EXPECT_EQ(compute_graph_metrics(g, split_mid, 2).edge_cut, 8u);
  EXPECT_EQ(compute_graph_metrics(g, all_one, 2).edge_cut, 0u);
}

TEST(ComputeGraphMetrics, ReplicationUnderPlacementRule) {
  // Path 0-1-2 split {0},{1},{2}: every vertex is replicated to each
  // neighbor's partition.  RF = (2 + 3 + 2) / 3.
  const Graph g = path_graph(3);
  const std::vector<std::uint32_t> assignment{0, 1, 2};
  const PartitionMetrics m = compute_graph_metrics(g, assignment, 3);
  EXPECT_NEAR(m.replication_factor, 7.0 / 3.0, 1e-9);
  EXPECT_EQ(m.total_nodes, 3u);
  EXPECT_EQ(m.edge_cut, 2u);
}

// ---------------------------------------------------------------------------
// Streaming partitioners (HDRF / NE).
// ---------------------------------------------------------------------------

/// Synthetic instance triples: `n` entities, `m` random subject-object
/// edges, deterministic under `seed`.
struct TripleFixture {
  rdf::Dictionary dict;
  std::vector<rdf::Triple> triples;
  std::vector<rdf::TermId> entities;

  TripleFixture(std::uint32_t n, std::size_t m, std::uint64_t seed) {
    const auto p = dict.intern_iri("http://ex/p");
    entities.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      entities.push_back(
          dict.intern_iri("http://ex/e" + std::to_string(i)));
    }
    util::Rng rng(seed);
    triples.reserve(m);
    for (std::size_t e = 0; e < m; ++e) {
      const auto s = entities[rng.below(n)];
      const auto o = entities[rng.below(n)];
      triples.push_back({s, p, o});
    }
  }
};

PartitionerOptions streaming_options(PartitionerKind kind) {
  PartitionerOptions opts;
  opts.kind = kind;
  return opts;
}

TEST(StreamingPartitioner, DeterministicForSameStream) {
  const TripleFixture fx(300, 2000, 11);
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    const PartitionerOptions opts = streaming_options(kind);
    auto first = make_partitioner(opts, fx.dict, 4);
    first->ingest(fx.triples);
    const PartitionPlan a = first->finalize();
    auto second = make_partitioner(opts, fx.dict, 4);
    second->ingest(fx.triples);
    const PartitionPlan b = second->finalize();
    EXPECT_EQ(a.owners, b.owners) << a.algorithm;
    EXPECT_EQ(a.metrics.edge_cut, b.metrics.edge_cut);
  }
}

TEST(StreamingPartitioner, IndependentOfChunkBoundaries) {
  const TripleFixture fx(300, 2000, 23);
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    const PartitionerOptions opts = streaming_options(kind);
    auto whole = make_partitioner(opts, fx.dict, 4);
    whole->ingest(fx.triples);
    const PartitionPlan reference = whole->finalize();

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1000}}) {
      auto chunked = make_partitioner(opts, fx.dict, 4);
      for (std::size_t at = 0; at < fx.triples.size(); at += chunk) {
        const std::size_t len = std::min(chunk, fx.triples.size() - at);
        chunked->ingest(
            std::span<const rdf::Triple>(fx.triples).subspan(at, len));
      }
      const PartitionPlan plan = chunked->finalize();
      EXPECT_EQ(plan.owners, reference.owners)
          << reference.algorithm << " chunk=" << chunk;
    }
  }
}

TEST(StreamingPartitioner, IndependentOfIngestThreads) {
  // The chunk_sink hook feeds the partitioner straight from the parallel
  // reader; the assignment must match the serial reader bit for bit.
  std::string text;
  util::Rng rng(7);
  const std::uint32_t n = 200;
  for (std::size_t e = 0; e < 3000; ++e) {
    text += "<http://ex/e" + std::to_string(rng.below(n)) + "> <http://ex/p> "
            "<http://ex/e" + std::to_string(rng.below(n)) + "> .\n";
  }

  OwnerTable reference;
  for (const unsigned threads : {1u, 4u}) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    PartitionerOptions opts = streaming_options(PartitionerKind::kHdrf);
    auto partitioner = make_partitioner(opts, dict, 4);
    rdf::IngestOptions ingest;
    ingest.threads = threads;
    ingest.chunk_sink = [&](std::span<const rdf::Triple> chunk) {
      partitioner->ingest(chunk);
    };
    rdf::ingest_ntriples(text, dict, store, ingest);
    PartitionPlan plan = partitioner->finalize();
    EXPECT_EQ(plan.triples_ingested, store.size());
    if (threads == 1) {
      reference = std::move(plan.owners);
    } else {
      EXPECT_EQ(plan.owners, reference);
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(StreamingPartitioner, HonorsBalanceSlack) {
  const TripleFixture fx(600, 4000, 31);
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    PartitionerOptions opts = streaming_options(kind);
    opts.balance_slack = 0.05;
    auto partitioner = make_partitioner(opts, fx.dict, 4);
    partitioner->ingest(fx.triples);
    const PartitionPlan plan = partitioner->finalize();
    ASSERT_EQ(plan.metrics.partition_weights.size(), 4u);
    std::uint64_t total = 0;
    for (const auto w : plan.metrics.partition_weights) {
      total += w;
    }
    // Progressive cap + least-loaded fallback guarantee:
    //   max_load <= (1 + slack) * total / k + max_vertex_weight.
    const double bound =
        (1.0 + opts.balance_slack) * static_cast<double>(total) / 4.0 + 2.0;
    for (const auto w : plan.metrics.partition_weights) {
      EXPECT_LE(static_cast<double>(w), bound) << plan.algorithm;
    }
  }
}

TEST(StreamingPartitioner, PeakStateIsLinearInVertices) {
  // Many more edges than vertices: state must track |V| + window + k^2,
  // never |E| (the acceptance criterion for the streaming path).
  const std::uint32_t n = 500;
  const std::size_t m = 30000;
  const TripleFixture fx(n, m, 43);
  PartitionerOptions opts = streaming_options(PartitionerKind::kHdrf);
  auto partitioner = make_partitioner(opts, fx.dict, 8);
  partitioner->ingest(fx.triples);
  const PartitionPlan plan = partitioner->finalize();
  EXPECT_EQ(plan.triples_ingested, m);
  const std::size_t window = 4096;  // the streaming re-windowing size
  const std::size_t budget = n + window + 8 * 8 + 2 * 8 + 64;
  EXPECT_LE(plan.peak_state_entries, budget);
  EXPECT_LT(plan.peak_state_entries, m / 4);  // decisively below O(|E|)
}

/// Community-structured triples: dense blocks with sparse cross edges.
TripleFixture community_fixture(std::uint32_t communities,
                                std::uint32_t size, std::uint64_t seed) {
  TripleFixture fx(communities * size, 0, seed);
  const auto p = fx.dict.intern_iri("http://ex/p");
  util::Rng rng(seed);
  for (std::uint32_t c = 0; c < communities; ++c) {
    const std::uint32_t base = c * size;
    for (std::size_t e = 0; e < std::size_t{6} * size; ++e) {
      const auto s = fx.entities[base + rng.below(size)];
      const auto o = fx.entities[base + rng.below(size)];
      fx.triples.push_back({s, p, o});
    }
    // A few cross-community edges.
    const auto s = fx.entities[base + rng.below(size)];
    const auto o = fx.entities[rng.below(communities * size)];
    fx.triples.push_back({s, p, o});
  }
  return fx;
}

TEST(StreamingPartitioner, HonorsBalanceSlackOnCommunities) {
  // Dense blocks tempt a region grower to keep filling the part it is in;
  // the balance cap must still hold at k.
  const TripleFixture fx = community_fixture(16, 30, 3);
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    const PartitionerOptions opts = streaming_options(kind);
    auto partitioner = make_partitioner(opts, fx.dict, 4);
    partitioner->ingest(fx.triples);
    const PartitionPlan plan = partitioner->finalize();
    ASSERT_EQ(plan.metrics.partition_weights.size(), 4u) << plan.algorithm;
    std::uint64_t total = 0;
    for (const auto w : plan.metrics.partition_weights) {
      total += w;
    }
    const double bound =
        (1.0 + opts.balance_slack) * static_cast<double>(total) / 4.0 + 2.0;
    for (const auto w : plan.metrics.partition_weights) {
      EXPECT_LE(static_cast<double>(w), bound) << plan.algorithm;
    }
  }
}

TEST(StreamingPartitioner, NeReplicatesLessThanHdrfOnCommunities) {
  // NE grows each part from a block's interior, so a block lands mostly in
  // one part; HDRF scores edges one at a time and spreads every block.
  const TripleFixture fx = community_fixture(16, 30, 3);
  double replication[2] = {};
  std::uint64_t cut[2] = {};
  int i = 0;
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    auto partitioner = make_partitioner(streaming_options(kind), fx.dict, 4);
    partitioner->ingest(fx.triples);
    const PartitionPlan plan = partitioner->finalize();
    replication[i] = plan.metrics.replication_factor;
    cut[i] = plan.metrics.edge_cut;
    ++i;
  }
  EXPECT_LT(replication[1], replication[0]);
  EXPECT_LT(cut[1], cut[0]);
}

TEST(StreamingCsr, AssignmentsValidForAllKinds) {
  const Graph g = two_cluster_graph(16);
  for (const auto kind : {PartitionerKind::kHdrf, PartitionerKind::kNe}) {
    const PartitionPlan plan =
        partition_csr_graph(g, 4, streaming_options(kind));
    ASSERT_EQ(plan.assignment.size(), g.num_vertices()) << plan.algorithm;
    for (const auto part : plan.assignment) {
      EXPECT_LT(part, 4u);
    }
    EXPECT_EQ(plan.partitions, 4u);
    EXPECT_TRUE(plan.owners.empty());
  }
}

TEST(StreamingCsr, NeKeepsClustersMostlyTogether) {
  // Two dense clusters: a window-local BFS region grower should cut far
  // fewer edges than a random split (~half of 381).
  const Graph g = two_cluster_graph(20);
  const PartitionPlan plan =
      partition_csr_graph(g, 2, streaming_options(PartitionerKind::kNe));
  EXPECT_LT(plan.metrics.edge_cut, g.num_edges() / 3);
}

TEST(PartitionerFactory, ParsesKindNames) {
  EXPECT_EQ(partitioner_kind_from("hdrf"), PartitionerKind::kHdrf);
  EXPECT_EQ(partitioner_kind_from("ne"), PartitionerKind::kNe);
  EXPECT_EQ(partitioner_kind_from("multilevel"), PartitionerKind::kMultilevel);
  // Legacy alias used by the old --policy flag.
  EXPECT_EQ(partitioner_kind_from("graph"), PartitionerKind::kMultilevel);
  EXPECT_FALSE(partitioner_kind_from("metis").has_value());
  EXPECT_EQ(to_string(PartitionerKind::kNe), "ne");
}

TEST(PartitionerFactory, StreamingRejectsTooManyPartitions) {
  rdf::Dictionary dict;
  EXPECT_THROW(
      make_partitioner(streaming_options(PartitionerKind::kHdrf), dict, 65),
      std::invalid_argument);
}

}  // namespace
}  // namespace parowl::partition
