// Serving-layer equality rewriting: a QueryService (and DistService) built
// on a representative-space closure must answer byte-identically to one
// built on the naive closure — cache on or off, before and after updates
// that merge classes, across a snapshot save/load cycle, and across
// partition counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "parowl/dist/service.hpp"
#include "parowl/gen/sameas.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"

namespace parowl {
namespace {

const char* const kPrefix =
    "PREFIX id: <http://parowl.dev/onto/identity.owl#>\n";

std::vector<std::string> probe_queries() {
  return {
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x id:relatesTo0 ?y }",
      std::string(kPrefix) +
          "SELECT DISTINCT ?x WHERE { ?x id:relatesTo1 ?y }",
      std::string(kPrefix) +
          "SELECT ?y WHERE { id:Entity0_alias1 id:relatesTo0 ?y }",
      std::string(kPrefix) +
          "SELECT ?x ?z WHERE { ?x id:relatesTo0 ?y . ?y id:relatesTo1 ?z }",
      std::string(kPrefix) + "SELECT ?x ?n WHERE { ?x id:displayName ?n }",
  };
}

std::string unsupported_query() {
  return "SELECT ?x ?y WHERE { ?x <http://www.w3.org/2002/07/owl#sameAs> "
         "?y }";
}

/// Clique workload shared by every test: one dictionary, the asserted base,
/// a naive closure, and a rewrite closure with its frozen class map.
struct SameAsServeFixture {
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab;
  rdf::TripleStore base;
  rdf::TripleStore naive_store;
  rdf::TripleStore rewrite_store;
  std::shared_ptr<reason::EqualityManager> eq =
      std::make_shared<reason::EqualityManager>();

  SameAsServeFixture()
      : vocab(std::make_unique<ontology::Vocabulary>(dict)) {
    gen::SameAsOptions o;
    o.individuals = 40;
    o.max_clique_size = 5;
    gen::generate_sameas(o, dict, base);

    naive_store = base;
    reason::materialize(naive_store, dict, *vocab, {});

    rewrite_store = base;
    reason::MaterializeOptions opts;
    opts.equality_mode = reason::EqualityMode::kRewrite;
    opts.equality = eq.get();
    reason::materialize(rewrite_store, dict, *vocab, opts);
  }

  [[nodiscard]] std::unique_ptr<serve::QueryService> naive_service(
      serve::ServiceOptions o = small_options()) {
    rdf::TripleStore copy = naive_store;
    return std::make_unique<serve::QueryService>(
        dict, *vocab, std::move(copy), std::move(o), base.triples());
  }

  [[nodiscard]] std::unique_ptr<serve::QueryService> rewrite_service(
      serve::ServiceOptions o = small_options()) {
    rdf::TripleStore copy = rewrite_store;
    return std::make_unique<serve::QueryService>(
        dict, *vocab, std::move(copy), std::move(o), base.triples(), eq);
  }

  static serve::ServiceOptions small_options() {
    serve::ServiceOptions o;
    o.threads = 1;
    o.queue_capacity = 64;
    return o;
  }
};

std::vector<std::vector<rdf::TermId>> sorted_rows(query::ResultSet rs) {
  std::sort(rs.rows.begin(), rs.rows.end());
  return std::move(rs.rows);
}

// ---------------------------------------------------------------------------
// Single-store service

TEST(SameAsServe, AnswersMatchNaiveServiceCacheOnAndOff) {
  SameAsServeFixture fx;
  const auto naive = fx.naive_service();

  serve::ServiceOptions cached = SameAsServeFixture::small_options();
  serve::ServiceOptions uncached = SameAsServeFixture::small_options();
  uncached.cache_enabled = false;
  const auto with_cache = fx.rewrite_service(cached);
  const auto without_cache = fx.rewrite_service(uncached);

  for (const std::string& q : probe_queries()) {
    const serve::Response expected = naive->execute(q);
    ASSERT_EQ(expected.status, serve::RequestStatus::kOk) << q;

    const serve::Response miss = with_cache->execute(q);
    ASSERT_EQ(miss.status, serve::RequestStatus::kOk) << q;
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_EQ(sorted_rows(expected.results), sorted_rows(miss.results)) << q;

    // A cache hit must replay the already-expanded rows verbatim.
    const serve::Response hit = with_cache->execute(q);
    ASSERT_EQ(hit.status, serve::RequestStatus::kOk) << q;
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(miss.results.rows, hit.results.rows) << q;

    const serve::Response cold = without_cache->execute(q);
    ASSERT_EQ(cold.status, serve::RequestStatus::kOk) << q;
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_EQ(sorted_rows(expected.results), sorted_rows(cold.results)) << q;
  }
}

TEST(SameAsServe, UnsupportedShapeIsReportedAndCounted) {
  SameAsServeFixture fx;
  const auto service = fx.rewrite_service();

  const serve::Response r1 = service->execute(unsupported_query());
  EXPECT_EQ(r1.status, serve::RequestStatus::kUnsupported);
  EXPECT_FALSE(r1.error.empty());
  EXPECT_TRUE(r1.results.rows.empty());

  // Unsupported answers are never cached — the second call reruns the
  // shape check instead of hitting a bogus empty entry.
  const serve::Response r2 = service->execute(unsupported_query());
  EXPECT_EQ(r2.status, serve::RequestStatus::kUnsupported);
  EXPECT_FALSE(r2.cache_hit);

  const serve::ServiceStats stats = service->stats();
  EXPECT_EQ(stats.unsupported, 2u);
  EXPECT_EQ(stats.total_requests(), 2u);

  // The naive service happily answers the same query (sameAs cliques are
  // materialized there).
  const auto naive = fx.naive_service();
  const serve::Response naive_r = naive->execute(unsupported_query());
  EXPECT_EQ(naive_r.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(naive_r.results.rows.empty());
}

TEST(SameAsServe, UpdateMergingCliquesInvalidatesCacheAndMatchesNaive) {
  SameAsServeFixture fx;
  const auto service = fx.rewrite_service();

  const std::string probe =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x id:relatesTo0 ?y }";
  const serve::Response before = service->execute(probe);
  ASSERT_EQ(before.status, serve::RequestStatus::kOk);
  ASSERT_TRUE(service->execute(probe).cache_hit);  // primed

  // Bridge two cliques with one asserted sameAs edge.
  const rdf::Triple bridge{
      fx.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity0_alias0"),
      fx.vocab->owl_same_as,
      fx.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity1_alias0")};
  const serve::UpdateOutcome outcome = service->apply_update({&bridge, 1});
  EXPECT_GT(outcome.version, 0u);
  EXPECT_GT(outcome.result.eq_merges, 0u);

  // Ground truth: a naive service over base + bridge, materialized fresh.
  rdf::TripleStore naive_store = fx.base;
  naive_store.insert(bridge);
  reason::materialize(naive_store, fx.dict, *fx.vocab, {});
  serve::QueryService naive(fx.dict, *fx.vocab, std::move(naive_store),
                            SameAsServeFixture::small_options());

  // The merge changed relatesTo0 answers (alias0 of Entity1 now expands to
  // Entity0's aliases too), so the primed cache entry must be gone and the
  // fresh answer must match the naive closure.
  const serve::Response after = service->execute(probe);
  ASSERT_EQ(after.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  const serve::Response expected = naive.execute(probe);
  ASSERT_EQ(expected.status, serve::RequestStatus::kOk);
  EXPECT_EQ(sorted_rows(expected.results), sorted_rows(after.results));
  EXPECT_NE(sorted_rows(before.results), sorted_rows(after.results));
}

TEST(SameAsServe, DeletionTouchingTheClassMapIsRejectedUnpublished) {
  SameAsServeFixture fx;
  const auto service = fx.rewrite_service();
  const std::uint64_t version_before = service->execute("SELECT ?x WHERE { ?x a <" +
      std::string(gen::kSameAsNs) + "Entity> }").snapshot_version;

  // Any payload triple whose endpoint sits in a clique.
  const auto& base = fx.base.triples();
  const auto victim =
      std::find_if(base.begin(), base.end(), [&](const rdf::Triple& t) {
        return t.p != fx.vocab->owl_same_as &&
               (fx.eq->tracked(t.s) || fx.eq->tracked(t.o));
      });
  ASSERT_NE(victim, base.end());

  const serve::UpdateOutcome outcome =
      service->apply_update({}, {&*victim, 1});
  EXPECT_EQ(outcome.version, 0u);
  EXPECT_TRUE(outcome.maintain.equality_rejected);

  // Nothing was published: the snapshot version is unchanged and the
  // refused triple still answers.
  const serve::Response again = service->execute("SELECT ?x WHERE { ?x a <" +
      std::string(gen::kSameAsNs) + "Entity> }");
  EXPECT_EQ(again.snapshot_version, version_before);
}

TEST(SameAsServe, SnapshotRoundTripServesIdenticalAnswers) {
  SameAsServeFixture fx;
  const auto service = fx.rewrite_service();

  std::stringstream buf;
  const rdf::SnapshotStats stats = service->save_snapshot(buf);
  ASSERT_TRUE(buf.good());
  EXPECT_GT(stats.triples, 0u);

  rdf::Dictionary dict2;
  rdf::TripleStore store2;
  rdf::EqualityClassMap map2;
  std::string error;
  ASSERT_TRUE(rdf::load_snapshot(buf, dict2, store2, map2, &error)) << error;
  ASSERT_FALSE(map2.empty());

  auto eq2 = std::make_shared<reason::EqualityManager>(
      reason::EqualityManager::import_map(map2));
  const ontology::Vocabulary vocab2(dict2);
  serve::QueryService restored(dict2, vocab2, std::move(store2),
                               SameAsServeFixture::small_options(), {},
                               std::move(eq2));

  const auto naive = fx.naive_service();
  for (const std::string& q : probe_queries()) {
    const serve::Response expected = naive->execute(q);
    const serve::Response actual = restored.execute(q);
    ASSERT_EQ(actual.status, serve::RequestStatus::kOk) << q;
    EXPECT_EQ(sorted_rows(expected.results), sorted_rows(actual.results))
        << q;
  }
}

// ---------------------------------------------------------------------------
// Distributed facade

TEST(SameAsDist, AnswersMatchNaiveSingleStoreAcrossPartitionCounts) {
  SameAsServeFixture fx;
  const auto naive = fx.naive_service();

  for (const std::uint32_t k : {1u, 2u, 4u}) {
    const partition::HashOwnerPolicy policy;
    partition::OwnerTable owners =
        partition::partition_data(fx.rewrite_store, fx.dict, *fx.vocab,
                                  policy, k)
            .owners;
    parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
    dist::DistOptions o;
    o.threads = 1;
    o.queue_capacity = 64;
    o.equality = fx.eq;
    o.same_as = fx.vocab->owl_same_as;
    dist::DistService dist_service(fx.dict, fx.rewrite_store, std::move(owners),
                                   k, transport, std::move(o));

    for (const std::string& q : probe_queries()) {
      const serve::Response expected = naive->execute(q);
      const serve::Response actual = dist_service.execute(q);
      ASSERT_EQ(actual.status, serve::RequestStatus::kOk)
          << q << " @ k=" << k << ": " << actual.error;
      EXPECT_EQ(sorted_rows(expected.results), sorted_rows(actual.results))
          << q << " @ k=" << k;

      // Cached replay of the expanded merge must be byte-identical.
      const serve::Response hit = dist_service.execute(q);
      ASSERT_EQ(hit.status, serve::RequestStatus::kOk);
      EXPECT_TRUE(hit.cache_hit) << q << " @ k=" << k;
      EXPECT_EQ(actual.results.rows, hit.results.rows);
    }

    const serve::Response bad = dist_service.execute(unsupported_query());
    EXPECT_EQ(bad.status, serve::RequestStatus::kUnsupported);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_EQ(dist_service.stats().unsupported, 1u);
  }
}

}  // namespace
}  // namespace parowl
