// Equality rewriting correctness: a closure materialized in representative
// space, expanded through the class map, must be indistinguishable from the
// naive closure — same triples, same query answers (with multiplicities),
// bit-identical across thread counts — on both an equality-free dataset
// (LUBM) and the clique-heavy hard mode (gen::generate_sameas).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/sameas.hpp"
#include "parowl/query/equality_expand.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl {
namespace {

struct EqFixture {
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab;
  rdf::TripleStore base;

  explicit EqFixture(std::string_view dataset)
      : vocab(std::make_unique<ontology::Vocabulary>(dict)) {
    if (dataset == "lubm") {
      gen::LubmOptions o;
      o.universities = 1;
      gen::generate_lubm(o, dict, base);
    } else {
      gen::SameAsOptions o;
      o.individuals = 60;
      o.max_clique_size = 5;
      gen::generate_sameas(o, dict, base);
    }
  }
};

struct NaiveRun {
  rdf::TripleStore store;
  reason::MaterializeResult result;
};

NaiveRun naive_closure(const EqFixture& f, unsigned threads = 1) {
  NaiveRun r;
  r.store = f.base;
  reason::MaterializeOptions opts;
  opts.threads = threads;
  r.result = reason::materialize(r.store, f.dict, *f.vocab, opts);
  return r;
}

struct RewriteRun {
  rdf::TripleStore store;
  reason::EqualityManager eq;
  reason::MaterializeResult result;
};

RewriteRun rewrite_closure(const EqFixture& f, unsigned threads = 1) {
  RewriteRun r;
  r.store = f.base;
  reason::MaterializeOptions opts;
  opts.threads = threads;
  opts.equality_mode = reason::EqualityMode::kRewrite;
  opts.equality = &r.eq;
  r.result = reason::materialize(r.store, f.dict, *f.vocab, opts);
  return r;
}

std::vector<rdf::Triple> sorted(std::vector<rdf::Triple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::vector<rdf::TermId>> sorted_rows(query::ResultSet rs) {
  std::sort(rs.rows.begin(), rs.rows.end());
  return std::move(rs.rows);
}

query::SelectQuery parse(rdf::Dictionary& dict, const std::string& text) {
  query::SparqlParser parser(dict);
  parser.add_prefix("id", gen::kSameAsNs);
  std::string error;
  auto q = parser.parse(text, &error);
  EXPECT_TRUE(q.has_value()) << error << "\n" << text;
  return *q;
}

void expect_maps_equal(const rdf::EqualityClassMap& a,
                       const rdf::EqualityClassMap& b, const char* label) {
  EXPECT_EQ(a.members, b.members) << label;
  EXPECT_EQ(a.literals, b.literals) << label;
  EXPECT_EQ(a.self_terms, b.self_terms) << label;
  EXPECT_EQ(a.raw_edges, b.raw_edges) << label;
}

// ---------------------------------------------------------------------------
// Closure equivalence

TEST(SameAsEquivalence, ExpandedClosureMatchesNaiveOnCliqueData) {
  EqFixture f("cliques");
  const NaiveRun naive = naive_closure(f);
  const RewriteRun rewrite = rewrite_closure(f);

  EXPECT_GT(rewrite.result.eq_merges, 0u);
  EXPECT_EQ(rewrite.result.eq_conflicts, 0u);
  // The whole point: representative space is strictly smaller than the
  // naive closure with its sameAs cliques and duplicated payload.
  EXPECT_LT(rewrite.store.size(), naive.store.size());

  const std::vector<rdf::Triple> expanded = reason::expand_closure(
      rewrite.store, rewrite.eq, f.vocab->owl_same_as);
  EXPECT_EQ(expanded, sorted(naive.store.triples()));
}

TEST(SameAsEquivalence, ExpandedClosureMatchesNaiveOnLubm) {
  // LUBM asserts no equality at all: the rewrite must be a no-op that still
  // produces the identical closure (and an empty class map).
  EqFixture f("lubm");
  const NaiveRun naive = naive_closure(f);
  const RewriteRun rewrite = rewrite_closure(f);

  EXPECT_EQ(rewrite.result.eq_merges, 0u);
  EXPECT_TRUE(rewrite.eq.empty());
  const std::vector<rdf::Triple> expanded = reason::expand_closure(
      rewrite.store, rewrite.eq, f.vocab->owl_same_as);
  EXPECT_EQ(expanded, sorted(naive.store.triples()));
}

TEST(SameAsEquivalence, RewriteBitIdenticalAcrossThreadCounts) {
  // Union-by-min representatives are merge-order independent, and the
  // barrier merge intercepts in shard order — so the rewritten store log
  // AND the class map must be bit-identical for every thread count.
  EqFixture f("cliques");
  const RewriteRun ref = rewrite_closure(f, 1);
  const rdf::EqualityClassMap ref_map = ref.eq.export_map();
  for (const unsigned threads : {2u, 4u, 8u}) {
    const RewriteRun r = rewrite_closure(f, threads);
    EXPECT_EQ(ref.store.triples(), r.store.triples())
        << threads << " threads (insertion-log order)";
    expect_maps_equal(ref_map, r.eq.export_map(), "threaded map");
    EXPECT_EQ(ref.result.eq_merges, r.result.eq_merges);
  }
}

// ---------------------------------------------------------------------------
// Query-level equivalence

TEST(SameAsEquivalence, QueryAnswersMatchNaiveWithMultiplicities) {
  EqFixture f("cliques");
  const NaiveRun naive = naive_closure(f);
  const RewriteRun rewrite = rewrite_closure(f);

  const std::vector<std::string> queries = {
      "SELECT ?x ?y WHERE { ?x id:relatesTo0 ?y }",
      "SELECT DISTINCT ?x WHERE { ?x id:relatesTo0 ?y }",
      "SELECT ?y WHERE { id:Entity0_alias1 id:relatesTo0 ?y }",
      "SELECT ?x ?z WHERE { ?x id:relatesTo0 ?y . ?y id:relatesTo1 ?z }",
      "SELECT ?x ?n WHERE { ?x id:displayName ?n }",
      "SELECT DISTINCT ?x ?y WHERE { ?x id:profileDoc ?y }",
  };
  for (const std::string& text : queries) {
    const query::SelectQuery q = parse(f.dict, text);
    const query::ResultSet naive_rows = query::evaluate(naive.store, q);
    const query::EqualityEvalResult eq_rows = query::evaluate_with_equality(
        rewrite.store, q, rewrite.eq, f.vocab->owl_same_as);
    ASSERT_FALSE(eq_rows.unsupported) << text << ": " << eq_rows.message;
    EXPECT_EQ(sorted_rows(naive_rows), sorted_rows(eq_rows.results)) << text;
  }
}

TEST(SameAsEquivalence, LimitAppliesAfterExpansion) {
  EqFixture f("cliques");
  const NaiveRun naive = naive_closure(f);
  const RewriteRun rewrite = rewrite_closure(f);

  query::SelectQuery q =
      parse(f.dict, "SELECT ?x ?y WHERE { ?x id:relatesTo0 ?y }");
  const std::size_t full =
      query::evaluate_with_equality(rewrite.store, q, rewrite.eq,
                                    f.vocab->owl_same_as)
          .results.size();
  ASSERT_GT(full, 10u);
  q.limit = 10;
  const query::EqualityEvalResult limited = query::evaluate_with_equality(
      rewrite.store, q, rewrite.eq, f.vocab->owl_same_as);
  EXPECT_EQ(limited.results.size(), 10u);
  // Every limited row is a genuine naive answer.
  q.limit.reset();
  const auto all = sorted_rows(query::evaluate(naive.store, q));
  for (const auto& row : limited.results.rows) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), row));
  }
}

TEST(SameAsEquivalence, LimitZeroReturnsNoRows) {
  EqFixture f("cliques");
  const RewriteRun rewrite = rewrite_closure(f);

  for (const char* text : {"SELECT ?x ?y WHERE { ?x id:relatesTo0 ?y }",
                           "SELECT DISTINCT ?x WHERE { ?x id:relatesTo0 ?y }"}) {
    query::SelectQuery q = parse(f.dict, text);
    q.limit = 0;
    EXPECT_EQ(query::evaluate_with_equality(rewrite.store, q, rewrite.eq,
                                            f.vocab->owl_same_as)
                  .results.size(),
              0u)
        << text;
    // The split form, as the sharded router runs it.
    std::string message;
    const std::optional<query::SelectQuery> widened =
        query::rewrite_for_equality(q, rewrite.eq, f.vocab->owl_same_as,
                                    &message);
    ASSERT_TRUE(widened.has_value()) << text << ": " << message;
    const query::ResultSet rep_rows = query::evaluate(rewrite.store, *widened);
    ASSERT_GT(rep_rows.size(), 0u) << text;
    EXPECT_EQ(
        query::expand_equality_results(q, rep_rows, rewrite.eq).results.size(),
        0u)
        << text;
  }
}

TEST(SameAsEquivalence, UnsupportedShapesAreRejectedNotWrong) {
  EqFixture f("cliques");
  const RewriteRun rewrite = rewrite_closure(f);

  // A sameAs atom: the rewritten store holds no sameAs triples.
  {
    const query::SelectQuery q = parse(
        f.dict,
        "SELECT ?x ?y WHERE { ?x <http://www.w3.org/2002/07/owl#sameAs> "
        "?y }");
    const auto r = query::evaluate_with_equality(rewrite.store, q, rewrite.eq,
                                                 f.vocab->owl_same_as);
    EXPECT_TRUE(r.unsupported);
    EXPECT_FALSE(r.message.empty());
  }
  // A constant object that is an attached literal partner: canonical
  // triples carry the representative, not the literal.
  {
    const query::SelectQuery q = parse(
        f.dict, "SELECT ?x WHERE { ?x id:profileDoc \"doc://entity-0\" }");
    const auto r = query::evaluate_with_equality(rewrite.store, q, rewrite.eq,
                                                 f.vocab->owl_same_as);
    EXPECT_TRUE(r.unsupported);
  }
}

// ---------------------------------------------------------------------------
// Lazy endpoint index (the rewrite removes the only wildcard-pivot rules)

TEST(SameAsEquivalence, EndpointIndexNeverBuiltUnderRewrite) {
  EqFixture f("cliques");
  const RewriteRun rewrite = rewrite_closure(f);
  EXPECT_EQ(rewrite.result.endpoint_index_builds, 0u);

  const NaiveRun naive = naive_closure(f);
  EXPECT_GT(naive.result.endpoint_index_builds, 0u)
      << "naive sameAs propagation should probe unbound-predicate pivots";
}

// ---------------------------------------------------------------------------
// Snapshot v3 round trip

TEST(SameAsEquivalence, SnapshotV3RoundTripsClassMap) {
  EqFixture f("cliques");
  const RewriteRun rewrite = rewrite_closure(f);
  const rdf::EqualityClassMap map = rewrite.eq.export_map();
  ASSERT_FALSE(map.empty());

  std::stringstream buf;
  rdf::save_snapshot(buf, f.dict, rewrite.store, &map);
  ASSERT_TRUE(buf.good());

  rdf::Dictionary dict2;
  rdf::TripleStore store2;
  rdf::EqualityClassMap map2;
  std::string error;
  ASSERT_TRUE(rdf::load_snapshot(buf, dict2, store2, map2, &error)) << error;
  EXPECT_EQ(store2.triples(), rewrite.store.triples());
  expect_maps_equal(map, map2, "roundtrip");

  // The reloaded map must answer queries exactly like the original.
  const reason::EqualityManager eq2 =
      reason::EqualityManager::import_map(map2);
  const NaiveRun naive = naive_closure(f);
  const query::SelectQuery q =
      parse(f.dict, "SELECT ?x ?y WHERE { ?x id:relatesTo1 ?y }");
  const auto r = query::evaluate_with_equality(
      store2, q, eq2, ontology::Vocabulary(dict2).owl_same_as);
  ASSERT_FALSE(r.unsupported);
  EXPECT_EQ(sorted_rows(query::evaluate(naive.store, q)),
            sorted_rows(r.results));
}

// ---------------------------------------------------------------------------
// Incremental maintenance under rewrite

TEST(SameAsEquivalence, IncrementalMergeMatchesNaiveRematerialization) {
  EqFixture f("cliques");
  RewriteRun rewrite = rewrite_closure(f);

  // Bridge two previously separate cliques with one asserted sameAs edge.
  const rdf::TermId a =
      f.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity0_alias0");
  const rdf::TermId b =
      f.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity1_alias0");
  const rdf::Triple bridge{a, f.vocab->owl_same_as, b};
  const reason::IncrementalResult inc = reason::materialize_incremental(
      rewrite.store, f.dict, *f.vocab, {&bridge, 1}, {}, 1,
      reason::EqualityMode::kRewrite, &rewrite.eq);
  EXPECT_FALSE(inc.schema_changed);
  EXPECT_GT(inc.eq_merges, 0u);
  EXPECT_GT(inc.eq_rebuilds, 0u);

  // Ground truth: naive closure over base + bridge.
  EqFixture g("cliques");
  rdf::TripleStore naive_store = g.base;
  naive_store.insert(
      {g.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity0_alias0"),
       g.vocab->owl_same_as,
       g.dict.intern_iri(std::string(gen::kSameAsNs) + "Entity1_alias0")});
  reason::materialize(naive_store, g.dict, *g.vocab, {});

  // Same dictionary seeding order, so TermIds line up across fixtures.
  const std::vector<rdf::Triple> expanded = reason::expand_closure(
      rewrite.store, rewrite.eq, f.vocab->owl_same_as);
  EXPECT_EQ(expanded, sorted(naive_store.triples()));
}

TEST(SameAsEquivalence, MaintainerRejectsDeletionsTouchingTheMap) {
  EqFixture f("cliques");
  RewriteRun rewrite = rewrite_closure(f);
  const std::vector<rdf::Triple>& asserted = f.base.triples();
  rdf::TripleSet base(asserted);
  const std::vector<rdf::Triple> log_before = rewrite.store.triples();

  reason::MaintainOptions mopts;
  mopts.equality_mode = reason::EqualityMode::kRewrite;
  mopts.equality = &rewrite.eq;
  const reason::Maintainer maintainer(f.dict, *f.vocab, mopts);

  // (a) deleting an asserted sameAs edge would shrink a clique.
  const auto same_as_edge = std::find_if(
      asserted.begin(), asserted.end(),
      [&](const rdf::Triple& t) { return t.p == f.vocab->owl_same_as; });
  ASSERT_NE(same_as_edge, asserted.end());
  {
    const reason::MaintainResult r =
        maintainer.apply(rewrite.store, base, {}, {&*same_as_edge, 1});
    EXPECT_TRUE(r.equality_rejected);
    EXPECT_EQ(rewrite.store.triples(), log_before) << "store must be intact";
  }

  // (b) deleting a payload fact whose endpoint sits in a class: the
  // rederivation cone cannot be trusted in representative space.
  const auto tracked_payload = std::find_if(
      asserted.begin(), asserted.end(), [&](const rdf::Triple& t) {
        return t.p != f.vocab->owl_same_as &&
               (rewrite.eq.tracked(t.s) || rewrite.eq.tracked(t.o));
      });
  ASSERT_NE(tracked_payload, asserted.end());
  {
    const reason::MaintainResult r =
        maintainer.apply(rewrite.store, base, {}, {&*tracked_payload, 1});
    EXPECT_TRUE(r.equality_rejected);
    EXPECT_EQ(rewrite.store.triples(), log_before) << "store must be intact";
  }
}

TEST(SameAsEquivalence, MaintainerStillDeletesOnEqualityFreeData) {
  // The rejection must be surgical: a rewrite-mode store with an *empty*
  // class map (LUBM) maintains deletions exactly like naive mode.
  EqFixture f("lubm");
  RewriteRun rewrite = rewrite_closure(f);
  ASSERT_TRUE(rewrite.eq.empty());
  const std::vector<rdf::Triple>& asserted = f.base.triples();
  rdf::TripleSet base(asserted);

  reason::MaintainOptions mopts;
  mopts.equality_mode = reason::EqualityMode::kRewrite;
  mopts.equality = &rewrite.eq;
  const reason::Maintainer maintainer(f.dict, *f.vocab, mopts);

  // Any instance triple will do; schema triples are rejected elsewhere.
  const ontology::Vocabulary& v = *f.vocab;
  const auto instance =
      std::find_if(asserted.begin(), asserted.end(),
                   [&](const rdf::Triple& t) { return !v.is_schema_triple(t); });
  ASSERT_NE(instance, asserted.end());
  const reason::MaintainResult r =
      maintainer.apply(rewrite.store, base, {}, {&*instance, 1});
  EXPECT_FALSE(r.equality_rejected);
  EXPECT_FALSE(r.schema_changed);
  EXPECT_GT(r.base_deleted, 0u);
}

}  // namespace
}  // namespace parowl
