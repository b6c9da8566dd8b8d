#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"

namespace parowl::reason {
namespace {

/// Sorted copy of a store's log — the oracle comparison domain.  Survivor
/// positions differ from a from-scratch run (they keep their original log
/// slots), so maintained-vs-rematerialized equality is on sorted sequences.
std::vector<rdf::Triple> sorted_triples(const rdf::TripleStore& store) {
  std::vector<rdf::Triple> out = store.triples();
  std::sort(out.begin(), out.end());
  return out;
}

/// The transitive-ancestor KB every targeted deletion case runs on:
///   anc transitive, parent subPropertyOf anc,
///   a -parent-> b -parent-> c -parent-> d,
/// plus `a anc b` asserted *redundantly* (also derivable from a parent b) —
/// the probe for alternate-derivation survival.
///
/// Every case runs twice: with the rule base compiled inside `apply` (the
/// one-shot path of `parowl update`) and with one handed in through
/// MaintainOptions::compiled (the serving Updater's path).  Both must give
/// the same counters and the same store.
enum class RuleBase { kPerBatch, kPrecompiled };

class IncrementalMaintain : public ::testing::TestWithParam<RuleBase> {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;          // materialized closure under maintenance
  rdf::TripleSet base;             // asserted triples (schema + instance)

  rdf::TermId anc, parent, a, b, c, d;

  void SetUp() override {
    anc = iri("ancestorOf");
    parent = iri("parentOf");
    a = iri("a");
    b = iri("b");
    c = iri("c");
    d = iri("d");
    store.insert({anc, vocab.rdf_type, vocab.owl_transitive_property});
    store.insert({parent, vocab.rdfs_subproperty_of, anc});
    store.insert({a, parent, b});
    store.insert({b, parent, c});
    store.insert({c, parent, d});
    store.insert({a, anc, b});  // redundant assertion: also derivable
    base = rdf::TripleSet(store.triples());
    materialize(store, dict, vocab, {});
  }

  rdf::TermId iri(const std::string& s) { return dict.intern_iri(s); }

  MaintainResult maintain(std::vector<rdf::Triple> additions,
                          std::vector<rdf::Triple> deletions) {
    if (GetParam() == RuleBase::kPerBatch) {
      return Maintainer(dict, vocab).apply(store, base, additions, deletions);
    }
    const rules::CompiledRules compiled = Maintainer(dict, vocab).compile(store);
    MaintainOptions opts;
    opts.compiled = &compiled;
    return Maintainer(dict, vocab, opts)
        .apply(store, base, additions, deletions);
  }

  /// From-scratch closure of the *current* base — the maintenance oracle.
  std::vector<rdf::Triple> oracle() {
    rdf::TripleStore fresh;
    base.for_each([&fresh](const rdf::Triple& t) { fresh.insert(t); });
    materialize(fresh, dict, vocab, {});
    return sorted_triples(fresh);
  }
};

TEST_P(IncrementalMaintain, AlternateDerivationSurvivesBaseDeletion) {
  const std::vector<rdf::Triple> before = sorted_triples(store);
  const MaintainResult r = maintain({}, {{a, anc, b}});

  EXPECT_EQ(r.base_deleted, 1u);
  // `a anc b` is still entailed via `a parent b` + subPropertyOf: the
  // closure must not change at all.
  EXPECT_TRUE(store.contains({a, anc, b}));
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(sorted_triples(store), before);
  EXPECT_EQ(sorted_triples(store), oracle());
}

TEST_P(IncrementalMaintain, SoleSupportDeletionCascades) {
  const MaintainResult r = maintain({}, {{c, parent, d}});

  EXPECT_EQ(r.base_deleted, 1u);
  // Everything reaching d depended solely on c parent d.
  EXPECT_FALSE(store.contains({c, parent, d}));
  EXPECT_FALSE(store.contains({c, anc, d}));
  EXPECT_FALSE(store.contains({b, anc, d}));
  EXPECT_FALSE(store.contains({a, anc, d}));
  // The rest of the chain is untouched.
  EXPECT_TRUE(store.contains({a, anc, c}));
  EXPECT_TRUE(store.contains({b, anc, c}));
  EXPECT_EQ(r.removed, 4u);
  EXPECT_EQ(r.removed_triples.size(), 4u);
  EXPECT_EQ(sorted_triples(store), oracle());
}

TEST_P(IncrementalMaintain, DeleteThenReaddInOneBatchIsIdentity) {
  const std::vector<rdf::Triple> before = sorted_triples(store);
  const rdf::TripleSet base_before = base;
  const MaintainResult r = maintain({{c, parent, d}}, {{c, parent, d}});

  // Batch-atomic: the triple is in both lists, so it stays.
  EXPECT_EQ(r.base_deleted, 0u);
  EXPECT_EQ(r.base_added, 0u);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(sorted_triples(store), before);
  EXPECT_EQ(base, base_before);
}

TEST_P(IncrementalMaintain, DeletingAbsentTripleIsNoOp) {
  const std::vector<rdf::Triple> before = sorted_triples(store);
  const MaintainResult r = maintain({}, {{d, parent, a}});

  EXPECT_EQ(r.base_deleted, 0u);
  EXPECT_EQ(r.overdeleted, 0u);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(sorted_triples(store), before);
}

TEST_P(IncrementalMaintain, EmptyBatchIsNoOp) {
  const std::vector<rdf::Triple> before = sorted_triples(store);
  const rdf::TripleSet base_before = base;
  const MaintainResult r = maintain({}, {});

  EXPECT_EQ(r.base_deleted, 0u);
  EXPECT_EQ(r.base_added, 0u);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(r.inferred, 0u);
  EXPECT_EQ(sorted_triples(store), before);
  EXPECT_EQ(base, base_before);
}

TEST_P(IncrementalMaintain, MixedBatchMatchesOracle) {
  // Retract the middle link and graft a new one through e in the same
  // batch: both passes (overdelete + additions closure) run together.
  const auto e = iri("e");
  const MaintainResult r =
      maintain({{b, parent, e}, {e, parent, c}}, {{b, parent, c}});

  EXPECT_EQ(r.base_deleted, 1u);
  EXPECT_EQ(r.base_added, 2u);
  EXPECT_FALSE(store.contains({b, parent, c}));
  EXPECT_TRUE(store.contains({b, anc, c}));   // now via e
  EXPECT_TRUE(store.contains({a, anc, d}));   // the long path is restored
  EXPECT_EQ(sorted_triples(store), oracle());
}

TEST_P(IncrementalMaintain, SchemaTripleInBatchRejectsWhole) {
  const std::vector<rdf::Triple> before = sorted_triples(store);
  const rdf::TripleSet base_before = base;
  const MaintainResult r =
      maintain({}, {{parent, vocab.rdfs_subproperty_of, anc}});

  EXPECT_TRUE(r.schema_changed);
  EXPECT_EQ(sorted_triples(store), before);
  EXPECT_EQ(base, base_before);
}

INSTANTIATE_TEST_SUITE_P(RuleBases, IncrementalMaintain,
                         ::testing::Values(RuleBase::kPerBatch,
                                           RuleBase::kPrecompiled),
                         [](const auto& param_info) {
                           return std::string(param_info.param ==
                                                      RuleBase::kPerBatch
                                                  ? "per_batch"
                                                  : "precompiled");
                         });

// ---------------------------------------------------------------------------
// Serve layer: deletion-aware cache invalidation + RCU atomicity.

constexpr const char* kNs = "http://inc.test/";

/// Namespaced variant of the ancestor KB for the serving-layer tests (the
/// SPARQL parser resolves prefixed names against a real namespace).
struct ServeKb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  std::vector<rdf::Triple> base;
  rdf::TermId anc, parent, a, b, c, d;

  ServeKb() {
    anc = iri("ancestorOf");
    parent = iri("parentOf");
    a = iri("a");
    b = iri("b");
    c = iri("c");
    d = iri("d");
    store.insert({anc, vocab.rdf_type, vocab.owl_transitive_property});
    store.insert({parent, vocab.rdfs_subproperty_of, anc});
    store.insert({a, parent, b});
    store.insert({b, parent, c});
    store.insert({c, parent, d});
    base = store.triples();
    materialize(store, dict, vocab, {});
  }

  rdf::TermId iri(const std::string& local) {
    return dict.intern_iri(kNs + local);
  }

  serve::ServiceOptions options() const {
    serve::ServiceOptions o;
    o.threads = 2;
    o.queue_capacity = 128;
    o.prefixes = {{"inc", kNs}};
    return o;
  }
};

// Regression: a deletion-only batch appends nothing to the log, so footprint
// invalidation keyed only on new triples would leave the cached answer —
// which still *contains* the deleted triples — alive.  The outcome's
// delta_predicates must cover removed triples too.
TEST(IncrementalServe, CacheRetiresAnswersContainingDeletedTriples) {
  ServeKb kb;
  rdf::TripleStore closure = kb.store;
  serve::QueryService service(kb.dict, kb.vocab, std::move(closure),
                              kb.options(), kb.base);
  const std::string q = "SELECT ?x ?y WHERE { ?x inc:ancestorOf ?y }";

  const serve::Response first = service.execute(q);
  ASSERT_EQ(first.status, serve::RequestStatus::kOk);
  EXPECT_EQ(first.results.size(), 6u);  // 3 direct + 3 transitive
  EXPECT_TRUE(service.execute(q).cache_hit);

  const std::vector<rdf::Triple> dels = {{kb.c, kb.parent, kb.d}};
  const serve::UpdateOutcome outcome = service.apply_update({}, dels);
  ASSERT_EQ(outcome.version, 2u);
  EXPECT_EQ(outcome.maintain.base_deleted, 1u);
  EXPECT_GE(outcome.invalidated, 1u);
  // The removed triples' predicates are part of the delta footprint.
  EXPECT_TRUE(std::binary_search(outcome.delta_predicates.begin(),
                                 outcome.delta_predicates.end(), kb.anc));

  const serve::Response after = service.execute(q);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.results.size(), 3u);  // d is no longer reachable
  EXPECT_EQ(after.snapshot_version, 2u);
}

TEST(IncrementalServe, NoOpBatchPublishesNothing) {
  ServeKb kb;
  rdf::TripleStore closure = kb.store;
  serve::QueryService service(kb.dict, kb.vocab, std::move(closure),
                              kb.options(), kb.base);

  const std::vector<rdf::Triple> absent = {{kb.d, kb.parent, kb.a}};
  const serve::UpdateOutcome outcome = service.apply_update({}, absent);
  EXPECT_EQ(outcome.version, 0u);
  EXPECT_EQ(service.snapshot()->version, 1u);
  EXPECT_EQ(outcome.invalidated, 0u);
}

// Asserting a fact the closure already derives changes no answer, but the
// recorded base must keep it: it has to survive a later deletion of its
// support.  The additions-only batch is therefore published.
TEST(IncrementalServe, AssertingDerivedFactSurvivesLaterDeletion) {
  ServeKb kb;
  rdf::TripleStore closure = kb.store;
  serve::QueryService service(kb.dict, kb.vocab, std::move(closure),
                              kb.options(), kb.base);
  const rdf::Triple derived{kb.a, kb.anc, kb.c};
  ASSERT_TRUE(service.snapshot()->store.contains(derived));
  ASSERT_FALSE(service.snapshot()->base->contains(derived));

  const serve::UpdateOutcome add = service.apply_update({&derived, 1});
  EXPECT_EQ(add.version, 2u);
  EXPECT_EQ(add.result.added, 1u);
  EXPECT_TRUE(add.delta_predicates.empty());  // the closure is unchanged
  EXPECT_TRUE(service.snapshot()->base->contains(derived));

  const std::vector<rdf::Triple> dels = {{kb.b, kb.parent, kb.c}};
  const serve::UpdateOutcome del = service.apply_update({}, dels);
  EXPECT_EQ(del.version, 3u);
  EXPECT_TRUE(service.snapshot()->store.contains(derived));
  EXPECT_FALSE(service.snapshot()->store.contains({kb.b, kb.anc, kb.c}));
}

// Closed-loop atomicity drill: a writer applies mixed add/delete batches
// while reader threads query through the executor.  Every response must see
// a row count that some *published* version legitimately had (no
// half-maintained snapshot), and each reader's observed versions must be
// non-decreasing (RCU monotonicity).
TEST(IncrementalServeLoop, RcuVersionsMonotoneAndBatchAtomic) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  const auto student = dict.intern_iri(std::string(kNs) + "Student");
  const auto person = dict.intern_iri(std::string(kNs) + "Person");
  store.insert({student, vocab.rdfs_subclass_of, person});
  std::vector<rdf::Triple> initial;
  for (int i = 0; i < 5; ++i) {
    initial.push_back({dict.intern_iri(std::string(kNs) + "s" +
                                       std::to_string(i)),
                       vocab.rdf_type, student});
  }
  store.insert_all(initial);
  std::vector<rdf::Triple> base = store.triples();
  materialize(store, dict, vocab, {});

  serve::ServiceOptions sopts;
  sopts.threads = 2;
  sopts.queue_capacity = 256;
  sopts.prefixes = {{"inc", kNs}};
  serve::QueryService service(dict, vocab, std::move(store), sopts, base);

  // expected[version] = number of live students in that snapshot; recorded
  // *before* the version is published, so readers can always look it up.
  std::mutex mu;
  std::map<std::uint64_t, std::size_t> expected;
  {
    const std::scoped_lock lock(mu);
    expected[1] = initial.size();
  }
  const std::string q = "SELECT ?x WHERE { ?x a inc:Person }";

  std::atomic<bool> failed{false};
  const auto check = [&](const serve::Response& r) {
    if (r.status != serve::RequestStatus::kOk) {
      return;  // shed under load is legal; wrong rows are not
    }
    std::size_t want = 0;
    {
      const std::scoped_lock lock(mu);
      const auto it = expected.find(r.snapshot_version);
      if (it == expected.end()) {
        failed = true;
        ADD_FAILURE() << "response for unpublished version "
                      << r.snapshot_version;
        return;
      }
      want = it->second;
    }
    if (r.results.size() != want) {
      failed = true;
      ADD_FAILURE() << "version " << r.snapshot_version << " answered "
                    << r.results.size() << " rows, expected " << want;
    }
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop) {
        const serve::Response r = service.execute(q);
        EXPECT_GE(r.snapshot_version, last);  // RCU: no going back
        last = r.snapshot_version;
        check(r);
      }
    });
  }

  // The writer: 16 mixed batches, each adding 3 students and retracting
  // the oldest live one — expected count grows by 2 per published version.
  std::vector<rdf::Triple> live = initial;
  std::size_t next_id = 100;
  std::uint64_t version = 1;
  for (int batch = 0; batch < 16; ++batch) {
    std::vector<rdf::Triple> adds;
    service.with_dict_exclusive([&](rdf::Dictionary& d) {
      for (int i = 0; i < 3; ++i) {
        adds.push_back({d.intern_iri(std::string(kNs) + "s" +
                                     std::to_string(next_id++)),
                        vocab.rdf_type, student});
      }
      return 0;
    });
    const std::vector<rdf::Triple> dels = {live.front()};
    live.erase(live.begin());
    live.insert(live.end(), adds.begin(), adds.end());
    {
      const std::scoped_lock lock(mu);
      expected[version + 1] = live.size();
    }
    const serve::UpdateOutcome outcome = service.apply_update(adds, dels);
    ASSERT_EQ(outcome.version, version + 1);
    version = outcome.version;
    // Interleave executor-path queries with the writes.
    service.submit(q, check);
  }
  service.drain();
  stop = true;
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_FALSE(failed);
  EXPECT_EQ(service.snapshot()->version, 17u);
  EXPECT_EQ(service.snapshot()->store.size(),
            1 + live.size() * 2);  // schema + (type Student, type Person)
}

}  // namespace
}  // namespace parowl::reason
