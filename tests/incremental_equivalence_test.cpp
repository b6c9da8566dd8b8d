// Differential maintenance-oracle suite (tier 2).
//
// The contract under test: after any seeded mixed add/delete stream, the
// incrementally maintained closure holds exactly the triples a from-scratch
// materialization of the final base would produce — for every
// rederivation thread count, with the result cache
// on or off, and through the distributed tier's shard refresh.  Equality is
// on sorted triple sequences (survivors keep their original log positions,
// so raw log order legitimately differs from a fresh run); across *thread
// counts* the maintained log itself must be byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "store_equality.hpp"

namespace parowl::reason {
namespace {

std::vector<rdf::Triple> sorted_triples(const rdf::TripleStore& store) {
  std::vector<rdf::Triple> out = store.triples();
  std::sort(out.begin(), out.end());
  return out;
}

template <typename T>
std::vector<T> sorted_copy(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A seeded generator of mixed batches against an evolving asserted base.
/// Deletions sample the live instance pool; additions mix brand-new typed
/// individuals with re-adds of previously deleted triples (the
/// delete-then-readd path at stream scale).
class MixedStream {
 public:
  MixedStream(rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
              std::span<const rdf::Triple> base, std::uint64_t seed)
      : dict_(dict), rng_(seed) {
    for (const rdf::Triple& t : base) {
      if (!vocab.is_schema_triple(t)) {
        live_.push_back(t);
        if (t.p == vocab.rdf_type) {
          classes_.push_back(t.o);
        }
      }
    }
    type_ = vocab.rdf_type;
  }

  struct Batch {
    std::vector<rdf::Triple> adds;
    std::vector<rdf::Triple> dels;
  };

  Batch next() {
    Batch batch;
    // Retract a random slice of the live instance pool.
    const std::size_t want = std::min<std::size_t>(20, live_.size() / 4);
    std::sample(live_.begin(), live_.end(), std::back_inserter(batch.dels),
                want, rng_);
    // Fresh individuals typed with classes the KB already uses...
    for (int i = 0; i < 8; ++i) {
      const auto subject = dict_.intern_iri(
          "http://inc.test/streamed" + std::to_string(next_id_++));
      const auto cls =
          classes_[std::uniform_int_distribution<std::size_t>(
              0, classes_.size() - 1)(rng_)];
      batch.adds.push_back({subject, type_, cls});
    }
    // ...plus resurrections of earlier deletions.
    const std::size_t back = std::min<std::size_t>(4, graveyard_.size());
    std::sample(graveyard_.begin(), graveyard_.end(),
                std::back_inserter(batch.adds), back, rng_);

    // Update the pools to the post-batch state.
    rdf::TripleSet del_set;
    for (const rdf::Triple& t : batch.dels) {
      del_set.insert(t);
    }
    rdf::TripleSet add_set;
    for (const rdf::Triple& t : batch.adds) {
      add_set.insert(t);
    }
    std::erase_if(live_, [&](const rdf::Triple& t) {
      return del_set.contains(t) && !add_set.contains(t);
    });
    std::erase_if(graveyard_,
                  [&](const rdf::Triple& t) { return add_set.contains(t); });
    for (const rdf::Triple& t : batch.adds) {
      if (!del_set.contains(t)) {
        live_.push_back(t);
      }
    }
    for (const rdf::Triple& t : batch.dels) {
      if (!add_set.contains(t)) {
        graveyard_.push_back(t);
      }
    }
    return batch;
  }

 private:
  rdf::Dictionary& dict_;
  std::mt19937_64 rng_;
  std::vector<rdf::Triple> live_;       // currently asserted instance triples
  std::vector<rdf::Triple> graveyard_;  // deleted, available for re-add
  std::vector<rdf::TermId> classes_;
  rdf::TermId type_;
  std::size_t next_id_ = 0;
};

struct Kb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;  // materialized
  std::vector<rdf::Triple> base;

  void finish() {
    base = store.triples();
    materialize(store, dict, vocab, {});
  }
};

Kb lubm_kb(std::uint32_t universities = 1) {
  Kb kb;
  gen::LubmOptions o;
  o.universities = universities;
  gen::generate_lubm(o, kb.dict, kb.store);
  kb.finish();
  return kb;
}

Kb mdc_kb() {
  Kb kb;
  gen::MdcOptions o;
  o.fields = 2;
  gen::generate_mdc(o, kb.dict, kb.store);
  kb.finish();
  return kb;
}

/// From-scratch closure of `base` — the oracle every variant is pinned to.
std::vector<rdf::Triple> oracle_closure(Kb& kb, const rdf::TripleSet& base) {
  rdf::TripleStore fresh;
  base.for_each([&fresh](const rdf::Triple& t) { fresh.insert(t); });
  materialize(fresh, kb.dict, kb.vocab, {});
  return sorted_triples(fresh);
}

// ---------------------------------------------------------------------------
// Maintainer core: random streams, thread sweep.

void run_stream_against_oracle(Kb kb, std::uint64_t seed, int rounds) {
  constexpr unsigned kThreads[] = {1, 2, 4, 8};

  // One (store, base) replica per thread count, maintained in lockstep.
  std::vector<rdf::TripleStore> stores;
  std::vector<rdf::TripleSet> bases;
  for (std::size_t i = 0; i < std::size(kThreads); ++i) {
    stores.push_back(kb.store);
    bases.emplace_back(kb.base);
  }

  MixedStream stream(kb.dict, kb.vocab, kb.base, seed);
  for (int round = 0; round < rounds; ++round) {
    const MixedStream::Batch batch = stream.next();
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      MaintainOptions opts;
      opts.threads = kThreads[i];
      const Maintainer maintainer(kb.dict, kb.vocab, opts);
      const MaintainResult r =
          maintainer.apply(stores[i], bases[i], batch.adds, batch.dels);
      ASSERT_FALSE(r.schema_changed) << "round " << round;
    }

    // Thread counts must agree bit-for-bit, log order included.
    for (std::size_t i = 1; i < std::size(kThreads); ++i) {
      ASSERT_EQ(stores[0].triples(), stores[i].triples())
          << "round " << round << ": " << kThreads[i]
          << "-thread log diverged from single-thread";
      ASSERT_EQ(bases[0], bases[i]) << "round " << round;
    }

    // And the maintained closure must equal the from-scratch one.
    ASSERT_EQ(sorted_triples(stores[0]), oracle_closure(kb, bases[0]))
        << "diverged from oracle at round " << round;
  }
}

TEST(IncrementalEquivalence, LubmRandomStreamMatchesOracle) {
  run_stream_against_oracle(lubm_kb(), /*seed=*/42, /*rounds=*/6);
}

TEST(IncrementalEquivalence, LubmSecondSeedMatchesOracle) {
  run_stream_against_oracle(lubm_kb(), /*seed=*/1337, /*rounds=*/4);
}

TEST(IncrementalEquivalence, MdcRandomStreamMatchesOracle) {
  run_stream_against_oracle(mdc_kb(), /*seed=*/7, /*rounds=*/4);
}

// UOBM's hasSameHomeTownWith cliques under DRed: the rederivation closure
// runs the clique operator, whose forests start from the surviving store.
// Rounds delete base edges (splitting cliques), add edges that merge two
// cliques, a self-loop and a literal-object edge, then mix both; after each
// round the maintained store equals a from-scratch closure, with the log
// bit-identical at 1 and 4 threads.
TEST(IncrementalEquivalenceUobm, DredCliqueSplitsAndMergesMatchOracle) {
  Kb kb;
  gen::UobmOptions o;
  o.base.universities = 2;
  o.hometowns = 20;  // as `parowl gen uobm --scale 2`
  gen::generate_uobm(o, kb.dict, kb.store);
  kb.finish();
  const rdf::TermId hometown = kb.dict.find(
      std::string(gen::kUnivBenchNs) + "hasSameHomeTownWith",
      rdf::TermKind::kIri);
  std::vector<rdf::Triple> edges;
  for (const rdf::Triple& t : kb.base) {
    if (t.p == hometown) {
      edges.push_back(t);
    }
  }
  ASSERT_GE(edges.size(), 40u);

  std::mt19937_64 rng(16);
  std::shuffle(edges.begin(), edges.end(), rng);
  // Two people in different cliques of the initial closure.
  const rdf::TermId x = edges[0].s;
  rdf::TermId y = rdf::kAnyTerm;
  for (const rdf::Triple& t : edges) {
    if (!kb.store.contains({x, hometown, t.s})) {
      y = t.s;
      break;
    }
  }
  ASSERT_NE(y, rdf::kAnyTerm);
  const rdf::TermId lit = kb.dict.intern_literal("\"Springfield\"");

  struct Round {
    std::vector<rdf::Triple> adds;
    std::vector<rdf::Triple> dels;
  };
  const std::vector<Round> rounds = {
      {{}, {edges.begin() + 1, edges.begin() + 16}},
      {{{x, hometown, y}, {edges[20].o, hometown, edges[30].o}}, {}},
      {{{edges[40].s, hometown, edges[40].s}, {x, hometown, lit}}, {}},
      {{{edges[1].s, hometown, y}}, {edges[0], edges[16], edges[17]}},
      {{}, {{x, hometown, y}}},
  };

  constexpr unsigned kThreads[] = {1, 4};
  std::vector<rdf::TripleStore> stores(std::size(kThreads), kb.store);
  std::vector<rdf::TripleSet> bases(std::size(kThreads),
                                    rdf::TripleSet(kb.base));
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      MaintainOptions opts;
      opts.threads = kThreads[i];
      const MaintainResult r = Maintainer(kb.dict, kb.vocab, opts)
                                   .apply(stores[i], bases[i],
                                          rounds[round].adds,
                                          rounds[round].dels);
      ASSERT_FALSE(r.schema_changed) << "round " << round;
      if (round == 0) {
        // Derived pairs went with the edges: some clique really split.
        EXPECT_GT(r.removed, rounds[0].dels.size());
      }
    }
    ASSERT_EQ(stores[0].triples(), stores[1].triples()) << "round " << round;
    ASSERT_EQ(sorted_triples(stores[0]), oracle_closure(kb, bases[0]))
        << "round " << round;
  }
}

// A rule base compiled once and handed to every batch (the serving
// Updater's path) must maintain exactly what a per-batch compile does on an
// identical stream: same base, same log, order included.
TEST(IncrementalEquivalenceCross, PrecompiledRulesAgreeWithPerBatchCompile) {
  Kb kb = lubm_kb();
  rdf::TripleStore per_batch_store = kb.store;
  rdf::TripleStore precompiled_store = kb.store;
  rdf::TripleSet per_batch_base(kb.base);
  rdf::TripleSet precompiled_base(kb.base);

  const rules::CompiledRules compiled =
      Maintainer(kb.dict, kb.vocab).compile(kb.store);
  MaintainOptions precompiled;
  precompiled.compiled = &compiled;

  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/99);
  for (int round = 0; round < 5; ++round) {
    const MixedStream::Batch batch = stream.next();
    const MaintainResult a =
        Maintainer(kb.dict, kb.vocab)
            .apply(per_batch_store, per_batch_base, batch.adds, batch.dels);
    const MaintainResult b =
        Maintainer(kb.dict, kb.vocab, precompiled)
            .apply(precompiled_store, precompiled_base, batch.adds,
                   batch.dels);
    ASSERT_FALSE(a.schema_changed) << "round " << round;
    EXPECT_EQ(a.overdeleted, b.overdeleted) << "round " << round;
    EXPECT_EQ(a.rederived, b.rederived) << "round " << round;
    EXPECT_EQ(a.inferred, b.inferred) << "round " << round;
    ASSERT_EQ(per_batch_base, precompiled_base) << "round " << round;
    ASSERT_EQ(per_batch_store.triples(), precompiled_store.triples())
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Serve tier: the same stream through QueryService, cache on and off.

TEST(IncrementalEquivalenceServe, CacheOnAndOffConvergeToOracle) {
  Kb kb = lubm_kb();

  serve::ServiceOptions cached;
  cached.threads = 2;
  cached.cache_enabled = true;
  serve::ServiceOptions uncached;
  uncached.threads = 2;
  uncached.cache_enabled = false;

  rdf::TripleStore s1 = kb.store;
  rdf::TripleStore s2 = kb.store;
  serve::QueryService with_cache(kb.dict, kb.vocab, std::move(s1), cached,
                                 kb.base);
  serve::QueryService without_cache(kb.dict, kb.vocab, std::move(s2),
                                    uncached, kb.base);

  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }

  std::vector<rdf::Triple> shadow_base = kb.base;  // oracle bookkeeping
  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/5);
  for (int round = 0; round < 4; ++round) {
    const MixedStream::Batch batch = stream.next();
    const serve::UpdateOutcome a = with_cache.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    const serve::UpdateOutcome b = without_cache.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    ASSERT_EQ(a.version, b.version) << "round " << round;

    // Same answers with and without the cache, every query, twice (the
    // second pass hits the cache on the cached service).
    for (const std::string& q : queries) {
      for (int pass = 0; pass < 2; ++pass) {
        const serve::Response ra = with_cache.execute(q);
        const serve::Response rb = without_cache.execute(q);
        ASSERT_EQ(ra.status, serve::RequestStatus::kOk);
        ASSERT_EQ(rb.status, serve::RequestStatus::kOk);
        ASSERT_EQ(sorted_copy(ra.results.rows).size(),
                  sorted_copy(rb.results.rows).size());
        ASSERT_EQ(sorted_copy(ra.results.rows), sorted_copy(rb.results.rows))
            << "round " << round << " query " << q;
      }
    }
  }

  // Both snapshots equal the from-scratch closure of the final base.
  const rdf::TripleSet* final_base = with_cache.snapshot()->base.get();
  ASSERT_NE(final_base, nullptr);
  const std::vector<rdf::Triple> want = oracle_closure(kb, *final_base);
  EXPECT_EQ(sorted_triples(with_cache.snapshot()->store), want);
  EXPECT_EQ(sorted_triples(without_cache.snapshot()->store), want);
}

// In-place maintenance at a scale where overdeletion cones are real: LUBM(5)
// mixed batches through QueryService.  After every round
// the served store equals the from-scratch closure of the expected base, is
// indistinguishable from a store rebuilt from its own log (erasing in place
// left no trace in any index), and the service's base set equals the
// expected base.
TEST(IncrementalEquivalence, Lubm5ServeRoundsKeepStoreAndBaseExact) {
  Kb kb = lubm_kb(5);
  serve::ServiceOptions opts;
  opts.threads = 1;
  rdf::TripleStore closure = kb.store;
  serve::QueryService service(kb.dict, kb.vocab, std::move(closure), opts,
                              kb.base);

  rdf::TripleSet expected_base(kb.base);
  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/23);
  std::size_t condemned = 0;
  for (int round = 0; round < 6; ++round) {
    const std::string label = "round " + std::to_string(round);
    const MixedStream::Batch batch = stream.next();
    const serve::UpdateOutcome outcome =
        service.apply_update(batch.adds, batch.dels);
    ASSERT_GT(outcome.version, 0u) << label;
    condemned += outcome.maintain.overdeleted;

    // Batch-atomic model of the base: (base \ (dels \ adds)) + adds.
    const rdf::TripleSet adds(batch.adds);
    for (const rdf::Triple& t : batch.dels) {
      if (!adds.contains(t)) {
        expected_base.erase(t);
      }
    }
    for (const rdf::Triple& t : batch.adds) {
      expected_base.insert(t);
    }

    const serve::SnapshotPtr snap = service.snapshot();
    ASSERT_NE(snap->base, nullptr) << label;
    ASSERT_EQ(snap->base->size(), expected_base.size()) << label;
    ASSERT_TRUE(*snap->base == expected_base) << label;
    ASSERT_EQ(sorted_triples(snap->store), oracle_closure(kb, expected_base))
        << label;
    rdf::expect_same_store(snap->store, rdf::rebuilt_from_log(snap->store),
                           label, outcome.maintain.removed_triples);
  }
  // The deletions reached past themselves into derived facts.
  EXPECT_GT(condemned, 6u * 20u);
}

// A rewrite-mode batch refused at the last rejection point — its overdelete
// cone reaches a sameAs derivation — leaves the store, the base set and the
// published version untouched: the base is edited only after that point.
TEST(IncrementalEquivalenceServe,
     EqualityRejectedBatchLeavesEverythingUntouched) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  const auto iri = [&dict](const std::string& local) {
    return dict.intern_iri("http://inc.test/" + local);
  };
  // code is functional; every Coded individual has code c42 (hasValue).
  const rdf::TermId code = iri("code");
  const rdf::TermId coded = iri("Coded");
  const rdf::TermId c42 = iri("c42");
  const rdf::TermId x = iri("x");
  const rdf::TermId y = iri("y");
  rdf::TripleStore store;
  store.insert({code, vocab.rdf_type, vocab.owl_functional_property});
  store.insert({coded, vocab.owl_on_property, code});
  store.insert({coded, vocab.owl_has_value, c42});
  store.insert({x, vocab.rdf_type, coded});
  const std::vector<rdf::Triple> asserted = store.triples();
  auto eq = std::make_shared<EqualityManager>();
  MaterializeOptions mopts;
  mopts.equality_mode = EqualityMode::kRewrite;
  mopts.equality = eq.get();
  materialize(store, dict, vocab, mopts);
  ASSERT_TRUE(store.contains({x, code, c42}));
  // x sits in no class, so deleting (x type Coded) passes the endpoint
  // check; the cone (x type Coded -> x code c42 -> rdfp1) then reaches a
  // sameAs head.
  ASSERT_FALSE(eq->tracked(x));
  const std::vector<rdf::Triple> adds = {{y, vocab.rdf_type, coded}};
  const std::vector<rdf::Triple> dels = {{x, vocab.rdf_type, coded}};

  // The maintainer itself: store and base set exactly as they were.
  {
    rdf::TripleStore copy = store;
    rdf::TripleSet base(asserted);
    EqualityManager eq_copy = *eq;
    MaintainOptions opts;
    opts.equality_mode = EqualityMode::kRewrite;
    opts.equality = &eq_copy;
    const MaintainResult r =
        Maintainer(dict, vocab, opts).apply(copy, base, adds, dels);
    EXPECT_TRUE(r.equality_rejected);
    EXPECT_EQ(copy.triples(), store.triples());
    EXPECT_TRUE(base == rdf::TripleSet(asserted));
  }

  // Through the service: nothing is published.
  serve::QueryService service(dict, vocab, std::move(store), {}, asserted,
                              eq);
  const serve::SnapshotPtr before = service.snapshot();
  const std::vector<rdf::Triple> log_before = before->store.triples();
  const rdf::TripleSet base_before = *before->base;
  const serve::UpdateOutcome outcome = service.apply_update(adds, dels);
  EXPECT_TRUE(outcome.maintain.equality_rejected);
  EXPECT_EQ(outcome.version, 0u);
  const serve::SnapshotPtr after = service.snapshot();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after->version, 1u);
  EXPECT_EQ(after->store.triples(), log_before);
  EXPECT_TRUE(*after->base == base_before);
  EXPECT_TRUE(base_before == rdf::TripleSet(asserted));
}

// ---------------------------------------------------------------------------
// Dist tier: shard refresh keeps the catalog equal to a from-scratch
// re-sharding of the maintained closure, and served answers match the
// single-store service.

TEST(IncrementalEquivalenceDist, ShardRefreshTracksMaintainedClosure) {
  Kb kb = lubm_kb();
  constexpr std::uint32_t k = 4;
  const partition::HashOwnerPolicy policy;
  partition::OwnerTable owners =
      partition::partition_data(kb.store, kb.dict, kb.vocab, policy, k)
          .owners;

  const dist::NodeLayout layout{k, /*replicas=*/1};
  parallel::MemoryTransport transport(layout.num_nodes());
  dist::DistOptions dopts;
  dopts.threads = 1;
  dopts.queue_capacity = 256;
  dist::DistService dist_service(kb.dict, kb.store, owners, k, transport,
                                 dopts);

  // The single-store reference maintained through the same stream.
  rdf::TripleStore ref_store = kb.store;
  serve::ServiceOptions sopts;
  sopts.threads = 1;
  serve::QueryService reference(kb.dict, kb.vocab, std::move(ref_store),
                                sopts, kb.base);

  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }

  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/11);
  for (int round = 0; round < 3; ++round) {
    const MixedStream::Batch batch = stream.next();
    const serve::UpdateOutcome outcome = reference.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    if (outcome.version == 0) {
      continue;  // no-op round: nothing to ship
    }
    const serve::SnapshotPtr snap = reference.snapshot();
    const auto& log = snap->store.triples();
    const std::vector<rdf::Triple> tail(log.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                snap->delta_begin),
                                        log.end());
    const std::vector<std::uint64_t> before =
        dist_service.shard_versions();
    dist_service.refresh(tail, outcome.maintain.removed_triples);
    const std::vector<std::uint64_t> after = dist_service.shard_versions();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t p = 0; p < after.size(); ++p) {
      ASSERT_GE(after[p], before[p]) << "shard version went backwards";
    }

    // The union of decoded shards equals the maintained closure, and each
    // shard holds exactly what a from-scratch re-sharding would place there.
    dist::ShardCatalog rebuilt(snap->store, owners, k);
    std::unordered_set<rdf::Triple, rdf::TripleHash> covered;
    for (std::uint32_t p = 0; p < k; ++p) {
      std::vector<rdf::Triple> incremental;
      std::vector<rdf::Triple> scratch;
      std::string error;
      ASSERT_TRUE(dist::ShardCatalog::decode(dist_service.catalog().shard(p),
                                             incremental, &error))
          << error;
      ASSERT_TRUE(
          dist::ShardCatalog::decode(rebuilt.shard(p), scratch, &error))
          << error;
      ASSERT_EQ(sorted_copy(incremental), sorted_copy(scratch))
          << "round " << round << " partition " << p;
      covered.insert(incremental.begin(), incremental.end());
    }
    EXPECT_EQ(covered.size(), snap->store.size()) << "round " << round;

    // Scatter/gather answers equal the single-store reference.
    for (const std::string& q : queries) {
      const serve::Response rd = dist_service.execute(q);
      const serve::Response rr = reference.execute(q);
      ASSERT_EQ(rd.status, serve::RequestStatus::kOk);
      ASSERT_EQ(rr.status, serve::RequestStatus::kOk);
      ASSERT_EQ(sorted_copy(rd.results.rows), sorted_copy(rr.results.rows))
          << "round " << round << " query " << q;
    }
  }
  dist_service.drain();
  reference.drain();
}

}  // namespace
}  // namespace parowl::reason
