// The clique operator for symmetric-transitive predicates
// (src/reason/src/clique.cpp): rule-shape detection, and closures pinned to
// naive evaluation — which never uses the operator — on random graphs that mix
// two clique predicates (one also fed through subPropertyOf and inverseOf),
// a symmetric-only predicate, self-loops, literal objects and asserted
// literal-subject edges.  Semi-naive logs must stay bit-identical across
// thread counts and with the dispatch index on or off.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "parowl/gen/uobm.hpp"
#include "parowl/reason/clique.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/horst_rules.hpp"

namespace parowl::reason {
namespace {

std::vector<rdf::Triple> sorted(std::vector<rdf::Triple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A random KB over two clique predicates st1/st2, a symmetric-only
/// predicate sym, a subproperty and an inverse of st2, and a few literals.
struct RandomKb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore base;
  rdf::TermId st1, st2, sub, inv, sym;
  std::vector<rdf::TermId> individuals;

  RandomKb(const RandomKb&) = delete;

  explicit RandomKb(std::uint64_t seed, bool with_literals = true) {
    const auto iri = [this](const std::string& local) {
      return dict.intern_iri("http://clique.test/" + local);
    };
    st1 = iri("st1");
    st2 = iri("st2");
    sub = iri("sub");
    inv = iri("inv");
    sym = iri("sym");
    for (const rdf::TermId p : {st1, st2}) {
      base.insert({p, vocab.rdf_type, vocab.owl_symmetric_property});
      base.insert({p, vocab.rdf_type, vocab.owl_transitive_property});
    }
    base.insert({sym, vocab.rdf_type, vocab.owl_symmetric_property});
    base.insert({sub, vocab.rdfs_subproperty_of, st2});
    base.insert({inv, vocab.owl_inverse_of, st2});

    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    for (int i = 0; i < 30; ++i) {
      individuals.push_back(iri("r" + std::to_string(i)));
    }
    std::vector<rdf::TermId> literals;
    for (int i = 0; i < 4; ++i) {
      literals.push_back(dict.intern_literal("\"v" + std::to_string(i) + "\""));
    }
    const auto r = [&] { return individuals[pick(individuals.size())]; };
    const auto l = [&] { return literals[pick(literals.size())]; };
    const rdf::TermId preds[] = {st1, st2, sub, inv, sym};
    for (int i = 0; i < 45; ++i) {
      base.insert({r(), preds[pick(std::size(preds))], r()});
    }
    for (int i = 0; i < 3; ++i) {
      const rdf::TermId x = r();
      base.insert({x, i % 2 == 0 ? st1 : st2, x});  // self-loops
    }
    if (with_literals) {
      for (int i = 0; i < 6; ++i) {
        base.insert({r(), preds[pick(std::size(preds))], l()});
      }
      // Literal subjects only enter through the API, never by derivation.
      for (int i = 0; i < 4; ++i) {
        base.insert({l(), i % 2 == 0 ? st1 : st2, r()});
      }
      base.insert({l(), st1, l()});
    }
  }
};

struct Closure {
  std::vector<rdf::Triple> log;
  MaterializeResult result;
};

Closure close(const RandomKb& kb, MaterializeOptions opts) {
  Closure c;
  rdf::TripleStore store = kb.base;
  c.result = materialize(store, kb.dict, kb.vocab, opts);
  c.log = store.triples();
  return c;
}

MaterializeOptions semi(unsigned threads) {
  MaterializeOptions o;
  o.threads = threads;
  return o;
}

MaterializeOptions naive() {
  MaterializeOptions o;
  o.semi_naive = false;
  return o;
}

TEST(CliqueAnalysis, FindsCompiledSymmetricTransitivePredicatesOnly) {
  rdf::Dictionary dict;
  const ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::UobmOptions o;
  o.base.universities = 1;
  gen::generate_uobm(o, dict, store);
  const rules::CompiledRules compiled = compile_ontology(store, vocab);
  const CliqueAnalysis a = analyze_cliques(compiled.rules);
  // hasSameHomeTownWith is symmetric and transitive (compiled rdfp3+rdfp4),
  // and so is owl:sameAs (rdfp6+rdfp7, which need no compilation);
  // hasFriend is only symmetric, so its rule stays on the generic join.
  const rdf::TermId hometown = dict.find(
      std::string(gen::kUnivBenchNs) + "hasSameHomeTownWith",
      rdf::TermKind::kIri);
  const rdf::TermId friend_p = dict.find(
      std::string(gen::kUnivBenchNs) + "hasFriend", rdf::TermKind::kIri);
  ASSERT_EQ(a.predicates.size(), 2u);
  EXPECT_EQ(a.predicates[0].predicate, hometown);
  EXPECT_EQ(compiled.rules[a.predicates[0].transitive_rule].name, "rdfp4");
  EXPECT_EQ(a.predicates[1].predicate, vocab.owl_same_as);
  EXPECT_EQ(compiled.rules[a.predicates[1].transitive_rule].name, "rdfp7");
  std::size_t roles = 0;
  for (std::size_t r = 0; r < compiled.rules.size(); ++r) {
    if (a.roles[r] != CliqueRole::kNone) {
      ++roles;
      const rdf::TermId p = compiled.rules[r].head.p.const_id();
      EXPECT_TRUE(p == hometown || p == vocab.owl_same_as);
    }
    if (compiled.rules[r].head.p.is_const() &&
        compiled.rules[r].head.p.const_id() == friend_p) {
      EXPECT_EQ(a.roles[r], CliqueRole::kNone);
    }
  }
  EXPECT_EQ(roles, 4u);
}

TEST(CliqueAnalysis, FindsSameAsInNaiveEqualityRules) {
  rdf::Dictionary dict;
  const ontology::Vocabulary vocab(dict);
  const CliqueAnalysis with = analyze_cliques(rules::horst_rules(vocab));
  ASSERT_EQ(with.predicates.size(), 1u);
  EXPECT_EQ(with.predicates[0].predicate, vocab.owl_same_as);

  rules::HorstOptions rewrite;
  rewrite.include_same_as_propagation = false;
  EXPECT_TRUE(analyze_cliques(rules::horst_rules(vocab, rewrite))
                  .predicates.empty());
}

TEST(CliqueClosureTest, MatchDeltaKeepsTheGenericJoins) {
  // Work-stealing passes evaluate a slice against a store they must not
  // touch, so they never use the operator: the symmetric rule still fires.
  RandomKb kb(1, /*with_literals=*/false);
  const rules::CompiledRules compiled = compile_ontology(kb.base, kb.vocab);
  rdf::TripleStore store;
  const rdf::TermId a = kb.individuals[0];
  const rdf::TermId b = kb.individuals[1];
  store.insert({a, kb.st1, b});
  ForwardOptions opts;
  opts.dict = &kb.dict;
  ForwardEngine engine(store, compiled.rules, opts);
  const auto derived = engine.match_delta(0, store.size());
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].triple, (rdf::Triple{b, kb.st1, a}));
  EXPECT_EQ(analyze_cliques(compiled.rules).roles[derived[0].rule],
            CliqueRole::kSymmetric);
}

TEST(CliqueClosureTest, RandomGraphsMatchNaiveAndAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const RandomKb kb(seed, /*with_literals=*/seed % 4 != 0);
    const Closure ref = close(kb, semi(1));
    ASSERT_EQ(sorted(ref.log), sorted(close(kb, naive()).log))
        << "seed " << seed;
    for (const unsigned threads : {2u, 4u}) {
      const Closure c = close(kb, semi(threads));
      EXPECT_EQ(ref.log, c.log) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(ref.result.iterations, c.result.iterations)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(CliqueClosureTest, WithoutDictionaryEveryTermIsAResource) {
  // No literal guard: literals join components like any other term.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomKb kb(seed);
    const rules::CompiledRules compiled = compile_ontology(kb.base, kb.vocab);
    const auto run = [&](bool semi_naive, unsigned threads) {
      rdf::TripleStore store = kb.base;
      store.insert_all(compiled.ground_facts);
      ForwardOptions opts;
      opts.semi_naive = semi_naive;
      opts.threads = threads;
      const ForwardStats stats =
          ForwardEngine(store, compiled.rules, opts).run(0);
      std::size_t firings = 0;
      for (const std::size_t n : stats.firings_per_rule) {
        firings += n;
      }
      EXPECT_EQ(firings, stats.derived);
      std::size_t attempts = 0;
      for (const std::size_t n : stats.attempts_per_rule) {
        attempts += n;
      }
      EXPECT_EQ(attempts, stats.attempts);
      return store.triples();
    };
    const std::vector<rdf::Triple> ref = run(true, 1);
    EXPECT_EQ(sorted(ref), sorted(run(false, 1))) << "seed " << seed;
    EXPECT_EQ(ref, run(true, 4)) << "seed " << seed;
  }
}

TEST(CliqueClosureTest, IncrementalRunsMatchFromScratch) {
  // run(delta_begin) on a closed prefix: the forests start from the whole
  // store and only components the new triples touch are re-closed.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomKb kb(seed);
    const rules::CompiledRules compiled = compile_ontology(kb.base, kb.vocab);
    std::vector<rdf::Triple> all = kb.base.triples();
    all.insert(all.end(), compiled.ground_facts.begin(),
               compiled.ground_facts.end());
    ForwardOptions opts;
    opts.dict = &kb.dict;
    rdf::TripleStore store;
    const std::size_t third = all.size() / 3;
    store.insert_all(std::span(all.data(), third));
    ForwardEngine engine(store, compiled.rules, opts);
    engine.run(0);
    std::size_t mark = store.size();
    store.insert_all(std::span(all.data() + third, third));
    engine.run(mark);
    mark = store.size();
    store.insert_all(std::span(all.data() + 2 * third, all.size() - 2 * third));
    engine.run(mark);

    rdf::TripleStore fresh;
    fresh.insert_all(all);
    opts.semi_naive = false;
    ForwardEngine(fresh, compiled.rules, opts).run(0);
    EXPECT_EQ(sorted(store.triples()), sorted(fresh.triples()))
        << "seed " << seed;
  }
}

TEST(CliqueClosureTest, RewriteModeMergingCliqueMembersMatchesNaive) {
  // sameAs merges members of one st1 clique with each other and with an
  // individual of another: the store is rebuilt in representative space and
  // the operator's forests with it.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomKb kb(seed, /*with_literals=*/false);
    const auto& ind = kb.individuals;
    kb.base.insert({ind[0], kb.st1, ind[1]});
    kb.base.insert({ind[1], kb.st1, ind[2]});
    kb.base.insert({ind[2], kb.st1, ind[3]});
    kb.base.insert({ind[1], kb.vocab.owl_same_as, ind[3]});
    kb.base.insert({ind[0], kb.vocab.owl_same_as, ind[20]});
    kb.base.insert({ind[21], kb.vocab.owl_same_as, ind[22]});

    MaterializeOptions oracle = naive();
    rdf::TripleStore naive_store = kb.base;
    materialize(naive_store, kb.dict, kb.vocab, oracle);

    for (const unsigned threads : {1u, 4u}) {
      rdf::TripleStore store = kb.base;
      EqualityManager eq;
      MaterializeOptions opts = semi(threads);
      opts.equality_mode = EqualityMode::kRewrite;
      opts.equality = &eq;
      const MaterializeResult r = materialize(store, kb.dict, kb.vocab, opts);
      ASSERT_GT(r.eq_merges, 0u);
      ASSERT_EQ(r.eq_conflicts, 0u);
      EXPECT_EQ(expand_closure(store, eq, kb.vocab.owl_same_as),
                sorted(naive_store.triples()))
          << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace parowl::reason
