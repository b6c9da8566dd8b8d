// Equivalence of every forward-engine mode: naive vs semi-naive and
// 1/2/4/8 matching threads must all compute the same closure — and every
// semi-naive thread count must be *bit-identical*: same insertion-log order
// and the same ForwardStats, which is what lets parowl::parallel workers and
// the serving-layer updater switch thread counts without changing any
// result.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/gen/sameas.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::reason {
namespace {

// The vocabulary interns into (and references) the fixture's dictionary,
// so the fixture is built in place and never copied or moved.
struct Fixture {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore base;  // generated triples + compiled ground facts
  rules::RuleSet rules;

  Fixture(const Fixture&) = delete;

  explicit Fixture(const char* dataset, std::uint32_t scale = 1) {
    if (std::string_view(dataset) == "lubm") {
      gen::LubmOptions o;
      o.universities = scale;
      gen::generate_lubm(o, dict, base);
    } else if (std::string_view(dataset) == "uobm") {
      gen::UobmOptions o;
      o.base.universities = scale;
      o.hometowns = 10 * scale;  // as `parowl gen uobm`
      gen::generate_uobm(o, dict, base);
    } else {
      gen::MdcOptions o;
      o.fields = 2;
      gen::generate_mdc(o, dict, base);
    }
    rules::CompiledRules compiled = compile_ontology(base, vocab);
    base.insert_all(compiled.ground_facts);
    rules = std::move(compiled.rules);
  }
};

struct RunResult {
  std::vector<rdf::Triple> log;  // full insertion log after closure
  ForwardStats stats;
};

RunResult run_engine(const Fixture& f, ForwardOptions opts) {
  RunResult r;
  rdf::TripleStore store;
  store.insert_all(f.base.triples());
  r.stats = ForwardEngine(store, f.rules, opts).run(0);
  r.log = store.triples();
  return r;
}

std::vector<rdf::Triple> sorted(std::vector<rdf::Triple> log) {
  std::sort(log.begin(), log.end());
  return log;
}

void expect_same_closure(const RunResult& a, const RunResult& b,
                         const char* label) {
  EXPECT_EQ(a.log.size(), b.log.size()) << label;
  EXPECT_EQ(sorted(a.log), sorted(b.log)) << label;
  EXPECT_EQ(a.stats.derived, b.stats.derived) << label;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          const char* label) {
  EXPECT_EQ(a.log, b.log) << label << " (insertion-log order)";
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
  EXPECT_EQ(a.stats.derived, b.stats.derived) << label;
  EXPECT_EQ(a.stats.attempts, b.stats.attempts) << label;
  EXPECT_EQ(a.stats.firings_per_rule, b.stats.firings_per_rule) << label;
}

void expect_firings_sum_to_derived(const RunResult& r, const char* label) {
  std::size_t sum = 0;
  for (const std::size_t n : r.stats.firings_per_rule) {
    sum += n;
  }
  EXPECT_EQ(sum, r.stats.derived) << label;
}

ForwardOptions with(unsigned threads, const rdf::Dictionary* dict = nullptr) {
  ForwardOptions o;
  o.threads = threads;
  o.dict = dict;
  return o;
}

void check_all_modes(const Fixture& f, const rdf::Dictionary* dict) {
  // Reference: the single-threaded semi-naive engine.
  const RunResult ref = run_engine(f, with(1, dict));
  ASSERT_GT(ref.stats.derived, 0u);
  expect_firings_sum_to_derived(ref, "reference");

  // Thread counts: contiguous frontier shards merged at the round barrier
  // in shard order replay the single-threaded emission sequence exactly.
  for (const unsigned threads : {2u, 4u, 8u}) {
    const RunResult r = run_engine(f, with(threads, dict));
    expect_bit_identical(ref, r, "threaded");
    expect_firings_sum_to_derived(r, "threaded");
  }

  // Naive evaluation visits derivations in a different order, so only the
  // closure (set and count) is comparable.
  ForwardOptions naive = with(1, dict);
  naive.semi_naive = false;
  expect_same_closure(ref, run_engine(f, naive), "naive");
  ForwardOptions naive_threaded = with(4, dict);
  naive_threaded.semi_naive = false;
  expect_same_closure(ref, run_engine(f, naive_threaded), "naive threaded");
}

TEST(EngineEquivalenceTest, LubmClosureIdenticalAcrossAllModes) {
  const Fixture f("lubm");
  check_all_modes(f, nullptr);
}

TEST(EngineEquivalenceTest, LubmClosureIdenticalWithLiteralGuard) {
  // The ForwardOptions::dict literal-guard path must dedup and merge the
  // same way: guarded heads still count as attempts in every mode.
  const Fixture f("lubm");
  check_all_modes(f, &f.dict);
}

// At LUBM(20) each round's barrier insert carries tens of thousands of
// derivations, so the bulk insert's dedup shards, ordered compaction and
// per-predicate index tasks all split real work across the threads.
TEST(EngineEquivalenceTest, Lubm20ClosureBitIdenticalAcrossThreads) {
  const Fixture f("lubm", 20);
  const RunResult ref = run_engine(f, with(1, &f.dict));
  ASSERT_GT(ref.stats.derived, 10000u);
  expect_firings_sum_to_derived(ref, "lubm20 reference");
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const std::string label = "lubm20 threads=" + std::to_string(threads);
    const RunResult r = run_engine(f, with(threads, &f.dict));
    expect_bit_identical(ref, r, label.c_str());
  }
}

TEST(EngineEquivalenceTest, MdcClosureIdenticalAcrossAllModes) {
  const Fixture f("mdc");
  check_all_modes(f, nullptr);
}

TEST(EngineEquivalenceTest, MdcClosureIdenticalWithLiteralGuard) {
  const Fixture f("mdc");
  check_all_modes(f, &f.dict);
}

// UOBM's hasSameHomeTownWith is symmetric and transitive, so semi-naive
// runs close it with the clique operator while naive evaluation keeps the
// generic rdfp3/rdfp4 joins: the two must still reach the same closure, and
// the operator must produce each clique pair about once.
TEST(EngineEquivalenceTest, UobmClosureIdenticalAcrossAllModes) {
  const Fixture f("uobm", 3);
  check_all_modes(f, &f.dict);
  const RunResult r = run_engine(f, with(1, &f.dict));
  EXPECT_GT(r.stats.clique_emitted, r.stats.derived / 2);
  EXPECT_LE(r.stats.attempts, 2 * r.stats.derived);
  std::size_t attempts = 0;
  for (const std::size_t n : r.stats.attempts_per_rule) {
    attempts += n;
  }
  EXPECT_EQ(attempts, r.stats.attempts);
}

TEST(EngineEquivalenceTest, DeltaRunsAgreeAcrossThreadCounts) {
  // The incremental entry point (run(delta_begin)) used by the parallel
  // workers and serve::Updater must also be thread-count invariant.
  const Fixture f("lubm");

  auto run_delta = [&](unsigned threads) {
    rdf::TripleStore store;
    // Split the base: load and close half, then absorb the rest as a delta.
    const auto& all = f.base.triples();
    const std::size_t half = all.size() / 2;
    store.insert_all(std::span(all.data(), half));
    ForwardEngine engine(store, f.rules, with(threads, &f.dict));
    engine.run(0);
    const std::size_t mark = store.size();
    store.insert_all(std::span(all.data() + half, all.size() - half));
    const ForwardStats stats = engine.run(mark);
    return std::pair(store.triples(), stats);
  };

  const auto [ref_log, ref_stats] = run_delta(1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto [log, stats] = run_delta(threads);
    EXPECT_EQ(ref_log, log) << threads << " threads";
    EXPECT_EQ(ref_stats.derived, stats.derived) << threads << " threads";
    EXPECT_EQ(ref_stats.attempts, stats.attempts) << threads << " threads";
    EXPECT_EQ(ref_stats.firings_per_rule, stats.firings_per_rule)
        << threads << " threads";
  }
}

TEST(EngineEquivalenceTest, EqualityRewriteIdenticalAcrossModesAndThreads) {
  // The equality-mode axis of the sweep: under sameAs rewriting every
  // thread count must stay bit-identical — same rewritten insertion log AND
  // the same class map — and naive evaluation must still expand to the
  // same set.
  rdf::Dictionary dict;
  const ontology::Vocabulary vocab(dict);
  rdf::TripleStore base;
  gen::SameAsOptions gopts;
  gopts.individuals = 50;
  gen::generate_sameas(gopts, dict, base);

  struct RewriteRun {
    std::vector<rdf::Triple> log;
    rdf::EqualityClassMap map;
    std::size_t merges = 0;
  };
  auto run = [&](unsigned threads, bool semi_naive) {
    rdf::TripleStore store;
    store.insert_all(base.triples());
    EqualityManager eq;
    MaterializeOptions opts;
    opts.threads = threads;
    opts.semi_naive = semi_naive;
    opts.equality_mode = EqualityMode::kRewrite;
    opts.equality = &eq;
    const MaterializeResult r = materialize(store, dict, vocab, opts);
    return RewriteRun{store.triples(), eq.export_map(), r.eq_merges};
  };

  const RewriteRun ref = run(1, true);
  ASSERT_GT(ref.merges, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const RewriteRun r = run(threads, true);
    EXPECT_EQ(ref.log, r.log)
        << "threads=" << threads << " (insertion-log order)";
    EXPECT_EQ(ref.map.members, r.map.members);
    EXPECT_EQ(ref.map.literals, r.map.literals);
    EXPECT_EQ(ref.map.self_terms, r.map.self_terms);
    EXPECT_EQ(ref.map.raw_edges, r.map.raw_edges);
    EXPECT_EQ(ref.merges, r.merges);
  }

  // Naive evaluation reorders derivations, so compare the expanded sets.
  const RewriteRun naive = run(1, false);
  rdf::TripleStore ref_store;
  ref_store.insert_all(ref.log);
  rdf::TripleStore naive_store;
  naive_store.insert_all(naive.log);
  EXPECT_EQ(expand_closure(ref_store, EqualityManager::import_map(ref.map),
                           vocab.owl_same_as),
            expand_closure(naive_store,
                           EqualityManager::import_map(naive.map),
                           vocab.owl_same_as));
}

TEST(EngineEquivalenceTest, MaterializeThreadsOptionIsTransparent) {
  const Fixture f("lubm");

  auto materialize_with = [&](unsigned threads) {
    rdf::TripleStore store;
    store.insert_all(f.base.triples());
    MaterializeOptions opts;
    opts.threads = threads;
    const MaterializeResult r = materialize(store, f.dict, f.vocab, opts);
    return std::pair(store.triples(), r.inferred);
  };

  const auto [ref_log, ref_inferred] = materialize_with(1);
  EXPECT_GT(ref_inferred, 0u);
  for (const unsigned threads : {2u, 4u}) {
    const auto [log, inferred] = materialize_with(threads);
    EXPECT_EQ(ref_log, log);
    EXPECT_EQ(ref_inferred, inferred);
  }
}

}  // namespace
}  // namespace parowl::reason
