// The clique operator for symmetric-transitive predicates
// (src/reason/src/clique.cpp): rule-shape detection, and closures pinned to
// naive evaluation — which never uses the operator — on random graphs that mix
// two clique predicates (one also fed through subPropertyOf and inverseOf),
// a symmetric-only predicate, self-loops, literal objects and asserted
// literal-subject edges.  Semi-naive logs must stay bit-identical across
// thread counts and with the dispatch index on or off.  The cluster's
// forest rule (src/parallel/src/worker.cpp) is pinned to the single store
// on the same graphs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/parallel/cluster.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/partition/owner_policy.hpp"
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

// -- The cluster's forest rule ------------------------------------------
//
// Under data partitioning a clique predicate crosses the cluster as the
// edges that change a worker's forest, and each worker closes a component
// only into the pairs with an endpoint it owns (or with no owned endpoint).

/// Forwards to `inner`, keeping a copy of every first transmission of a
/// data envelope.
class RecordingTransport final : public parallel::Transport {
 public:
  explicit RecordingTransport(parallel::Transport& inner)
      : Transport(inner.num_partitions()), inner_(inner) {}

  void send_batch(parallel::Batch batch) override {
    if (batch.kind == parallel::BatchKind::kData && batch.attempt == 0) {
      const std::scoped_lock lock(mutex_);
      sent_.push_back(batch);
    }
    inner_.send_batch(std::move(batch));
  }
  std::vector<parallel::Batch> receive_batches(std::uint32_t to,
                                               std::uint32_t round) override {
    return inner_.receive_batches(to, round);
  }
  std::vector<parallel::Batch> receive_all(std::uint32_t to) override {
    return inner_.receive_all(to);
  }
  [[nodiscard]] parallel::FaultLog injected_faults() const override {
    return inner_.injected_faults();
  }
  [[nodiscard]] std::string name() const override {
    return "recording+" + inner_.name();
  }
  [[nodiscard]] const std::vector<parallel::Batch>& sent() const {
    return sent_;
  }

 private:
  parallel::Transport& inner_;
  std::mutex mutex_;
  std::vector<parallel::Batch> sent_;
};

/// A KB for the cluster runs: its input, dictionary and single-store
/// closure.
struct ClusterKb {
  const rdf::TripleStore& base;
  const rdf::Dictionary& dict;
  const ontology::Vocabulary& vocab;
};

struct ClusterConfig {
  std::uint32_t k = 2;
  parallel::ExecutionMode mode = parallel::ExecutionMode::kSequentialSimulated;
  const parallel::FaultSpec* faults = nullptr;
  std::string checkpoint_dir;
  std::int64_t crash_at_round = -1;
  std::size_t async_chunk = 256;
};

struct ClusterRun {
  std::vector<std::vector<rdf::Triple>> logs;  // per worker, in log order
  partition::OwnerTable owners;
  std::vector<parallel::Batch> sent;
  std::vector<CliquePredicate> cliques;
  parallel::ClusterResult result;
  /// Input, schema ground facts and every worker's log.
  rdf::TripleStore merged;
};

/// A data-partitioned cluster over `kb`, built the way
/// parallel_materialize builds one, run to its fixpoint.
ClusterRun run_cluster(const ClusterKb& kb, const ClusterConfig& config) {
  const rules::CompiledRules compiled =
      compile_ontology(kb.base, kb.vocab, {});
  const partition::HashOwnerPolicy policy;
  partition::DataPartitioning dp = partition::partition_data(
      kb.base, kb.dict, kb.vocab, policy, config.k);
  ClusterRun run;
  run.owners = dp.owners;
  run.cliques = analyze_cliques(compiled.rules).predicates;
  const auto router =
      std::make_shared<parallel::OwnerRouter>(std::move(dp.owners));
  parallel::MemoryTransport memory(config.k);
  std::optional<parallel::FaultyTransport> faulty;
  parallel::Transport* inner = &memory;
  if (config.faults != nullptr) {
    inner = &faulty.emplace(memory, *config.faults);
  }
  RecordingTransport transport(*inner);
  parallel::ClusterOptions copts;
  copts.mode = config.mode;
  copts.checkpoint_dir = config.checkpoint_dir;
  copts.fault_tolerance.crash_at_round = config.crash_at_round;
  copts.fault_tolerance.crash_worker = config.k - 1;
  copts.async.chunk = config.async_chunk;
  copts.async.steal_batch = config.async_chunk;
  parallel::Cluster cluster(transport, copts);
  parallel::WorkerOptions wopts;
  wopts.dict = &kb.dict;
  for (std::uint32_t p = 0; p < config.k; ++p) {
    cluster.load(cluster.add_worker(compiled.rules, router, wopts),
                 dp.parts[p]);
  }
  run.result = cluster.run();
  run.merged.insert_all(kb.base.triples());
  run.merged.insert_all(compiled.ground_facts);
  for (std::uint32_t p = 0; p < config.k; ++p) {
    run.logs.push_back(cluster.worker(p).store().triples());
    run.merged.insert_all(run.logs.back());
  }
  run.sent = transport.sent();
  return run;
}

/// Every triple of `closure` is held by the owner of each resource
/// endpoint it has (literal endpoints are never placed by owner).
void expect_placed(const ClusterRun& run, const rdf::TripleStore& closure,
                   const rdf::Dictionary& dict, const std::string& label) {
  std::vector<rdf::TripleSet> held;
  for (const auto& log : run.logs) {
    held.emplace_back(log);
  }
  for (const rdf::Triple& t : closure.triples()) {
    for (const rdf::TermId e : {t.s, t.o}) {
      const auto it = run.owners.find(e);
      if (it == run.owners.end() ||
          dict.kind(e) == rdf::TermKind::kLiteral) {
        continue;
      }
      ASSERT_TRUE(held[it->second].contains(t))
          << label << ": worker " << it->second << " lacks a triple of "
          << (e == t.s ? "its subject" : "its object");
    }
  }
}

std::vector<rdf::Triple> sorted_log(const rdf::TripleStore& store) {
  return sorted(store.triples());
}

TEST(CliqueClusterTest, RandomKbsMatchTheSingleStoreUnderEveryDriver) {
  parallel::FaultSpec faults;
  faults.seed = 7;
  faults.drop = 0.15;
  faults.duplicate = 0.1;
  faults.corrupt = 0.1;
  faults.delay = 0.1;
  faults.reorder = 0.3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Every fourth KB has no literals; the others have literal sinks,
    // literal-subject edges and a literal-literal edge.
    const RandomKb kb(seed, /*with_literals=*/seed % 4 != 0);
    rdf::TripleStore single = kb.base;
    materialize(single, kb.dict, kb.vocab, naive());
    const std::vector<rdf::Triple> want = sorted_log(single);
    const ClusterKb ckb{kb.base, kb.dict, kb.vocab};
    for (const std::uint32_t k : {2u, 3u, 4u}) {
      for (const auto mode : {parallel::ExecutionMode::kSequentialSimulated,
                              parallel::ExecutionMode::kThreaded,
                              parallel::ExecutionMode::kAsync}) {
        for (const bool faulty : {false, true}) {
          const std::string label =
              "seed " + std::to_string(seed) + " k " + std::to_string(k) +
              " mode " + std::to_string(static_cast<int>(mode)) +
              (faulty ? " faulty" : "");
          ClusterConfig config;
          config.k = k;
          config.mode = mode;
          config.faults = faulty ? &faults : nullptr;
          const ClusterRun run = run_cluster(ckb, config);
          ASSERT_EQ(sorted_log(run.merged), want) << label;
          expect_placed(run, single, kb.dict, label);
        }
      }
    }
  }
}

TEST(CliqueClusterTest, WorkerLogsAreByteIdenticalAcrossThreadsAndDrivers) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomKb kb(seed, /*with_literals=*/seed % 4 != 0);
    const ClusterKb ckb{kb.base, kb.dict, kb.vocab};
    ClusterConfig config;
    config.k = 3;
    const ClusterRun ref = run_cluster(ckb, config);
    config.mode = parallel::ExecutionMode::kThreaded;
    EXPECT_EQ(run_cluster(ckb, config).logs, ref.logs) << "seed " << seed;
  }
}

/// UOBM(`universities`) with `hometowns` hometown classes.
struct UobmKb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore base;

  UobmKb(std::uint32_t universities, std::uint32_t hometowns) {
    gen::UobmOptions o;
    o.base.universities = universities;
    o.hometowns = hometowns;
    gen::generate_uobm(o, dict, base);
  }
};

TEST(CliqueClusterTest, UobmShipsOnlyEdgesThatChangeTheSendersForest) {
  const UobmKb kb(2, 20);  // as `parowl gen uobm --scale 2`
  ClusterConfig config;
  config.k = 4;
  const ClusterRun run = run_cluster({kb.base, kb.dict, kb.vocab}, config);
  ASSERT_FALSE(run.cliques.empty());

  rdf::TripleStore single = kb.base;
  materialize(single, kb.dict, kb.vocab, {});
  ASSERT_EQ(sorted_log(run.merged), sorted_log(single));
  expect_placed(run, single, kb.dict, "uobm2");

  // Replaying a worker's log through fresh forests marks the triples that
  // changed them; a worker folds its log in exactly that order.
  std::size_t shipped = 0;
  for (std::uint32_t w = 0; w < config.k; ++w) {
    std::vector<CliqueForest> forests(run.cliques.size(),
                                      CliqueForest(&kb.dict));
    rdf::TripleSet changed;
    for (const rdf::Triple& t : run.logs[w]) {
      for (std::size_t i = 0; i < run.cliques.size(); ++i) {
        if (t.p == run.cliques[i].predicate && forests[i].add(t)) {
          changed.insert(t);
        }
      }
    }
    rdf::TripleSet seen_per_peer[4];
    for (const parallel::Batch& batch : run.sent) {
      if (batch.from != w) {
        continue;
      }
      for (const rdf::Triple& t : batch.tuples) {
        for (const CliquePredicate& cp : run.cliques) {
          if (t.p != cp.predicate) {
            continue;
          }
          ++shipped;
          EXPECT_TRUE(changed.contains(t))
              << "worker " << w << " shipped an edge its forest implied";
          EXPECT_TRUE(seen_per_peer[batch.to].insert(t))
              << "worker " << w << " shipped an edge twice";
        }
      }
    }
  }
  EXPECT_GT(shipped, 0u);

  // The receiver side of the same traffic: every shipped tuple arrived
  // (no faults), and some of it was new there.
  std::size_t exchanged = 0;
  std::size_t received = 0;
  std::size_t received_new = 0;
  for (const parallel::RoundBreakdown& rb : run.result.breakdown) {
    exchanged += rb.tuples_exchanged;
    received += rb.received_tuples;
    received_new += rb.received_new;
  }
  EXPECT_EQ(received, exchanged);
  EXPECT_GT(received_new, 0u);
  EXPECT_LE(received_new, received);
}

TEST(CliqueClusterTest, CheckpointRestoreMidRunGivesTheUninterruptedLogs) {
  const UobmKb kb(1, 10);
  const ClusterKb ckb{kb.base, kb.dict, kb.vocab};
  const auto scratch = std::filesystem::temp_directory_path() /
                       ("parowl_clique_ckpt_" + std::to_string(::getpid()));

  ClusterConfig config;
  config.k = 4;
  const ClusterRun ref = run_cluster(ckb, config);
  ASSERT_GE(ref.result.rounds, 3u) << "fixture too small to crash mid-run";
  config.checkpoint_dir = (scratch / "rounds").string();
  config.crash_at_round = 2;
  const ClusterRun restored = run_cluster(ckb, config);
  EXPECT_TRUE(restored.result.report.recovered);
  EXPECT_EQ(restored.logs, ref.logs);

  // The async driver restores from an epoch cut; its logs equal the
  // round driver's as sets.
  ClusterConfig async;
  async.k = 4;
  async.mode = parallel::ExecutionMode::kAsync;
  async.checkpoint_dir = (scratch / "epochs").string();
  async.crash_at_round = 1;  // the first activation after an epoch cut
  async.async_chunk = 64;
  const ClusterRun async_run = run_cluster(ckb, async);
  EXPECT_TRUE(async_run.result.report.recovered);
  // Its one breakdown entry carries the run's traffic.
  ASSERT_EQ(async_run.result.breakdown.size(), 1u);
  EXPECT_GT(async_run.result.breakdown[0].tuples_exchanged, 0u);
  EXPECT_GT(async_run.result.breakdown[0].received_new, 0u);
  ASSERT_EQ(async_run.logs.size(), ref.logs.size());
  for (std::size_t w = 0; w < ref.logs.size(); ++w) {
    EXPECT_EQ(sorted(async_run.logs[w]), sorted(ref.logs[w])) << "worker " << w;
  }
  std::filesystem::remove_all(scratch);
}

TEST(CliqueClusterTest, MergingOnlyDerivationsKeepsTheWholeStoreMergeLog) {
  // parallel_materialize merges the input, the ground facts and each
  // worker's derivations; run_cluster keeps the construction that inserted
  // every worker's whole store, the oracle here.
  rdf::Dictionary lubm_dict;
  const ontology::Vocabulary lubm_vocab(lubm_dict);
  rdf::TripleStore lubm;
  gen::LubmOptions lo;
  lo.universities = 2;
  gen::generate_lubm(lo, lubm_dict, lubm);
  const UobmKb uobm(1, 10);
  for (const auto& [label, kb] :
       {std::pair{"lubm2", ClusterKb{lubm, lubm_dict, lubm_vocab}},
        std::pair{"uobm1", ClusterKb{uobm.base, uobm.dict, uobm.vocab}}}) {
    ClusterConfig config;
    config.k = 4;
    const ClusterRun oracle = run_cluster(kb, config);

    const partition::HashOwnerPolicy policy;
    parallel::ParallelOptions opts;
    opts.partitions = config.k;
    opts.policy = &policy;
    const parallel::ParallelResult run =
        parallel::parallel_materialize(kb.base, kb.dict, kb.vocab, opts);
    ASSERT_TRUE(run.merged.has_value()) << label;
    EXPECT_TRUE(run.merged->triples() == oracle.merged.triples()) << label;
    EXPECT_EQ(run.inferred, oracle.merged.size() - kb.base.size()) << label;
  }
}

}  // namespace
}  // namespace parowl::reason
