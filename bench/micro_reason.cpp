// Micro-benchmarks for the reasoning engines: forward closure throughput,
// the matching-thread sweep, rule compilation cost, and backward query
// latency.
//
// `tools/record_bench.sh` regenerates bench/BENCH_reason.json (the checked-
// in google-benchmark baseline) from the BM_Closure* sweep.

#include <benchmark/benchmark.h>

#include <chrono>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/reason/backward.hpp"
#include "parowl/reason/materialize.hpp"

namespace {

using namespace parowl;

/// One pre-compiled closure workload: base triples + ground facts + the
/// compiled instance rules, ready for a bare ForwardEngine run.
struct ClosureFixture {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore base;
  rules::RuleSet rules;

  ClosureFixture(const ClosureFixture&) = delete;

  explicit ClosureFixture(bool lubm) {
    if (lubm) {
      gen::LubmOptions o;
      o.universities = 1;
      gen::generate_lubm(o, dict, base);
    } else {
      gen::MdcOptions o;
      o.fields = 2;
      gen::generate_mdc(o, dict, base);
    }
    rules::CompiledRules compiled = reason::compile_ontology(base, vocab);
    base.insert_all(compiled.ground_facts);
    rules = std::move(compiled.rules);
  }
};

/// Forward closure with the matching pass sharded over 1/2/4/8 threads.
/// The closure is bit-identical for every thread count
/// (tests/engine_equivalence_test.cpp); only time may differ.
void closure_sweep(benchmark::State& state, const ClosureFixture& f) {
  reason::ForwardOptions fopts;
  fopts.dict = &f.dict;
  fopts.threads = static_cast<unsigned>(state.range(0));

  std::size_t derived = 0;
  for (auto _ : state) {
    rdf::TripleStore store;
    store.insert_all(f.base.triples());
    // Manual timing (UseManualTime) excludes the store rebuild without the
    // ~0.2 ms/iteration PauseTiming/ResumeTiming overhead that would
    // otherwise swamp the sweep ratios.  Engine construction is timed: the
    // dispatch index is part of the closure's cost.
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = reason::ForwardEngine(store, f.rules, fopts).run(0);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    derived = stats.derived;
  }
  state.counters["derived"] = static_cast<double>(derived);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.base.size() + derived));
}

void BM_ClosureLubm(benchmark::State& state) {
  static const ClosureFixture f(true);
  closure_sweep(state, f);
}

void BM_ClosureMdc(benchmark::State& state) {
  static const ClosureFixture f(false);
  closure_sweep(state, f);
}

BENCHMARK(BM_ClosureLubm)
    ->ArgName("threads")
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->UseManualTime();
BENCHMARK(BM_ClosureMdc)
    ->ArgName("threads")
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->UseManualTime();

void BM_CompileOntology(benchmark::State& state) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::generate_lubm_ontology(dict, store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reason::compile_ontology(store, vocab));
  }
}
BENCHMARK(BM_CompileOntology);

void BM_ForwardClosureLubm(benchmark::State& state) {
  const auto universities = static_cast<unsigned>(state.range(0));
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore base;
  gen::LubmOptions opts;
  opts.universities = universities;
  gen::generate_lubm(opts, dict, base);

  std::size_t inferred = 0;
  for (auto _ : state) {
    rdf::TripleStore store;
    store.insert_all(base.triples());
    const auto r = reason::materialize(store, dict, vocab, {});
    inferred = r.inferred;
  }
  state.counters["inferred"] = static_cast<double>(inferred);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_ForwardClosureLubm)->Arg(1)->Arg(2)->Arg(4);

void BM_BackwardQueryPerResource(benchmark::State& state) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  const auto compiled = reason::compile_ontology(store, vocab);

  // Query a professor (deep proof space: types, inverses, subproperties).
  const auto prof = dict.find_iri(
      "http://www.Department0.Univ0.edu/FullProfessor0");
  for (auto _ : state) {
    reason::BackwardEngine engine(store, compiled.rules,
                                  reason::BackwardOptions{.dict = &dict});
    std::vector<rdf::Triple> out;
    engine.query({prof, rdf::kAnyTerm, rdf::kAnyTerm}, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BackwardQueryPerResource);

}  // namespace
