// Incremental-maintenance bench: the paper's setting is a materialized KB
// where "the frequency of data being added is much smaller than that of
// queries".  Between full materializations, updates should be absorbed
// incrementally.  Arms, swept over batch size (number of affected
// students; adds are 3 triples each):
//   BM_MaintainMixed_dred — mixed add+delete batches through
//     reason::Maintainer (DRed: overdelete + rederive);
//   BM_IncrementalAdditions — additions-only semi-naive closure
//     (materialize_incremental), the pre-deletion fast path;
//   BM_FullRematerialize — from-scratch closure of the equivalent final
//     base, the cost incremental maintenance avoids.
// Counters report the overdeletion cone (overdeleted/rederived/removed) so
// the cost of overdeleting what is then rederived is visible, not just
// total time.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/reason/maintain.hpp"

namespace {

using namespace parowl;
using namespace parowl::bench;

/// Materialized LUBM universe + deterministic update batches, built once.
struct IncUniverse {
  Universe u;
  rdf::TripleStore closure;        // materialized
  std::vector<rdf::Triple> base;   // asserted triples
  std::vector<rdf::Triple> deletable;  // instance triples, every 3rd

  rdf::TermId type, grad, member_of, takes, dept, course;

  IncUniverse() {
    make_lubm(u, 4 * scale_factor());
    base = u.store.triples();
    closure.insert_all(base);
    reason::materialize(closure, u.dict, *u.vocab, {});

    std::size_t i = 0;
    for (const rdf::Triple& t : base) {
      if (!u.vocab->is_schema_triple(t) && i++ % 3 == 0) {
        deletable.push_back(t);
      }
    }

    type = u.dict.find_iri(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    grad = u.dict.find_iri(std::string(gen::kUnivBenchNs) +
                           "GraduateStudent");
    member_of =
        u.dict.find_iri(std::string(gen::kUnivBenchNs) + "memberOf");
    takes = u.dict.find_iri(std::string(gen::kUnivBenchNs) + "takesCourse");
    dept = u.dict.find_iri("http://www.Univ0.edu/Department0");
    course = u.dict.find_iri("http://www.Department0.Univ0.edu/Course0_0");
  }

  /// `n` new graduate students joining Department0 (3 triples each).
  std::vector<rdf::Triple> additions(std::size_t n) {
    std::vector<rdf::Triple> adds;
    for (std::size_t i = 0; i < n; ++i) {
      const auto stu = u.dict.intern_iri(
          "http://www.Department0.Univ0.edu/NewStudent" + std::to_string(i));
      adds.push_back({stu, type, grad});
      adds.push_back({stu, member_of, dept});
      adds.push_back({stu, takes, course});
    }
    return adds;
  }

  std::vector<rdf::Triple> deletions(std::size_t n) {
    const std::size_t take = std::min(n, deletable.size());
    return {deletable.begin(),
            deletable.begin() + static_cast<std::ptrdiff_t>(take)};
  }
};

IncUniverse& universe() {
  static IncUniverse u;
  return u;
}

void BM_MaintainMixed_dred(benchmark::State& state) {
  IncUniverse& fx = universe();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<rdf::Triple> adds = fx.additions(n);
  const std::vector<rdf::Triple> dels = fx.deletions(n);

  // The rule base is compiled once, outside the timed loop, as
  // serve::Updater does: a batch pays for its delta, not a schema scan.
  reason::MaintainOptions opts;
  const rules::CompiledRules compiled =
      reason::Maintainer(fx.u.dict, *fx.u.vocab, opts).compile(fx.closure);
  opts.compiled = &compiled;
  const reason::Maintainer maintainer(fx.u.dict, *fx.u.vocab, opts);

  const rdf::TripleSet asserted(fx.base);
  reason::MaintainResult last;
  for (auto _ : state) {
    state.PauseTiming();
    // maintain mutates a copy; the copy shares the closure's segments,
    // so apply pays for cloning the ones the batch writes.
    rdf::TripleStore store = fx.closure;
    rdf::TripleSet base = asserted;
    state.ResumeTiming();
    last = maintainer.apply(store, base, adds, dels);
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["overdeleted"] = static_cast<double>(last.overdeleted);
  state.counters["rederived"] = static_cast<double>(last.rederived);
  state.counters["removed"] = static_cast<double>(last.removed);
}

BENCHMARK(BM_MaintainMixed_dred)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalAdditions(benchmark::State& state) {
  IncUniverse& fx = universe();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<rdf::Triple> adds = fx.additions(n);

  std::size_t inferred = 0;
  for (auto _ : state) {
    state.PauseTiming();
    rdf::TripleStore store = fx.closure;
    state.ResumeTiming();
    const auto r =
        reason::materialize_incremental(store, fx.u.dict, *fx.u.vocab, adds);
    inferred = r.inferred;
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["inferred"] = static_cast<double>(inferred);
}
BENCHMARK(BM_IncrementalAdditions)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_FullRematerialize(benchmark::State& state) {
  IncUniverse& fx = universe();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<rdf::Triple> adds = fx.additions(n);
  const std::vector<rdf::Triple> dels = fx.deletions(n);
  rdf::TripleSet del_set;
  for (const rdf::Triple& t : dels) {
    del_set.insert(t);
  }

  for (auto _ : state) {
    state.PauseTiming();
    rdf::TripleStore scratch;
    for (const rdf::Triple& t : fx.base) {
      if (!del_set.contains(t)) {
        scratch.insert(t);
      }
    }
    scratch.insert_all(adds);
    state.ResumeTiming();
    reason::materialize(scratch, fx.u.dict, *fx.u.vocab, {});
    benchmark::DoNotOptimize(scratch.size());
  }
}
BENCHMARK(BM_FullRematerialize)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
