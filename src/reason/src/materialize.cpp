#include "parowl/reason/materialize.hpp"

#include "parowl/obs/obs.hpp"

#include <algorithm>
#include <unordered_set>

#include "parowl/util/timer.hpp"

namespace parowl::reason {

rules::CompiledRules compile_ontology(const rdf::TripleStore& store,
                                      const ontology::Vocabulary& vocab,
                                      const rules::HorstOptions& horst) {
  const rules::RuleSet generic = rules::horst_rules(vocab, horst);

  // Build and saturate the schema store so the compiler sees inherited
  // axioms (e.g. a transitivity declaration reached via subPropertyOf).
  rdf::TripleStore schema;
  for (const rdf::Triple& t : store.triples()) {
    if (vocab.is_schema_triple(t)) {
      schema.insert(t);
    }
  }
  forward_closure(schema, generic);

  return rules::compile_rules(generic, schema, vocab);
}

namespace {

/// Safety cap on query-driven outer sweeps.
constexpr std::size_t kMaxSweeps = 64;

/// One query-driven sweep over the given resource set, asserting every
/// (r, ?p, ?o) answer.  Returns the number of new triples.
std::size_t query_driven_sweep_over(
    rdf::TripleStore& store, const rdf::Dictionary& dict,
    const rules::RuleSet& rules,
    const std::unordered_set<rdf::TermId>& resources) {
  const BackwardOptions opts{.dict = &dict};
  std::size_t added = 0;
  std::vector<rdf::Triple> answers;
  for (const rdf::TermId r : resources) {
    answers.clear();
    // Fresh tables per query — each query pays the full proof-space
    // exploration, as Jena's per-resource materialization queries do.
    BackwardEngine engine(store, rules, opts);
    engine.query(rdf::TriplePattern{r, rdf::kAnyTerm, rdf::kAnyTerm},
                 answers);
    for (const rdf::Triple& t : answers) {
      added += store.insert(t) ? 1 : 0;
    }
  }
  return added;
}

/// One full sweep: (r, ?p, ?o) for every resource in the store.
std::size_t query_driven_sweep(rdf::TripleStore& store,
                               const rdf::Dictionary& dict,
                               const rules::RuleSet& rules) {
  // Snapshot the resources first: insertions during the sweep must not
  // perturb the iteration.
  std::unordered_set<rdf::TermId> resources;
  for (const rdf::Triple& t : store.triples()) {
    resources.insert(t.s);
    if (dict.is_resource(t.o)) {
      resources.insert(t.o);
    }
  }
  return query_driven_sweep_over(store, dict, rules, resources);
}

}  // namespace

QueryDrivenStats query_driven_closure_delta(rdf::TripleStore& store,
                                            const rdf::Dictionary& dict,
                                            const rules::RuleSet& rules,
                                            std::size_t delta_begin) {
  QueryDrivenStats stats;
  if (delta_begin >= store.size()) {
    return stats;  // no new information: the closure cannot change
  }
  // Fall back to full sweeps when the rule shape breaks the adjacency
  // argument (bodies longer than two atoms).
  const bool single_join_shape =
      std::ranges::all_of(rules.rules(), [](const rules::Rule& r) {
        return r.body.size() <= 2;
      });
  if (delta_begin == 0 || !single_join_shape) {
    return query_driven_closure(store, dict, rules);
  }

  std::size_t mark = delta_begin;
  while (stats.sweeps < kMaxSweeps) {
    const std::size_t end = store.size();
    if (mark >= end) {
      break;
    }
    ++stats.sweeps;
    // Affected resources: endpoints of the delta triples plus everything
    // store-adjacent to those endpoints (see header for the completeness
    // argument).
    std::unordered_set<rdf::TermId> affected;
    auto note = [&](rdf::TermId id) {
      if (dict.is_resource(id)) {
        affected.insert(id);
      }
    };
    for (std::size_t i = mark; i < end; ++i) {
      const rdf::Triple& t = store.triples()[i];
      note(t.s);
      note(t.o);
    }
    std::vector<rdf::TermId> frontier(affected.begin(), affected.end());
    for (const rdf::TermId n : frontier) {
      store.for_subject(n, [&](const rdf::Triple& t) { note(t.o); });
      store.for_object(n, [&](const rdf::Triple& t) { note(t.s); });
    }
    mark = end;
    stats.added += query_driven_sweep_over(store, dict, rules, affected);
  }
  return stats;
}

QueryDrivenStats query_driven_closure(rdf::TripleStore& store,
                                      const rdf::Dictionary& dict,
                                      const rules::RuleSet& rules) {
  QueryDrivenStats stats;
  while (stats.sweeps < kMaxSweeps) {
    ++stats.sweeps;
    const std::size_t added = query_driven_sweep(store, dict, rules);
    stats.added += added;
    if (added == 0) {
      break;
    }
  }
  return stats;
}

MaterializeResult materialize(rdf::TripleStore& store,
                              const rdf::Dictionary& dict,
                              const ontology::Vocabulary& vocab,
                              const MaterializeOptions& options) {
  obs::configure(options.obs);
  PAROWL_SPAN("reason.materialize",
              {{"strategy", options.strategy == Strategy::kForward
                                ? "forward"
                                : "query_driven"}});
  MaterializeResult result;
  result.base_triples = store.size();
  for (const rdf::Triple& t : store.triples()) {
    result.schema_triples += vocab.is_schema_triple(t) ? 1 : 0;
  }

  // Equality rewriting only applies to the forward strategy; it drops the
  // sameAs propagation rules, whose work the EqualityManager takes over.
  const bool rewrite = options.strategy == Strategy::kForward &&
                       options.equality_mode == EqualityMode::kRewrite &&
                       options.equality != nullptr;
  rules::HorstOptions horst = options.horst;
  if (rewrite) {
    horst.include_same_as_propagation = false;
  }

  util::Stopwatch compile_watch;
  rules::RuleSet active;
  if (options.compile) {
    rules::CompiledRules compiled = compile_ontology(store, vocab, horst);
    for (const rdf::Triple& t : compiled.ground_facts) {
      store.insert(t);
    }
    result.compiled_rules = compiled.rules.size();
    active = std::move(compiled.rules);
  } else {
    active = rules::horst_rules(vocab, horst);
    result.compiled_rules = active.size();
  }
  result.compile_seconds = compile_watch.elapsed_seconds();

  util::Stopwatch reason_watch;
  if (options.strategy == Strategy::kForward) {
    ForwardOptions fopts;
    fopts.semi_naive = options.semi_naive;
    fopts.dict = &dict;
    fopts.threads = options.threads;
    fopts.obs = options.obs;
    if (rewrite) {
      fopts.equality_mode = EqualityMode::kRewrite;
      fopts.equality = options.equality;
      fopts.same_as = vocab.owl_same_as;
    }
    const ForwardStats stats = ForwardEngine(store, active, fopts).run(0);
    obs::publish(RuleReport{stats, active}, "reason.rule");
    result.iterations = stats.iterations;
    result.eq_merges = stats.eq_merges;
    result.eq_conflicts = stats.eq_conflicts;
    result.endpoint_index_builds = stats.endpoint_index_builds;
  } else {
    const QueryDrivenStats stats = query_driven_closure(store, dict, active);
    result.iterations = stats.sweeps;
  }
  result.reason_seconds = reason_watch.elapsed_seconds();
  // The rewrite can leave the store SMALLER than the input (sameAs triples
  // fold into the class map); clamp rather than underflow.
  result.inferred = store.size() > result.base_triples
                        ? store.size() - result.base_triples
                        : 0;
  obs::publish(result, "reason.materialize");
  return result;
}

IncrementalResult materialize_incremental(
    rdf::TripleStore& store, const rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab,
    std::span<const rdf::Triple> additions,
    const rules::HorstOptions& horst, unsigned threads,
    EqualityMode equality_mode, EqualityManager* equality) {
  rules::HorstOptions hopts = horst;
  if (equality_mode == EqualityMode::kRewrite && equality != nullptr) {
    hopts.include_same_as_propagation = false;
  }
  // The compiled rule-base depends only on the schema, which is unchanged.
  const rules::CompiledRules compiled = compile_ontology(store, vocab, hopts);
  return materialize_incremental(store, dict, vocab, compiled.rules,
                                 additions, threads, equality_mode, equality);
}

IncrementalResult materialize_incremental(
    rdf::TripleStore& store, const rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab, const rules::RuleSet& rules,
    std::span<const rdf::Triple> additions, unsigned threads,
    EqualityMode equality_mode, EqualityManager* equality) {
  IncrementalResult result;
  for (const rdf::Triple& t : additions) {
    if (vocab.is_schema_triple(t)) {
      result.schema_changed = true;
      return result;  // caller must re-materialize from scratch
    }
  }

  const std::size_t delta_begin = store.size();
  result.added = store.insert_all(additions);
  if (result.added == 0) {
    return result;  // everything already present: fixpoint unchanged
  }

  util::Stopwatch watch;
  ForwardOptions fopts;
  fopts.dict = &dict;
  fopts.threads = threads;
  if (equality_mode == EqualityMode::kRewrite && equality != nullptr) {
    fopts.equality_mode = EqualityMode::kRewrite;
    fopts.equality = equality;
    fopts.same_as = vocab.owl_same_as;
  }
  const ForwardStats stats =
      ForwardEngine(store, rules, fopts).run(delta_begin);
  result.iterations = stats.iterations;
  result.eq_merges = stats.eq_merges;
  result.eq_rebuilds = stats.eq_rebuilds;
  // New sameAs assertions fold into the class map and a merge can shrink
  // the store, so the inferred count is clamped at zero.
  const std::size_t floor = delta_begin + result.added;
  result.inferred = store.size() > floor ? store.size() - floor : 0;
  result.reason_seconds = watch.elapsed_seconds();
  return result;
}

obs::FieldList fields(const MaterializeResult& r) {
  return {
      {"base_triples", r.base_triples},
      {"schema_triples", r.schema_triples},
      {"inferred", r.inferred},
      {"iterations", r.iterations},
      {"compiled_rules", r.compiled_rules},
      {"reason_seconds", r.reason_seconds},
      {"compile_seconds", r.compile_seconds},
      {"eq_merges", r.eq_merges},
      {"eq_conflicts", r.eq_conflicts},
      {"endpoint_index_builds", r.endpoint_index_builds},
  };
}

obs::FieldList fields(const QueryDrivenStats& s) {
  return {
      {"sweeps", s.sweeps},
      {"added", s.added},
  };
}

obs::FieldList fields(const IncrementalResult& r) {
  return {
      {"added", r.added},
      {"inferred", r.inferred},
      {"iterations", r.iterations},
      {"schema_changed", r.schema_changed},
      {"reason_seconds", r.reason_seconds},
      {"eq_merges", r.eq_merges},
      {"eq_rebuilds", r.eq_rebuilds},
  };
}

}  // namespace parowl::reason
