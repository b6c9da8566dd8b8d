#include "parowl/reason/maintain.hpp"

#include <cassert>
#include <optional>
#include <utility>

#include "parowl/obs/obs.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/compiler.hpp"
#include "parowl/rules/match.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::reason {
namespace {

/// True iff some rule derives `t` in one step from facts in `store`.
bool one_step_derivable(const rdf::TripleStore& store,
                        const rules::RuleSet& rules, const rdf::Triple& t) {
  for (const rules::Rule& rule : rules.rules()) {
    rules::Binding binding{};
    if (!rules::bind_atom(rule.head, t, binding)) {
      continue;
    }
    if (!rules::join_body(store, rule.body, 0, binding,
                          [] { return false; })) {
      return true;  // the join stopped at the first complete binding
    }
  }
  return false;
}

/// Facts that can never leave the closure during one batch: the updated
/// base, (base \ deletions) + additions, plus the compile-time ground
/// facts.  Reads the base as it was before the batch, so nothing is edited
/// until the batch can no longer be rejected.
struct ProtectedFacts {
  const rdf::TripleSet& base;
  const rdf::TripleSet& deleted;
  const rdf::TripleSet& added;
  rdf::TripleSet ground;

  [[nodiscard]] bool contains(const rdf::Triple& t) const {
    return (base.contains(t) && !deleted.contains(t)) || added.contains(t) ||
           ground.contains(t);
  }
};

}  // namespace

Maintainer::Maintainer(const rdf::Dictionary& dict,
                       const ontology::Vocabulary& vocab,
                       MaintainOptions options)
    : dict_(dict), vocab_(vocab), options_(std::move(options)) {}

rules::CompiledRules Maintainer::compile(const rdf::TripleStore& store) const {
  PAROWL_SPAN("maintain.compile", {{"triples", store.size()}});
  rules::HorstOptions hopts = options_.horst;
  if (options_.equality_mode == EqualityMode::kRewrite &&
      options_.equality != nullptr) {
    hopts.include_same_as_propagation = false;
  }
  return compile_ontology(store, vocab_, hopts);
}

MaintainResult Maintainer::apply(rdf::TripleStore& store, rdf::TripleSet& base,
                                 std::span<const rdf::Triple> additions,
                                 std::span<const rdf::Triple> deletions) const {
  obs::configure(options_.obs);
  MaintainResult result;
  util::Stopwatch total;
  PAROWL_SPAN("maintain.apply", {{"additions", additions.size()},
                                 {"deletions", deletions.size()}});

  for (const rdf::Triple& t : additions) {
    if (vocab_.is_schema_triple(t)) {
      result.schema_changed = true;
      return result;
    }
  }
  for (const rdf::Triple& t : deletions) {
    if (vocab_.is_schema_triple(t)) {
      result.schema_changed = true;
      return result;
    }
  }

  // Equality rewriting: the class map only grows (see the header's
  // equality_rejected contract).  Deleting a sameAs edge, or any fact about
  // a merged individual, cannot be maintained incrementally — reject the
  // whole batch before touching anything.
  const bool rewrite = options_.equality_mode == EqualityMode::kRewrite &&
                       options_.equality != nullptr;
  if (rewrite) {
    for (const rdf::Triple& t : deletions) {
      if (t.p == vocab_.owl_same_as || options_.equality->tracked(t.s) ||
          options_.equality->tracked(t.o)) {
        result.equality_rejected = true;
        return result;
      }
    }
  }

  const rdf::TripleSet addition_set(additions);

  // Effective deletions: present in the base and not re-added in the same
  // batch (batch-atomic semantics).  Deduplicated, batch order.
  std::vector<rdf::Triple> effective;
  rdf::TripleSet delete_set;
  for (const rdf::Triple& t : deletions) {
    if (base.contains(t) && !addition_set.contains(t) &&
        delete_set.insert(t)) {
      effective.push_back(t);
    }
  }
  result.base_deleted = effective.size();

  // Mixing sameAs additions with deletions would interleave class-map
  // merges with the overdelete cone; pure-addition batches below handle
  // them through the engine's interceptor instead.
  if (rewrite && !effective.empty()) {
    for (const rdf::Triple& t : additions) {
      if (t.p == vocab_.owl_same_as) {
        result.equality_rejected = true;
        return result;
      }
    }
  }

  // The updated base is (base \ effective) + additions.  It is edited only
  // after the last rejection point, so a rejected batch leaves it as is.
  const auto update_base = [&] {
    PAROWL_SPAN("maintain.base", {{"base", base.size()}});
    for (const rdf::Triple& t : effective) {
      base.erase(t);
    }
    for (const rdf::Triple& t : additions) {
      result.base_added += base.insert(t) ? 1 : 0;
    }
  };

  // The compiled rule-base depends only on the schema, which is unchanged.
  std::optional<rules::CompiledRules> own_compiled;
  const rules::CompiledRules& compiled =
      options_.compiled != nullptr ? *options_.compiled
                                   : own_compiled.emplace(compile(store));

  if (effective.empty()) {
    // Pure-addition batch: the existing semi-naive delta path.  The base
    // still records every addition (dedup against the base, not the
    // closure: an addition that was merely derived before becomes asserted
    // and must survive a later deletion of its support).
    const std::size_t before = store.size();
    const IncrementalResult inc = materialize_incremental(
        store, dict_, vocab_, compiled.rules, additions, options_.threads,
        options_.equality_mode, options_.equality);
    assert(!inc.schema_changed);
    update_base();
    result.inferred = inc.inferred;
    result.rederive_iterations = inc.iterations;
    result.rederive_seconds = inc.reason_seconds;
    result.eq_merges = inc.eq_merges;
    result.eq_rebuilds = inc.eq_rebuilds;
    // A class-map merge rebuilds the store log; the log-order delta is then
    // meaningless and the serve layer must treat everything as new.
    result.first_new_index = inc.eq_rebuilds > 0 ? 0 : before;
    result.total_seconds = total.elapsed_seconds();
    return result;
  }

  const rules::DispatchIndex dispatch(compiled.rules);

  // Facts that can never leave the closure: the updated base plus the
  // compile-time ground facts (schema-derived; instance deletions cannot
  // touch their support).  The overdelete walk prunes at them — anything
  // still asserted keeps itself and everything it supports.
  const ProtectedFacts protected_facts{base, delete_set, addition_set,
                                       rdf::TripleSet(compiled.ground_facts)};

  // --- Overdelete pass -----------------------------------------------------
  // BFS over the derivation graph: condemned facts route through the
  // dispatch index to the (rule, pivot) pairs they can feed, the remaining
  // body atoms join against the *old* closure, and every head found in the
  // closure joins the cone.  Condemnation is unconditional; the rederive
  // pass re-proves what still has support.
  util::Stopwatch overdelete_watch;
  rdf::TripleSet condemned;
  std::vector<rdf::Triple> cone;  // BFS queue, deterministic order
  bool equality_undermined = false;
  {
    PAROWL_SPAN("maintain.overdelete", {{"deletions", effective.size()}});
    for (const rdf::Triple& t : effective) {
      condemned.insert(t);
      cone.push_back(t);
    }
    std::size_t frontier_end = cone.size();
    std::size_t processed = 0;
    while (processed < cone.size() && !equality_undermined) {
      if (processed == frontier_end) {
        ++result.overdelete_iterations;
        frontier_end = cone.size();
      }
      const rdf::Triple t = cone[processed++];
      dispatch.for_each_candidate(t, [&](const rules::PivotRef ref) {
        const rules::Rule& rule = compiled.rules[ref.rule];
        rules::Binding binding{};
        if (!rules::bind_atom(rule.body[ref.pivot], t, binding)) {
          return;
        }
        rules::join_body(store, rule.body, 1u << ref.pivot, binding, [&] {
          const rdf::Triple head = rules::ground(rule.head, binding);
          // A sameAs head means the deleted fact supported a merge (rdfp1/2
          // fired through it); the class map would have to shrink, which it
          // cannot.  Checked BEFORE the contains test — rewritten stores
          // hold no sameAs triples, so contains() would hide it.
          if (rewrite && head.p == vocab_.owl_same_as) {
            equality_undermined = true;
            return false;
          }
          // The closure is a fixpoint, so a head joined from closure facts
          // is already present — unless the literal guard dropped it.
          if (store.contains(head) && !protected_facts.contains(head) &&
              condemned.insert(head)) {
            cone.push_back(head);
          }
          return true;  // keep enumerating: all heads of this pivot
        });
      });
    }
    if (result.overdelete_iterations == 0 && !cone.empty()) {
      result.overdelete_iterations = 1;
    }
  }
  if (equality_undermined) {
    // The cone phase only reads the store and the base, so rejecting here
    // leaves the closure, the base, and the class map exactly as they were.
    result.equality_rejected = true;
    return result;
  }
  result.overdeleted = condemned.size();
  result.overdelete_seconds = overdelete_watch.elapsed_seconds();
  PAROWL_COUNT("maintain.overdeleted", result.overdeleted);
  update_base();

  // --- Erase + rederive pass -----------------------------------------------
  // The condemned facts leave the store in place, so survivors keep their
  // log order; then additions, rederivation seeds, and the semi-naive
  // closure of both append at the tail.
  util::Stopwatch rederive_watch;
  {
    PAROWL_SPAN("maintain.rederive", {{"condemned", result.overdeleted}});
    {
      obs::Span span("maintain.erase", {{"condemned", result.overdeleted}});
      const std::size_t cloned_before = store.cow_clone_bytes();
      store.erase_all(cone);  // the cone holds each condemned fact once
      span.arg({"cloned_bytes", store.cow_clone_bytes() - cloned_before});
    }
    result.first_new_index = store.size();

    {
      PAROWL_SPAN("maintain.seed", {{"cone", cone.size()}});
      store.insert_all(additions);
      // Rederivation seeds: a condemned fact with a one-step derivation
      // from the surviving closure re-enters; the semi-naive run below
      // completes the transitive rederivations.
      for (const rdf::Triple& t : cone) {
        if (!store.contains(t) &&
            one_step_derivable(store, compiled.rules, t)) {
          store.insert(t);
          ++result.rederived;
        }
      }
    }

    ForwardOptions fopts;
    fopts.dict = &dict_;
    fopts.threads = options_.threads;
    fopts.obs = options_.obs;
    if (rewrite) {
      fopts.equality_mode = EqualityMode::kRewrite;
      fopts.equality = options_.equality;
      fopts.same_as = vocab_.owl_same_as;
    }
    ForwardStats stats;
    {
      PAROWL_SPAN("maintain.close", {{"from", result.first_new_index}});
      stats = ForwardEngine(store, compiled.rules, fopts)
                  .run(result.first_new_index);
    }
    result.rederive_iterations = stats.iterations;
    result.eq_merges = stats.eq_merges;
    result.eq_rebuilds = stats.eq_rebuilds;
    if (rewrite && stats.eq_rebuilds > 0) {
      // New additions triggered a merge: the rebuilt log has no stable
      // survivor prefix, so the serve layer must treat everything as new.
      result.first_new_index = 0;
    }

    // Net removals: condemned facts that did not make it back.
    for (const rdf::Triple& t : cone) {
      if (!store.contains(t)) {
        result.removed_triples.push_back(t);
      }
    }
    result.removed = result.removed_triples.size();
    result.inferred =
        store.size() - result.first_new_index;  // additions + rederived + new
  }
  result.rederive_seconds = rederive_watch.elapsed_seconds();
  PAROWL_COUNT("maintain.rederived", result.rederived);
  PAROWL_COUNT("maintain.removed", result.removed);
  result.total_seconds = total.elapsed_seconds();
  return result;
}

obs::FieldList fields(const MaintainResult& r) {
  return {
      {"schema_changed", r.schema_changed},
      {"equality_rejected", r.equality_rejected},
      {"base_deleted", r.base_deleted},
      {"base_added", r.base_added},
      {"overdeleted", r.overdeleted},
      {"rederived", r.rederived},
      {"removed", r.removed},
      {"inferred", r.inferred},
      {"overdelete_iterations", r.overdelete_iterations},
      {"rederive_iterations", r.rederive_iterations},
      {"eq_merges", r.eq_merges},
      {"eq_rebuilds", r.eq_rebuilds},
      {"overdelete_seconds", r.overdelete_seconds},
      {"rederive_seconds", r.rederive_seconds},
      {"total_seconds", r.total_seconds},
  };
}

}  // namespace parowl::reason
