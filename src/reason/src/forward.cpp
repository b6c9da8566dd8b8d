#include "parowl/reason/forward.hpp"

#include "parowl/obs/obs.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "clique_closure.hpp"
#include "parowl/util/thread_team.hpp"

namespace parowl::reason {

ForwardEngine::ForwardEngine(rdf::TripleStore& store,
                             const rules::RuleSet& rules,
                             ForwardOptions options)
    : store_(store),
      rules_(rules),
      options_(options),
      dispatch_(rules),
      cliques_(analyze_cliques(rules)) {
  // Rewrite mode: collect every constant term the rule set mentions.  An
  // equality class touching one of these is a schema-level merge the
  // individual-oriented rewrite cannot express (see eq_conflicts).
  if (rewrite_active()) {
    const auto note_const = [this](const rules::AtomTerm& t) {
      if (t.is_const()) {
        rule_constants_[t.const_id()] = 1;
      }
    };
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      for (const rules::Atom& atom : rules_[r].body) {
        note_const(atom.s);
        note_const(atom.p);
        note_const(atom.o);
      }
      note_const(rules_[r].head.s);
      note_const(rules_[r].head.p);
      note_const(rules_[r].head.o);
    }
  }
}

bool ForwardEngine::rewrite_active() const {
  return options_.equality_mode == EqualityMode::kRewrite &&
         options_.equality != nullptr && options_.dict != nullptr &&
         options_.same_as != rdf::kAnyTerm;
}

bool ForwardEngine::intercept_same_as(const rdf::Triple& t,
                                      ForwardStats& stats) {
  EqualityManager& eq = *options_.equality;
  const auto is_literal = [this](rdf::TermId id) {
    return options_.dict->kind(id) == rdf::TermKind::kLiteral;
  };
  const auto conflict = [this, &stats](rdf::TermId id) {
    // Schema-level equality the rewrite cannot fold: the term is a rule
    // constant (folded schema term, vocabulary id) or already serves as a
    // predicate in the store.
    if (rule_constants_.find(id) != nullptr ||
        !store_.with_predicate(id).empty()) {
      ++stats.eq_conflicts;
    }
  };
  ++stats.eq_intercepted;
  bool changed = false;
  if (is_literal(t.s)) {
    // Asserted literal-subject edge (derivations never pass the literal
    // guard).  The naive closure keeps the assertion and derives its
    // mirror (rdfp6) plus the resource's reflexive pair (rdfp7).
    changed = eq.keep_raw(t);
    if (changed && !is_literal(t.o)) {
      eq.attach_literal(t.o, t.s);
      eq.note_self(t.o);
      conflict(t.o);
    }
  } else if (is_literal(t.o)) {
    changed = eq.attach_literal(t.s, t.o);
    if (changed) {
      conflict(t.s);
    }
  } else if (t.s == t.o) {
    changed = eq.note_self(t.s);
  } else {
    changed = eq.merge(t.s, t.o);
    if (changed) {
      ++stats.eq_merges;
      conflict(t.s);
      conflict(t.o);
    }
  }
  return changed;
}

std::size_t ForwardEngine::rewrite_store(std::size_t keep_end,
                                         ForwardStats& stats) {
  obs::Span span("reason.eq.rewrite", {{"keep_end", keep_end}});
  const EqualityManager& eq = *options_.equality;
  // The log is copied out because the store is cleared before reinsertion.
  const std::vector<rdf::Triple> log = store_.triples();
  std::vector<rdf::Triple> prefix;
  std::vector<rdf::Triple> tail;
  prefix.reserve(keep_end);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const rdf::Triple& t = log[i];
    if (t.p == options_.same_as) {
      continue;  // interception already folded it into the class map
    }
    const rdf::Triple r = eq.rewrite(t);
    if (i < keep_end && r == t) {
      prefix.push_back(t);
    } else {
      if (r != t) {
        ++stats.eq_remapped;
      }
      tail.push_back(r);
    }
  }
  store_.clear();
  for (const rdf::Triple& t : prefix) {
    store_.insert(t);
  }
  const std::size_t frontier = store_.size();
  for (const rdf::Triple& t : tail) {
    store_.insert(t);
  }
  ++stats.eq_rebuilds;
  span.arg({"remapped", tail.size()});
  return frontier;
}

void ForwardEngine::fire_rule(std::size_t rule_index, std::size_t pivot,
                              const rdf::Triple& delta_triple, Shard& shard) {
  const rules::Rule& rule = rules_[rule_index];
  const CliqueRole role =
      shard.clique ? cliques_.roles[rule_index] : CliqueRole::kNone;
  if (role == CliqueRole::kSymmetric) {
    return;  // the clique operator closes this predicate
  }
  rules::Binding binding{};
  if (!rules::bind_atom(rule.body[pivot], delta_triple, binding)) {
    return;
  }
  if (role == CliqueRole::kTransitive) {
    // Only a literal shared term escapes the operator's components.
    const rdf::TermId mid = binding[static_cast<std::size_t>(
        cliques_.middle_var[rule_index])];
    if (options_.dict == nullptr ||
        options_.dict->kind(mid) != rdf::TermKind::kLiteral) {
      return;
    }
  }
  rules::join_body(store_, rule.body, 1u << pivot, binding, [&] {
    const rdf::Triple derived = rules::ground(rule.head, binding);
    ++shard.attempts[rule_index];
    if (options_.dict != nullptr &&
        options_.dict->kind(derived.s) == rdf::TermKind::kLiteral) {
      return true;  // literal guard: no statements about literals
    }
    if (!store_.contains(derived) && shard.seen.insert(derived)) {
      shard.pending.push_back(derived);
      shard.rules.push_back(static_cast<std::uint32_t>(rule_index));
    }
    return true;
  });
}

void ForwardEngine::process_range(std::size_t lo, std::size_t hi,
                                  Shard& shard) {
  // The store log only grows during a run and is never resized during the
  // matching pass (derivations go to `shard.pending`; inserts happen at the
  // round barrier), so indexing it directly is safe — also from worker
  // threads.
  const std::vector<rdf::Triple>& log = store_.triples();
  for (std::size_t i = lo; i < hi; ++i) {
    const rdf::Triple& t = log[i];
    dispatch_.for_each_candidate(t, [&](const rules::PivotRef ref) {
      fire_rule(ref.rule, ref.pivot, t, shard);
    });
  }
}

std::vector<ForwardEngine::Derivation> ForwardEngine::match_delta(
    std::size_t lo, std::size_t hi) {
  // One matching pass, no insertion, no iteration to fixpoint: exactly the
  // body of a single round restricted to [lo, hi), with the results
  // returned instead of merged into the store.  The join only reads the
  // store (contains + match), so the victim's log stays untouched.
  Shard shard;
  shard.reset(rules_.size());
  shard.clique = options_.caller_closes_cliques;
  process_range(lo, hi, shard);
  std::vector<Derivation> out;
  out.reserve(shard.pending.size());
  for (std::size_t i = 0; i < shard.pending.size(); ++i) {
    out.push_back(Derivation{shard.pending[i], shard.rules[i]});
  }
  return out;
}

ForwardStats ForwardEngine::run(std::size_t delta_begin) {
  obs::configure(options_.obs);
  ForwardStats stats;
  stats.firings_per_rule.assign(rules_.size(), 0);
  stats.attempts_per_rule.assign(rules_.size(), 0);
  const std::size_t endpoint_builds_before = store_.endpoint_index_builds();

  std::size_t frontier_begin = options_.semi_naive ? delta_begin : 0;

  const bool rewrite = rewrite_active();
  if (rewrite) {
    // Pre-pass: fold asserted sameAs triples in the frontier into the
    // class map, then canonicalize the store if anything needs it.  The
    // prefix before `frontier_begin` is already representative space by
    // the incremental contract (it was produced by a rewrite run).
    EqualityManager& eq = *options_.equality;
    bool needs_rebuild = false;
    const std::vector<rdf::Triple>& log = store_.triples();
    for (std::size_t i = frontier_begin; i < log.size(); ++i) {
      const rdf::Triple& t = log[i];
      if (t.p == options_.same_as) {
        intercept_same_as(t, stats);
        needs_rebuild = true;
      } else if (eq.rewrite(t) != t) {
        needs_rebuild = true;
      }
      if (t.s == options_.same_as || t.o == options_.same_as) {
        ++stats.eq_conflicts;  // schema statements about sameAs itself
      }
    }
    if (needs_rebuild) {
      frontier_begin = rewrite_store(frontier_begin, stats);
    }
    if (!options_.semi_naive) {
      frontier_begin = 0;
    }
  }

  // The clique operator serves semi-naive runs only: naive evaluation keeps
  // the generic joins as the independent oracle.  Its forests start from
  // the whole store; a component the first frontier does not touch is
  // already a clique, because every rule instance over the prefix has its
  // head in the prefix or in the frontier (true of run(0), of worker
  // rounds, and of DRed rederivation).  A caller that closes the clique
  // predicates itself has the same joins skipped and no operator run.
  const bool clique = options_.semi_naive && !cliques_.predicates.empty() &&
                      !options_.caller_closes_cliques;
  std::optional<CliqueClosure> closure;
  if (clique) {
    closure.emplace(cliques_.predicates, options_.dict);
    closure->rebuild(store_);
  }

  unsigned threads = options_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }

  // One shard per thread, plus a last one for the clique operator's output:
  // the round batch is the thread shards in order, then the operator's.
  std::vector<Shard> shards(threads + (clique ? 1 : 0));
  for (std::size_t i = 0; i < threads; ++i) {
    shards[i].clique = clique || options_.caller_closes_cliques;
  }
  // Round-barrier team: the matching pass and the barrier insert both run
  // on it; the calling thread is member 0.
  util::ThreadTeam team(threads);
  // The round's derivations in shard order, when there is more than one
  // shard (one shard's buffer is inserted in place).
  std::vector<rdf::Triple> batch;
  // Rewrite mode only: cross-shard dedup ahead of interception, which must
  // see each derivation once for the eq_* statistics to match one thread.
  rdf::TripleSet rewrite_seen;

  // Per-iteration work descriptor, read by every member during the
  // matching pass.
  std::size_t work_begin = 0;
  std::size_t work_end = 0;

  const auto shard_bounds = [&](unsigned shard_index) {
    // Contiguous blocks in frontier order: concatenating shard buffers in
    // index order reproduces the exact single-threaded emission sequence.
    const std::size_t n = work_end - work_begin;
    const std::size_t base = n / threads;
    const std::size_t rem = n % threads;
    const std::size_t lo = work_begin + base * shard_index +
                           std::min<std::size_t>(shard_index, rem);
    return std::pair<std::size_t, std::size_t>(
        lo, lo + base + (shard_index < rem ? 1 : 0));
  };
  const auto run_shard = [&](unsigned shard_index) {
    const auto [lo, hi] = shard_bounds(shard_index);
    process_range(lo, hi, shards[shard_index]);
  };

  while (stats.iterations < options_.max_iterations) {
    const std::size_t frontier_end = store_.size();
    if (frontier_begin >= frontier_end) {
      break;
    }
    ++stats.iterations;
    obs::Span round_span("reason.round",
                         {{"round", stats.iterations},
                          {"frontier", frontier_end - frontier_begin}});

    for (Shard& shard : shards) {
      shard.reset(rules_.size());
    }
    work_begin = frontier_begin;
    work_end = frontier_end;
    {
      PAROWL_SPAN("reason.round.match", {});
      team.run(run_shard);
    }
    if (clique) {
      // Serial and in frontier order, so the batch — and with it the log —
      // is the same for every thread count.
      obs::Span clique_span("reason.round.clique", {});
      Shard& out = shards.back();
      const std::size_t components = closure->close_round(
          store_, frontier_begin, out.pending, out.rules, out.attempts);
      stats.clique_emitted += out.pending.size();
      clique_span.arg({"components", components});
      clique_span.arg({"emitted", out.pending.size()});
      PAROWL_COUNT("reason.clique.emitted", out.pending.size());
    }

    // Merge at the barrier: concatenated shard buffers replay the
    // single-threaded emission order, so first occurrence wins both the
    // dedup and the per-rule firing credit — statistics and log order are
    // identical for every thread count.
    obs::Span merge_span("reason.round.merge", {});
    std::size_t added = 0;
    bool eq_changed = false;
    const std::size_t attempts_before = stats.attempts;
    for (const Shard& shard : shards) {
      for (std::size_t r = 0; r < shard.attempts.size(); ++r) {
        stats.attempts_per_rule[r] += shard.attempts[r];
        stats.attempts += shard.attempts[r];
      }
    }
    if (rewrite) {
      // Every pending triple passes through the class map first: sameAs
      // heads fold into it, everything else is inserted canonically (the
      // rewrite can collapse distinct pendings, so credit follows the
      // actual insert to keep the per-rule sum equal to `derived`).
      rewrite_seen.reset();
      for (const Shard& shard : shards) {
        for (std::size_t i = 0; i < shard.pending.size(); ++i) {
          if (shards.size() > 1 && !rewrite_seen.insert(shard.pending[i])) {
            continue;
          }
          const rdf::Triple t = options_.equality->rewrite(shard.pending[i]);
          if (t.p == options_.same_as) {
            eq_changed = intercept_same_as(t, stats) || eq_changed;
            continue;
          }
          if (options_.equality->tracked(t.p) ||
              t.s == options_.same_as || t.o == options_.same_as) {
            ++stats.eq_conflicts;
          }
          if (store_.insert(t)) {
            ++added;
            ++stats.firings_per_rule[shard.rules[i]];
          }
        }
      }
    } else {
      std::span<const rdf::Triple> derived(shards[0].pending);
      if (shards.size() > 1) {
        std::vector<std::size_t> offset(shards.size() + 1, 0);
        for (std::size_t i = 0; i < shards.size(); ++i) {
          offset[i + 1] = offset[i] + shards[i].pending.size();
        }
        batch.resize(offset.back());
        team.run([&](unsigned m) {
          for (std::size_t i = m; i < shards.size(); i += threads) {
            std::copy(shards[i].pending.begin(), shards[i].pending.end(),
                      batch.begin() + static_cast<std::ptrdiff_t>(offset[i]));
          }
        });
        derived = batch;
      }
      const std::size_t before = store_.size();
      added = store_.insert_all(derived, team);
      // The new log is the batch's first occurrences in batch order: one
      // walk credits each new triple to the rule that derived it first.
      const std::span<const rdf::Triple> log(store_.triples());
      std::size_t j = before;
      for (const Shard& shard : shards) {
        for (std::size_t i = 0; i < shard.pending.size() && j < log.size();
             ++i) {
          if (shard.pending[i] == log[j]) {
            ++stats.firings_per_rule[shard.rules[i]];
            ++j;
          }
        }
      }
    }
    merge_span.close();
    stats.derived += added;
    round_span.arg({"derived", added});
    PAROWL_COUNT("reason.iterations", 1);
    PAROWL_COUNT("reason.derived", added);
    PAROWL_COUNT("reason.rule_attempts", stats.attempts - attempts_before);
    if (rewrite && eq_changed) {
      // A merge may remap triples inserted in earlier rounds: rebuild the
      // store in representative space and make every remapped triple (plus
      // this round's inserts) the next frontier, so they re-derive through
      // the dispatch index against the canonical store.
      frontier_begin = rewrite_store(frontier_end, stats);
      if (!options_.semi_naive) {
        frontier_begin = 0;
      }
      if (clique) {
        closure->rebuild(store_);
      }
      continue;
    }
    if (added == 0) {
      break;
    }
    // Next frontier: exactly the triples inserted this iteration (or the
    // whole store again under naive evaluation).
    frontier_begin = options_.semi_naive ? frontier_end : 0;
  }
  if (rewrite) {
    options_.equality->freeze();
    PAROWL_COUNT("reason.eq.intercepted", stats.eq_intercepted);
    PAROWL_COUNT("reason.eq.merges", stats.eq_merges);
    PAROWL_COUNT("reason.eq.remapped", stats.eq_remapped);
    PAROWL_COUNT("reason.eq.rebuilds", stats.eq_rebuilds);
    PAROWL_COUNT("reason.eq.conflicts", stats.eq_conflicts);
  }
  stats.endpoint_index_builds =
      store_.endpoint_index_builds() - endpoint_builds_before;
  return stats;
}

ForwardStats forward_closure(rdf::TripleStore& store,
                             const rules::RuleSet& rules,
                             ForwardOptions options) {
  return ForwardEngine(store, rules, options).run(0);
}

obs::FieldList fields(const ForwardStats& s) {
  return {
      {"iterations", s.iterations},
      {"derived", s.derived},
      {"attempts", s.attempts},
      {"rules_fired", s.firings_per_rule.size()},
      {"clique_emitted", s.clique_emitted},
      {"eq_intercepted", s.eq_intercepted},
      {"eq_merges", s.eq_merges},
      {"eq_remapped", s.eq_remapped},
      {"eq_rebuilds", s.eq_rebuilds},
      {"eq_conflicts", s.eq_conflicts},
      {"endpoint_index_builds", s.endpoint_index_builds},
  };
}

obs::FieldList fields(const RuleReport& r) {
  obs::FieldList out;
  for (std::size_t i = 0; i < r.stats.attempts_per_rule.size(); ++i) {
    if (r.stats.attempts_per_rule[i] == 0) {
      continue;
    }
    const std::string name = r.rules[i].name + "." + std::to_string(i);
    out.emplace_back(name + ".attempts", r.stats.attempts_per_rule[i]);
    out.emplace_back(name + ".firings", r.stats.firings_per_rule[i]);
  }
  return out;
}

}  // namespace parowl::reason
