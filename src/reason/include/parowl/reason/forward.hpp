#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parowl/obs/options.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/clique.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/rules/match.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::reason {

/// How the closure treats owl:sameAs.
enum class EqualityMode {
  /// Materialize equality through the pD* rules (rdfp6/7/11a/11b): an
  /// n-member clique costs O(n^2) sameAs triples and replicates every
  /// statement across all members.
  kNaive,
  /// Intercept sameAs triples into an EqualityManager, keep the store in
  /// representative space, and expand answers through the class map at
  /// query time (Motik et al., "Handling owl:sameAs via Rewriting").
  kRewrite,
};

/// Options for the forward-chaining engine.
struct ForwardOptions {
  /// Semi-naive (delta-driven) evaluation: each iteration only matches rule
  /// bodies against the triples derived in the previous iteration, and
  /// symmetric-transitive predicates are closed by the union-find clique
  /// operator instead of their generic joins.  The naive alternative
  /// re-derives everything each iteration through the generic joins alone;
  /// kept as the independent oracle and for the ablation bench.
  bool semi_naive = true;

  /// When set, derived triples whose subject is a literal are discarded
  /// (OWL-Horst's literal guard, e.g. rdfs3 binding a range type to a
  /// literal object).
  const rdf::Dictionary* dict = nullptr;

  /// Safety valve for tests; the engine normally runs to fixpoint.
  std::size_t max_iterations = static_cast<std::size_t>(-1);

  /// Worker threads for each iteration's matching pass and round-barrier
  /// insert.  The frontier is sharded into contiguous blocks; derivations
  /// accumulate in per-shard buffers, and at the round barrier the buffers,
  /// taken in shard order, form one batch for TripleStore::insert_all on
  /// the same threads, so the closure — log order and all statistics
  /// included — is bit-identical for every thread count.  0 = hardware
  /// concurrency.
  unsigned threads = 1;

  /// Observability sinks/sampling (docs/architecture.md "Observability"):
  /// every layer's Options embeds this by value; drivers pass it to
  /// obs::configure at entry.
  obs::ObsOptions obs;

  /// Equality rewriting (active when mode is kRewrite AND `equality` is
  /// set AND `same_as` names the owl:sameAs term AND `dict` is set — the
  /// interceptor needs the literal test).  The engine merges intercepted
  /// sameAs triples into `equality`, keeps the store in representative
  /// space (rebuilding it through the dispatch index whenever a merge
  /// remaps existing triples), and freezes the map when the run finishes.
  /// The rule set should be built with include_same_as_propagation = false;
  /// rdfp6/7/11a/11b can never fire on a store that holds no sameAs
  /// triples, and dropping them removes every wildcard-predicate pivot.
  EqualityMode equality_mode = EqualityMode::kNaive;
  EqualityManager* equality = nullptr;
  rdf::TermId same_as = rdf::kAnyTerm;

  /// Internal to the cluster (only parallel::Worker sets it): the caller
  /// closes the symmetric-transitive predicates itself, from forests that
  /// span the cluster, into the pairs its partition must hold.  run() then
  /// runs no clique operator, and run() and match_delta() alike skip those
  /// predicates' symmetric rules and fire their transitive rules only
  /// through a literal middle term.
  bool caller_closes_cliques = false;
};

/// Evaluation statistics.
struct ForwardStats {
  std::size_t iterations = 0;
  std::size_t derived = 0;   // triples newly added to the store
  std::size_t attempts = 0;  // head instantiations (incl. duplicates)
  /// Unique derivations credited per rule; duplicates of the same triple
  /// within one iteration count once (for the first deriving rule in
  /// frontier order), so the per-rule sum always equals `derived`.
  std::vector<std::size_t> firings_per_rule;
  /// Head instantiations per rule; sums to `attempts`.  The clique
  /// operator's candidate pairs count for the predicate's transitive rule.
  std::vector<std::size_t> attempts_per_rule;
  /// Clique-operator output: triples emitted into round batches (before
  /// the barrier's dedup against the other rules' output).
  std::size_t clique_emitted = 0;

  // Equality-rewriting breakdown (all zero in naive mode).
  std::size_t eq_intercepted = 0;  // sameAs triples kept out of the store
  std::size_t eq_merges = 0;       // class unions performed
  std::size_t eq_remapped = 0;     // existing triples rewritten by a merge
  std::size_t eq_rebuilds = 0;     // store rebuilds triggered by merges
  /// Interceptions touching terms the rewrite cannot treat as plain
  /// individuals (rule constants, predicates in use, owl:sameAs itself).
  /// Nonzero means the dataset equates schema-level terms and the rewrite
  /// closure is not guaranteed equivalent to the naive one — re-run naive.
  std::size_t eq_conflicts = 0;
  /// Endpoint-index builds the store performed during this run.  The lazy
  /// subject/object index only serves wildcard-predicate probes (the naive
  /// sameAs family); rewrite-mode runs must keep this at zero.
  std::size_t endpoint_index_builds = 0;
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const ForwardStats& s);

/// Per-rule view of a run for the stats protocol: fields
/// `<rule name>.<rule index>.attempts` and `.firings` for every rule that
/// was attempted (compiled rules share names, so the index disambiguates).
struct RuleReport {
  const ForwardStats& stats;
  const rules::RuleSet& rules;
};

[[nodiscard]] obs::FieldList fields(const RuleReport& r);

/// Bottom-up datalog evaluation over a triple store.
///
/// The engine owns no data: it mutates the store passed to `run`, which is
/// how the parallel workers use it — each worker calls `run` once per
/// communication round with `delta_begin` pointing at the first triple
/// received in that round, so only new information is re-joined
/// (Algorithm 3, step 3).
class ForwardEngine {
 public:
  ForwardEngine(rdf::TripleStore& store, const rules::RuleSet& rules,
                ForwardOptions options = {});

  /// Run to fixpoint.  `delta_begin` is an index into store.triples():
  /// triples at or after it form the initial frontier (0 = everything).
  ForwardStats run(std::size_t delta_begin = 0);

  /// One rule-attributed derivation from a single matching pass.
  struct Derivation {
    rdf::Triple triple;
    std::uint32_t rule = 0;
  };

  /// One matching pass over frontier triples [lo, hi) against the current
  /// store, WITHOUT mutating it: derivations that are new w.r.t. the store
  /// are returned (deduplicated, in frontier order) instead of inserted.
  /// This is the work-stealing entry point — a thief evaluates a shard of
  /// a victim's frontier against the victim's store and ships the results
  /// back, so the pass must leave the victim's store untouched.
  [[nodiscard]] std::vector<Derivation> match_delta(std::size_t lo,
                                                    std::size_t hi);

 private:
  /// Per-thread accumulation state for one iteration's matching pass: the
  /// deduplicated derivations awaiting the round barrier, in emission
  /// order, each tagged with the rule that produced it (for
  /// firings_per_rule at merge time).
  struct Shard {
    std::vector<rdf::Triple> pending;
    std::vector<std::uint32_t> rules;  // rules[i] derived pending[i]
    rdf::TripleSet seen;
    std::vector<std::size_t> attempts;  // per rule
    /// The clique operator closes the symmetric-transitive predicates this
    /// pass: their symmetric rules are skipped, and their transitive rules
    /// fire only where the shared term is a literal.
    bool clique = false;

    void reset(std::size_t num_rules) {
      pending.clear();
      rules.clear();
      seen.reset();  // keeps capacity across iterations
      attempts.assign(num_rules, 0);
    }
  };

  /// Match frontier triples [lo, hi) against their candidate pivots,
  /// accumulating into `shard`.
  void process_range(std::size_t lo, std::size_t hi, Shard& shard);

  /// Match one frontier triple against body atom `pivot` of `rule`; on
  /// success join the remaining atoms against the store and collect the
  /// heads into `shard`.
  void fire_rule(std::size_t rule_index, std::size_t pivot,
                 const rdf::Triple& delta_triple, Shard& shard);

  /// True iff this run rewrites equality (mode, manager, sameAs id, dict).
  [[nodiscard]] bool rewrite_active() const;

  /// Fold one sameAs triple (already in representative space) into the
  /// class map instead of the store.  Returns true iff the map changed —
  /// the signal that existing triples may need remapping.
  bool intercept_same_as(const rdf::Triple& t, ForwardStats& stats);

  /// Rebuild the store through the class map: unchanged survivors from
  /// [0, keep_end) keep their log order as the prefix; remapped survivors
  /// and everything at/after keep_end are reinserted (deduplicated) at the
  /// tail, and sameAs triples are dropped.  Returns the prefix length —
  /// the next frontier begin, so every remapped triple re-derives through
  /// the dispatch index.
  std::size_t rewrite_store(std::size_t keep_end, ForwardStats& stats);

  rdf::TripleStore& store_;
  const rules::RuleSet& rules_;
  ForwardOptions options_;

  /// Routes each frontier triple to the (rule, pivot) pairs it can bind.
  rules::DispatchIndex dispatch_;

  /// Symmetric-transitive predicates and each rule's role for them.
  CliqueAnalysis cliques_;

  /// Constant term ids appearing anywhere in the rule set (rewrite mode
  /// only).  Merging one of these — a folded schema constant, a vocabulary
  /// term — cannot be expressed by individual-level rewriting; such
  /// interceptions bump ForwardStats::eq_conflicts.
  rdf::IdMap<std::uint8_t> rule_constants_;
};

/// Convenience: run `rules` on `store` to fixpoint and return stats.
ForwardStats forward_closure(rdf::TripleStore& store,
                             const rules::RuleSet& rules,
                             ForwardOptions options = {});

}  // namespace parowl::reason
