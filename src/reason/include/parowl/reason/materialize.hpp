#pragma once

#include <cstddef>

#include "parowl/ontology/ontology.hpp"
#include "parowl/reason/backward.hpp"
#include "parowl/reason/forward.hpp"
#include "parowl/rules/compiler.hpp"
#include "parowl/rules/horst_rules.hpp"

namespace parowl::reason {

/// How the knowledge base is materialized.
enum class Strategy {
  /// Bottom-up semi-naive forward chaining — the efficient baseline.
  kForward,
  /// Query-driven: for each resource r, issue the query (r, ?p, ?o) against
  /// the backward engine and assert its answers, sweeping to a fixpoint.
  /// This is how the paper's Jena-based implementation materializes a KB
  /// (§V) and the mechanism behind its super-linear per-partition cost.
  kQueryDriven,
};

struct MaterializeOptions {
  Strategy strategy = Strategy::kForward;
  rules::HorstOptions horst;

  /// Compile the ontology into single-join instance rules first (§II).
  /// When false the generic pD* rules run directly over the data (ablation).
  bool compile = true;

  /// Forward engine evaluation mode (ablation: naive vs semi-naive).
  bool semi_naive = true;

  /// Forward engine matching-pass thread count (see ForwardOptions;
  /// 0 = hardware concurrency).  The closure is identical for every count;
  /// only speed changes.
  unsigned threads = 1;

  /// Observability sinks/sampling, forwarded to the ForwardOptions the
  /// materializer builds.
  obs::ObsOptions obs;

  /// Equality handling (kForward strategy only; the query-driven path
  /// always materializes naively).  Under kRewrite the caller supplies the
  /// EqualityManager that will hold the class map: the materializer drops
  /// the sameAs propagation rules (rdfp6/7/11a/11b), wires the forward
  /// engine's interceptor, and leaves the store in representative space
  /// with `equality` frozen.  Answers must then be expanded through the
  /// class map (expand_closure, or the query layer's expansion).
  EqualityMode equality_mode = EqualityMode::kNaive;
  EqualityManager* equality = nullptr;
};

struct MaterializeResult {
  std::size_t base_triples = 0;      // store size before reasoning
  std::size_t schema_triples = 0;    // of which schema
  std::size_t inferred = 0;          // new triples added (0 if the rewrite
                                     // shrank the store below the base)
  std::size_t iterations = 0;        // forward iterations / backward sweeps
  std::size_t compiled_rules = 0;    // instance rules after compilation
  double reason_seconds = 0.0;       // pure inference wall time
  double compile_seconds = 0.0;      // schema closure + rule compilation

  // Equality-rewriting breakdown (zero under kNaive); see ForwardStats.
  std::size_t eq_merges = 0;
  std::size_t eq_conflicts = 0;
  std::size_t endpoint_index_builds = 0;
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const MaterializeResult& r);

/// Compile the ontology found in `store` and return the instance rule set
/// (schema closure is computed internally).  Exposed separately because the
/// parallel master compiles once and ships the same rule-base to every
/// worker.
[[nodiscard]] rules::CompiledRules compile_ontology(
    const rdf::TripleStore& store, const ontology::Vocabulary& vocab,
    const rules::HorstOptions& horst = {});

/// Statistics of a query-driven closure run.
struct QueryDrivenStats {
  std::size_t sweeps = 0;
  std::size_t added = 0;
};

[[nodiscard]] obs::FieldList fields(const QueryDrivenStats& s);

/// Run the query-driven (Jena-like) materialization loop on `store` with an
/// already-compiled rule set: sweep (r, ?p, ?o) queries over every resource,
/// asserting answers, until a sweep adds nothing (at most 64 sweeps).  Each
/// query gets fresh backward-engine tables, as Jena's independent
/// per-resource queries do.  Exposed so the parallel workers can use the
/// same strategy the paper's implementation does.
QueryDrivenStats query_driven_closure(rdf::TripleStore& store,
                                      const rdf::Dictionary& dict,
                                      const rules::RuleSet& rules);

/// Incremental query-driven closure: only re-query the resources affected
/// by the triples at/after `delta_begin` in the store log (their endpoints
/// plus the store-adjacent resources), expanding the affected set as sweeps
/// derive more.  Each sweep still pays the full per-query proof-space cost —
/// this models a Jena-like engine re-querying after new tuples arrive in a
/// communication round, without re-materializing untouched resources.
///
/// Completeness requires every rule to have <= 2 body atoms with the head
/// subject range-restricted (true for all rule sets `compile_ontology`
/// emits): the subject of any new derivation is then an endpoint of, or
/// store-adjacent to, a new premise.  For rule sets with longer bodies the
/// function falls back to full sweeps.
QueryDrivenStats query_driven_closure_delta(rdf::TripleStore& store,
                                            const rdf::Dictionary& dict,
                                            const rules::RuleSet& rules,
                                            std::size_t delta_begin);

/// Materialize `store` in place: compute all OWL-Horst consequences of its
/// schema + instance triples and add them.  Returns statistics.
MaterializeResult materialize(rdf::TripleStore& store,
                              const rdf::Dictionary& dict,
                              const ontology::Vocabulary& vocab,
                              const MaterializeOptions& options = {});

/// Incremental maintenance: add `additions` to an already-materialized
/// store and close only over the delta (semi-naive from the new triples).
/// This is the operation the paper's setting — materialized KBs where "the
/// frequency of data being added is much smaller than that of queries" —
/// performs between full materializations.
///
/// `additions` must be instance triples (schema changes require a full
/// re-materialization: the compiled rule-base itself would change; such
/// additions are rejected with inferred == 0 and schema_changed == true).
struct IncrementalResult {
  std::size_t added = 0;     // new base triples actually inserted
  std::size_t inferred = 0;  // new derivations
  std::size_t iterations = 0;
  bool schema_changed = false;  // rejected: contains schema triples
  double reason_seconds = 0.0;

  // Rewrite mode only: class unions this batch performed, and store
  // rebuilds they triggered.  A nonzero rebuild count means the store log
  // was reordered — callers tracking a log-order delta (the serve layer's
  // snapshots) must fall back to treating the whole store as new.
  std::size_t eq_merges = 0;
  std::size_t eq_rebuilds = 0;
};

[[nodiscard]] obs::FieldList fields(const IncrementalResult& r);
/// `threads` is the forward engine's matching-pass thread count (0 =
/// hardware concurrency); the result is identical for every value.
///
/// When the store was materialized under equality rewriting, pass the same
/// mode plus the (mutable) EqualityManager holding its class map: new
/// sameAs assertions merge into the map, the delta closes in
/// representative space, and the map is re-frozen.
IncrementalResult materialize_incremental(
    rdf::TripleStore& store, const rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab,
    std::span<const rdf::Triple> additions,
    const rules::HorstOptions& horst = {}, unsigned threads = 1,
    EqualityMode equality_mode = EqualityMode::kNaive,
    EqualityManager* equality = nullptr);

/// materialize_incremental over an already-compiled rule base — the
/// compile_ontology output for the store's schema, with the sameAs
/// propagation rules dropped under kRewrite.  A long-lived writer
/// (serve::Updater) compiles once and skips the per-batch schema scan.
IncrementalResult materialize_incremental(
    rdf::TripleStore& store, const rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab, const rules::RuleSet& rules,
    std::span<const rdf::Triple> additions, unsigned threads = 1,
    EqualityMode equality_mode = EqualityMode::kNaive,
    EqualityManager* equality = nullptr);

}  // namespace parowl::reason
