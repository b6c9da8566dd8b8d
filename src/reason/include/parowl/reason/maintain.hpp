#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "parowl/obs/options.hpp"
#include "parowl/obs/report.hpp"
#include "parowl/ontology/ontology.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/forward.hpp"
#include "parowl/rules/compiler.hpp"
#include "parowl/rules/horst_rules.hpp"

namespace parowl::reason {

/// Unread; kept so callers setting ServiceOptions::maintain_strategy build.
enum class MaintainStrategy { kDRed };

struct MaintainOptions {
  rules::HorstOptions horst;

  /// Matching-pass thread count for the rederivation closure (0 = hardware
  /// concurrency).  The maintained store is bit-identical for every value:
  /// the overdelete walk is deterministic and single-threaded, and the
  /// forward engine's sharded merge is order-preserving.
  unsigned threads = 1;

  /// Observability sinks/sampling (docs/architecture.md "Observability").
  obs::ObsOptions obs;

  /// Equality handling of the store being maintained.  Under kRewrite the
  /// caller supplies the EqualityManager holding the closure's class map;
  /// the maintainer then refuses batches that would invalidate the map (see
  /// MaintainResult::equality_rejected) and closes additions in
  /// representative space.
  EqualityMode equality_mode = EqualityMode::kNaive;
  EqualityManager* equality = nullptr;

  /// The rule base of the maintained store's schema, from
  /// Maintainer::compile under the same options.  A long-lived writer
  /// compiles once and passes it to every batch until a batch's closure
  /// delta gains or loses a schema triple (serve::Updater).  Null compiles
  /// it per batch.
  const rules::CompiledRules* compiled = nullptr;
};

/// What one mixed add/delete batch did to the closure.
struct MaintainResult {
  bool schema_changed = false;  // rejected: batch touches schema triples

  /// Rejected (whole batch, store untouched): under equality rewriting the
  /// class map is monotone — merges cannot be unwound incrementally, since
  /// every rewritten triple in the store has lost the information of which
  /// member it was originally stated about.  A batch is refused when it
  /// (a) deletes an owl:sameAs triple, (b) deletes or mixes additions of
  /// sameAs with deletions, (c) deletes a triple whose endpoint belongs to
  /// an equality class (the raw-space fact cannot be located in the
  /// rewritten store), or (d) its overdelete cone reaches an owl:sameAs
  /// derivation (the deletion undermines a merge).  Callers re-materialize
  /// from scratch instead.
  bool equality_rejected = false;

  std::size_t base_deleted = 0;  // asserted triples actually retracted
  std::size_t base_added = 0;    // asserted triples actually added

  /// Facts condemned by the overdelete cone (including the deletions
  /// themselves).
  std::size_t overdeleted = 0;
  /// Overdeleted facts reinstated by the rederivation pass (one-step seeds).
  std::size_t rederived = 0;
  /// Net facts that left the closure (overdeleted and not rederived).
  std::size_t removed = 0;
  /// Net new derivations from the additions + rederivation closure.
  std::size_t inferred = 0;

  std::size_t overdelete_iterations = 0;  // overdelete BFS frontier rounds
  std::size_t rederive_iterations = 0;    // forward-engine iterations

  /// Rewrite mode only: class unions this batch performed and the store
  /// rebuilds they triggered (see IncrementalResult).
  std::size_t eq_merges = 0;
  std::size_t eq_rebuilds = 0;

  double overdelete_seconds = 0.0;
  double rederive_seconds = 0.0;
  double total_seconds = 0.0;

  /// Index into the maintained store's log where this batch's new triples
  /// (additions + rederivations + fresh derivations) begin — the serve
  /// layer's snapshot delta.  Everything before it survived in log order.
  std::size_t first_new_index = 0;

  /// The triples that actually left the closure, in deterministic order —
  /// the serve layer retires cache entries whose answers contained any of
  /// them (footprint invalidation must cover deletions, not just additions).
  std::vector<rdf::Triple> removed_triples;
};

/// Stats protocol (obs/report.hpp): obs::to_json / obs::print / obs::publish.
[[nodiscard]] obs::FieldList fields(const MaintainResult& r);

/// Incremental maintenance of a materialized OWL-Horst closure under mixed
/// add/delete batches (ROADMAP item 2; Ajileye/Motik/Horrocks give the
/// distributed recipe this is the single-store core of).  Deletions run
/// delete-and-rederive (DRed): overdelete everything transitively derivable
/// from the deleted facts, then re-prove survivors (one-step rederivation
/// seeds + semi-naive closure).
///
/// The maintainer owns no data: `apply` edits the store and the asserted
/// base handed to it in place, so a batch costs its overdeletion cone and
/// the posting lists the cone touches, not a pass over the whole closure
/// or base.  The contract is the oracle equality the test suite
/// pins: after `apply`, the store holds exactly the triples a from-scratch
/// `materialize` of the updated base would produce (log order differs —
/// survivors keep their original positions — so equality is on the sorted
/// triple sequence).
class Maintainer {
 public:
  /// `dict` is used for the literal guard during rederivation; `vocab`
  /// classifies schema triples.  Both must outlive the maintainer.
  Maintainer(const rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
             MaintainOptions options = {});

  /// The rule base `apply` closes under for `store`'s schema: the ontology
  /// compiled with these options' Horst settings, minus the sameAs
  /// propagation rules under equality rewriting.  Recorded as a
  /// maintain.compile span.
  [[nodiscard]] rules::CompiledRules compile(
      const rdf::TripleStore& store) const;

  /// Apply one mixed batch to `store` (a materialized closure) whose
  /// asserted triples are `base` (schema + instance).
  ///
  /// Semantics are batch-atomic: the updated base is (base \ deletions)
  /// + additions, so a triple deleted and re-added in the same batch stays.
  /// Deletions of never-present triples are no-ops.  Schema triples in
  /// either direction reject the whole batch (schema_changed) untouched —
  /// a schema change invalidates the compiled rule-base and needs a full
  /// re-materialization.
  ///
  /// On success `store` holds the maintained closure: the condemned facts
  /// are erased in place (TripleStore::erase_all), so survivors keep their
  /// log order, then additions, rederivations, and new derivations append
  /// (see MaintainResult::first_new_index); `base` loses the effective
  /// deletions and gains the additions.  A rejected batch leaves both as
  /// they were.
  MaintainResult apply(rdf::TripleStore& store, rdf::TripleSet& base,
                       std::span<const rdf::Triple> additions,
                       std::span<const rdf::Triple> deletions) const;

 private:
  const rdf::Dictionary& dict_;
  const ontology::Vocabulary& vocab_;
  MaintainOptions options_;
};

}  // namespace parowl::reason
