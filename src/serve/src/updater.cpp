#include "parowl/serve/updater.hpp"

#include <algorithm>
#include <memory>

#include "parowl/obs/obs.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::serve {
namespace {

void sort_unique(std::vector<rdf::TermId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

Updater::Updater(SnapshotRegistry& registry, ResultCache* cache,
                 const rdf::Dictionary& dict,
                 const ontology::Vocabulary& vocab)
    : registry_(registry), cache_(cache), dict_(dict), vocab_(vocab) {}

UpdateOutcome Updater::apply(std::span<const rdf::Triple> additions,
                             std::span<const rdf::Triple> deletions) {
  const std::scoped_lock lock(write_mutex_);
  UpdateOutcome outcome;
  util::Stopwatch total;

  const SnapshotPtr old_snap = registry_.current();

  // A null base means every closure triple counts as asserted (see
  // KbSnapshot::base).  A deletion batch then needs that base as a set; a
  // pure-addition batch only asks about its own additions, so a scratch
  // base holding the ones already in the closure answers the same, and the
  // null convention carries over to the next version.
  const bool tracked = old_snap->base != nullptr || !deletions.empty();
  auto next = std::make_shared<KbSnapshot>();
  auto base = std::make_shared<rdf::TripleSet>();
  {
    obs::Span span("serve.update.copy");
    util::Stopwatch copy_watch;
    // Shares every segment of the store and copies its log; the batch
    // clones only the segments it writes (TripleStore), so readers keep
    // theirs untouched.
    next->store = old_snap->store;
    if (old_snap->base != nullptr) {
      *base = *old_snap->base;
    } else if (tracked) {
      *base = rdf::TripleSet(old_snap->store.triples());
    } else {
      for (const rdf::Triple& t : additions) {
        if (next->store.contains(t)) {
          base->insert(t);
        }
      }
    }
    outcome.copy_seconds = copy_watch.elapsed_seconds();
    span.arg({"log_bytes", next->store.size() * sizeof(rdf::Triple)});
    span.arg({"shared_segments", next->store.predicates().size()});
  }
  const std::size_t old_size = next->store.size();
  next->version = old_snap->version + 1;

  reason::MaintainOptions mopts;
  // Rewrite mode: hand the maintainer a private clone of the class map
  // (RCU) so readers expanding through the old snapshot never race.  It
  // only ever *grows* the clone — batches that would shrink a class come
  // back equality_rejected and the clone is discarded.
  std::shared_ptr<reason::EqualityManager> eq_next;
  if (old_snap->equality != nullptr) {
    eq_next = std::make_shared<reason::EqualityManager>(*old_snap->equality);
    mopts.equality_mode = reason::EqualityMode::kRewrite;
    mopts.equality = eq_next.get();
  }
  // The rule base depends only on the closure's schema triples.  A batch
  // that asserts or retracts one is rejected, so the rule base is compiled
  // once and kept until a batch's closure delta derives or removes one
  // (naive equality can: `a owl:sameAs ub:Course` copies Course's axioms).
  if (!compiled_) {
    compiled_ = reason::Maintainer(dict_, vocab_, mopts).compile(next->store);
    outcome.compiled_rules = true;
  }
  mopts.compiled = &*compiled_;
  const reason::Maintainer maintainer(dict_, vocab_, mopts);
  outcome.maintain =
      maintainer.apply(next->store, *base, additions, deletions);
  outcome.cloned_bytes = next->store.cow_clone_bytes();
  const reason::MaintainResult& m = outcome.maintain;

  outcome.result.schema_changed = m.schema_changed;
  outcome.result.added = m.base_added;
  outcome.result.inferred = m.inferred;
  outcome.result.iterations = m.rederive_iterations;
  outcome.result.reason_seconds = m.rederive_seconds;
  outcome.result.eq_merges = m.eq_merges;
  outcome.result.eq_rebuilds = m.eq_rebuilds;

  // Publish only what a reader or a later batch could tell apart: a
  // changed closure or class map (a merge can change the fixpoint without
  // growing the store — the new sameAs fact is intercepted and existing
  // triples are remapped), or a changed recorded base.
  const bool changed = next->store.size() != old_size || m.removed > 0 ||
                       m.eq_merges > 0 || m.base_deleted > 0 ||
                       (tracked && m.base_added > 0);
  if (m.schema_changed || m.equality_rejected || !changed) {
    // The fixpoint is unchanged: keep the current snapshot and every cache
    // entry as is.
    outcome.total_seconds = total.elapsed_seconds();
    return outcome;
  }

  // first_new_index is 0 when a merge rebuilt the store log, so the
  // footprint below then spans every stored predicate, which is exactly
  // what makes cached pre-merge answers unreachable.
  next->delta_begin = m.first_new_index;
  next->equality = std::move(eq_next);
  if (tracked) {
    next->base = std::move(base);
  }

  // Footprint of the delta: the new triples' predicates AND the removed
  // triples' predicates — a cached answer that contained a deleted (or
  // overdeleted-then-not-rederived) triple must be retired too.
  const auto& log = next->store.triples();
  for (std::size_t i = next->delta_begin; i < log.size(); ++i) {
    outcome.delta_predicates.push_back(log[i].p);
  }
  for (const rdf::Triple& t : m.removed_triples) {
    outcome.delta_predicates.push_back(t.p);
  }
  sort_unique(outcome.delta_predicates);
  const auto schema_triple = [this](const rdf::Triple& t) {
    return vocab_.is_schema_triple(t);
  };
  if (std::any_of(log.begin() + static_cast<std::ptrdiff_t>(next->delta_begin),
                  log.end(), schema_triple) ||
      std::any_of(m.removed_triples.begin(), m.removed_triples.end(),
                  schema_triple)) {
    compiled_.reset();
  }

  // Invalidate before publishing: after the swap no reader can find a
  // cached answer the delta made stale.
  if (cache_ != nullptr) {
    outcome.invalidated =
        cache_->on_update(outcome.delta_predicates, next->version);
  }
  outcome.version = next->version;
  registry_.publish(std::move(next));
  ++batches_;
  outcome.total_seconds = total.elapsed_seconds();
  return outcome;
}

std::uint64_t Updater::batches_applied() const {
  const std::scoped_lock lock(write_mutex_);
  return batches_;
}

}  // namespace parowl::serve
