#include "parowl/serve/service.hpp"

#include <optional>
#include <ostream>

#include "parowl/obs/obs.hpp"
#include "parowl/query/bgp.hpp"
#include "parowl/query/equality_expand.hpp"
#include "parowl/rdf/snapshot.hpp"

namespace parowl::serve {

/// A request's pinned snapshot: a miss evaluates on it.
class QueryService::SnapshotPin final : public Pin {
 public:
  SnapshotPin(SnapshotPtr snap, rdf::TermId same_as)
      : snap_(std::move(snap)), same_as_(same_as) {
    version = snap_->version;
  }

  bool answer(const query::SelectQuery& query, Response& response,
              obs::Span* request_span) override {
    // Evaluation is lock-free: the snapshot is immutable and BGP matching
    // touches only TermIds.  Under equality rewriting the snapshot's store
    // holds representative-space triples, so answers are expanded through
    // the frozen class map before leaving the service (and before caching
    // — a hit must be byte-identical to a miss).
    std::optional<obs::Span> eval_span;
    if (request_span != nullptr) {
      eval_span.emplace("serve.eval");
    }
    if (snap_->equality != nullptr) {
      query::EqualityEvalResult eval = query::evaluate_with_equality(
          snap_->store, query, *snap_->equality, same_as_);
      if (eval.unsupported) {
        response.status = RequestStatus::kUnsupported;
        response.error = std::move(eval.message);
        return false;
      }
      response.results = std::move(eval.results);
    } else {
      response.results = query::evaluate(snap_->store, query);
    }
    if (eval_span) {
      eval_span->arg({"rows", response.results.size()});
    }
    // A stale insert after a concurrent update is caught by the cache's
    // version floor.
    return true;
  }

 private:
  SnapshotPtr snap_;
  rdf::TermId same_as_;
};

QueryService::QueryService(
    rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
    rdf::TripleStore store, ServiceOptions options,
    std::span<const rdf::Triple> base,
    std::shared_ptr<const reason::EqualityManager> equality)
    : Frontend("serve", dict, options),
      same_as_(vocab.owl_same_as),
      registry_(make_initial_snapshot(std::move(store), base,
                                      std::move(equality))),
      updater_(registry_, &cache(), dict, vocab) {}

QueryService::~QueryService() { stop(); }

std::unique_ptr<Frontend::Pin> QueryService::pin() {
  return std::make_unique<SnapshotPin>(registry_.current(), same_as_);
}

std::uint64_t QueryService::version() const { return registry_.version(); }

UpdateOutcome QueryService::apply_update(
    std::span<const rdf::Triple> additions,
    std::span<const rdf::Triple> deletions) {
  obs::Span span("serve.update", {{"additions", additions.size()},
                                  {"deletions", deletions.size()}});
  // Shared lock: maintenance reads term kinds (literal guard) concurrently
  // with result rendering, but must exclude parser interning.
  UpdateOutcome outcome = with_dict_shared([&](const rdf::Dictionary&) {
    return updater_.apply(additions, deletions);
  });
  span.arg({"cloned_bytes", outcome.cloned_bytes});
  return outcome;
}

rdf::SnapshotStats QueryService::save_snapshot(std::ostream& out) const {
  // Pin the snapshot first: RCU keeps the store alive and immutable while
  // we stream it out, and the shared lock only guards dictionary reads.
  const SnapshotPtr snap = registry_.current();
  PAROWL_SPAN("serve.snapshot", {{"version", snap->version}});
  return with_dict_shared([&out, &snap](const rdf::Dictionary& dict) {
    if (snap->equality != nullptr) {
      const rdf::EqualityClassMap map = snap->equality->export_map();
      return rdf::save_snapshot(out, dict, snap->store, &map);
    }
    return rdf::save_snapshot(out, dict, snap->store);
  });
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  static_cast<RequestStats&>(s) = request_stats();
  s.updates_applied = updater_.batches_applied();
  s.snapshot_version = registry_.version();
  obs::publish(s, "serve");
  return s;
}

}  // namespace parowl::serve
