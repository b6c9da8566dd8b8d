#include "parowl/serve/service.hpp"

#include <algorithm>
#include <optional>
#include <ostream>

#include "parowl/obs/obs.hpp"
#include "parowl/query/bgp.hpp"
#include "parowl/query/equality_expand.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::serve {
namespace {

/// Constant predicates of the query's BGP; sets `wildcard` when any atom
/// carries a variable predicate (footprint unbounded).
std::vector<rdf::TermId> footprint_of(const query::SelectQuery& q,
                                      bool* wildcard) {
  std::vector<rdf::TermId> preds;
  for (const rules::Atom& atom : q.where) {
    if (atom.p.is_const()) {
      preds.push_back(atom.p.const_id());
    } else {
      *wildcard = true;
    }
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

}  // namespace

QueryService::QueryService(
    rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
    rdf::TripleStore store, ServiceOptions options,
    std::span<const rdf::Triple> base,
    std::shared_ptr<const reason::EqualityManager> equality)
    : options_(std::move(options)),
      dict_(dict),
      same_as_(vocab.owl_same_as),
      registry_(make_initial_snapshot(std::move(store), base,
                                      std::move(equality))),
      cache_(options_.cache_shards,
             options_.cache_enabled ? options_.cache_capacity_per_shard : 0),
      parser_(dict),
      updater_(registry_, &cache_, dict, vocab, /*reason_threads=*/1),
      executor_(std::make_unique<Executor>(options_.threads,
                                           options_.queue_capacity)) {
  obs::configure(options_.obs);
  for (const auto& [name, iri] : options_.prefixes) {
    parser_.add_prefix(name, iri);
  }
}

QueryService::~QueryService() {
  executor_.reset();  // completes pending jobs, joins workers
}

bool QueryService::submit(std::string query_text,
                          std::function<void(const Response&)> done) {
  const auto admitted_at = Executor::Clock::now();
  // The callback outlives the Job on the shed path (the refused Job is
  // destroyed inside try_submit), so it is held through a shared_ptr.
  auto done_ptr = std::make_shared<std::function<void(const Response&)>>(
      std::move(done));

  Executor::Job job;
  if (options_.default_deadline_seconds > 0) {
    job.deadline =
        admitted_at + std::chrono::duration_cast<Executor::Clock::duration>(
                          std::chrono::duration<double>(
                              options_.default_deadline_seconds));
  }
  job.run = [this, text = std::move(query_text), done_ptr,
             admitted_at](bool expired) {
    Response response;
    if (expired) {
      response.status = RequestStatus::kDeadlineExceeded;
      response.snapshot_version = registry_.version();
    } else {
      response = execute_locked(text);
    }
    response.latency_seconds =
        std::chrono::duration<double>(Executor::Clock::now() - admitted_at)
            .count();
    count(response);
    if (*done_ptr) {
      (*done_ptr)(response);
    }
  };

  if (!executor_->try_submit(std::move(job))) {
    Response response;
    response.status = RequestStatus::kOverloaded;
    response.snapshot_version = registry_.version();
    response.latency_seconds =
        std::chrono::duration<double>(Executor::Clock::now() - admitted_at)
            .count();
    count(response);
    if (*done_ptr) {
      (*done_ptr)(response);
    }
    return false;
  }
  return true;
}

Response QueryService::execute(const std::string& query_text) {
  util::Stopwatch watch;
  Response response = execute_locked(query_text);
  response.latency_seconds = watch.elapsed_seconds();
  count(response);
  return response;
}

Response QueryService::execute_locked(const std::string& query_text) {
  PAROWL_COUNT("serve.requests", 1);
  // Per-request spans are strided by ObsOptions.sample_every so a loaded
  // service does not flood the trace buffer.
  std::optional<obs::Span> request_span;
  if (obs::Tracer::global().enabled() &&
      request_seq_.fetch_add(1, std::memory_order_relaxed) %
              obs::sample_stride() ==
          0) {
    request_span.emplace("serve.request");
  }

  Response response;
  const std::string key = normalize_query(query_text);

  // Pin a snapshot first: the answer (cached or computed) is then valid for
  // `snap` or newer, and a stale insert after a concurrent update is caught
  // by the cache's version floor.  A hit is stamped with the version its
  // rows came from when that is newer than the pin (CacheHit::stamp).
  const SnapshotPtr snap = registry_.current();
  response.snapshot_version = snap->version;

  if (auto hit = cache_.lookup(key)) {
    response.cache_hit = true;
    response.snapshot_version = hit->stamp(snap->version);
    response.results = std::move(hit->results);
    if (request_span) {
      request_span->arg({"cache", "hit"});
      request_span->arg({"rows", response.results.size()});
    }
    return response;
  }

  std::optional<query::SelectQuery> parsed;
  std::string error;
  {
    std::optional<obs::Span> parse_span;
    if (request_span) {
      parse_span.emplace("serve.parse");
    }
    // Parsing interns query constants and mutates parser prefix state.
    const std::unique_lock lock(dict_mutex_);
    parsed = parser_.parse(query_text, &error);
  }
  if (!parsed) {
    response.status = RequestStatus::kParseError;
    response.error = error;
    if (request_span) {
      request_span->arg({"status", "parse_error"});
    }
    return response;
  }

  // Evaluation is lock-free: the snapshot is immutable and BGP matching
  // touches only TermIds.  Under equality rewriting the snapshot's store
  // holds representative-space triples, so answers are expanded through the
  // frozen class map before leaving the service (and before caching — a hit
  // must be byte-identical to a miss).
  std::optional<obs::Span> eval_span;
  if (request_span) {
    eval_span.emplace("serve.eval");
  }
  if (snap->equality != nullptr) {
    query::EqualityEvalResult eval = query::evaluate_with_equality(
        snap->store, *parsed, *snap->equality, same_as_);
    if (eval.unsupported) {
      response.status = RequestStatus::kUnsupported;
      response.error = std::move(eval.message);
      if (request_span) {
        request_span->arg({"status", "unsupported"});
      }
      return response;
    }
    response.results = std::move(eval.results);
  } else {
    response.results = query::evaluate(snap->store, *parsed);
  }
  if (eval_span) {
    eval_span->arg({"rows", response.results.size()});
    eval_span.reset();
  }

  CachedResult entry;
  entry.results = response.results;
  entry.predicate_footprint =
      footprint_of(*parsed, &entry.wildcard_predicate);
  entry.version = snap->version;
  cache_.insert(key, std::move(entry));
  if (request_span) {
    request_span->arg({"cache", "miss"});
    request_span->arg({"rows", response.results.size()});
  }
  return response;
}

UpdateOutcome QueryService::apply_update(
    std::span<const rdf::Triple> additions,
    std::span<const rdf::Triple> deletions) {
  obs::Span span("serve.update", {{"additions", additions.size()},
                                  {"deletions", deletions.size()}});
  // Shared lock: maintenance reads term kinds (literal guard) concurrently
  // with result rendering, but must exclude parser interning.
  const std::shared_lock lock(dict_mutex_);
  UpdateOutcome outcome = updater_.apply(additions, deletions);
  span.arg({"cloned_bytes", outcome.cloned_bytes});
  return outcome;
}

std::string QueryService::render(const query::ResultSet& results) const {
  return with_dict_shared([&results](const rdf::Dictionary& dict) {
    return query::to_text(results, dict);
  });
}

void QueryService::drain() { executor_->wait_idle(); }

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
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.unsupported = unsupported_.load(std::memory_order_relaxed);
  s.updates_applied = updater_.batches_applied();
  s.snapshot_version = registry_.version();
  s.cache = cache_.counters();
  s.latency = latency_;
  obs::publish(s, "serve");
  return s;
}

void QueryService::count(const Response& response) {
  switch (response.status) {
    case RequestStatus::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kParseError:
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kUnavailable:
      // Single-store serving has no unavailable outcome (the snapshot is
      // local); the distributed facade keeps its own counter.
      break;
    case RequestStatus::kUnsupported:
      unsupported_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  latency_.record_seconds(response.latency_seconds);
}

}  // namespace parowl::serve
