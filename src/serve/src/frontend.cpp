#include "parowl/serve/frontend.hpp"

#include <algorithm>
#include <optional>

#include "parowl/obs/obs.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::serve {
namespace {

// Result cache geometry: shards keep concurrent lookups of different
// queries off one mutex; the capacity bounds each shard's LRU list.
constexpr std::size_t kCacheShards = 8;
constexpr std::size_t kCacheCapacityPerShard = 128;

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

Frontend::Frontend(std::string_view tier, rdf::Dictionary& dict,
                   const FrontendOptions& options)
    : deadline_seconds_(options.default_deadline_seconds),
      request_span_(std::string(tier) + ".request"),
      parse_span_(std::string(tier) + ".parse"),
      requests_(obs::MetricsRegistry::global().counter(std::string(tier) +
                                                       ".requests")),
      dict_(dict),
      cache_(kCacheShards, options.cache_enabled ? kCacheCapacityPerShard : 0),
      parser_(dict),
      executor_(std::make_unique<Executor>(options.threads,
                                           options.queue_capacity)) {
  obs::configure(options.obs);
  for (const auto& [name, iri] : options.prefixes) {
    parser_.add_prefix(name, iri);
  }
}

Frontend::~Frontend() { stop(); }

void Frontend::stop() {
  executor_.reset();  // completes pending jobs, joins workers
}

bool Frontend::submit(std::string query_text,
                      std::function<void(const Response&)> done) {
  const auto admitted_at = Executor::Clock::now();
  // The callback outlives the Job on the shed path (the refused Job is
  // destroyed inside try_submit), so it is held through a shared_ptr.
  auto done_ptr = std::make_shared<std::function<void(const Response&)>>(
      std::move(done));
  const auto finish = [this, done_ptr, admitted_at](Response& response) {
    response.latency_seconds =
        std::chrono::duration<double>(Executor::Clock::now() - admitted_at)
            .count();
    counters_.record(response);
    if (*done_ptr) {
      (*done_ptr)(response);
    }
  };

  Executor::Job job;
  if (deadline_seconds_ > 0) {
    job.deadline =
        admitted_at + std::chrono::duration_cast<Executor::Clock::duration>(
                          std::chrono::duration<double>(deadline_seconds_));
  }
  job.run = [this, text = std::move(query_text), finish](bool expired) {
    Response response;
    if (expired) {
      response.status = RequestStatus::kDeadlineExceeded;
      response.snapshot_version = version();
    } else {
      response = answer(text);
    }
    finish(response);
  };

  if (!executor_->try_submit(std::move(job))) {
    Response response;
    response.status = RequestStatus::kOverloaded;
    response.snapshot_version = version();
    finish(response);
    return false;
  }
  return true;
}

Response Frontend::execute(const std::string& query_text) {
  util::Stopwatch watch;
  Response response = answer(query_text);
  response.latency_seconds = watch.elapsed_seconds();
  counters_.record(response);
  return response;
}

Response Frontend::answer(const std::string& query_text) {
  requests_.add(1);
  // Per-request spans are strided by ObsOptions.sample_every so a loaded
  // service does not flood the trace buffer.
  std::optional<obs::Span> request_span;
  if (obs::Tracer::global().enabled() &&
      request_seq_.fetch_add(1, std::memory_order_relaxed) %
              obs::sample_stride() ==
          0) {
    request_span.emplace(request_span_);
  }
  obs::Span* span = request_span ? &*request_span : nullptr;

  // Pin first: the key and the stamp then come from one view of the tier's
  // state, so a hit under this key answers for the pinned state or newer.
  const std::unique_ptr<Pin> pinned = pin();
  const std::string key = normalize_query(query_text) + pinned->key_suffix;
  Response response;
  response.snapshot_version = pinned->version;

  if (auto hit = cache_.lookup(key)) {
    response.cache_hit = true;
    response.snapshot_version = hit->stamp(pinned->version);
    response.results = std::move(hit->results);
    if (span) {
      span->arg({"cache", "hit"});
      span->arg({"rows", response.results.size()});
    }
    return response;
  }

  std::optional<query::SelectQuery> parsed;
  {
    std::optional<obs::Span> parse_span;
    if (span) {
      parse_span.emplace(parse_span_);
    }
    // Parsing interns query constants.
    const std::unique_lock lock(dict_mutex_);
    parsed = parser_.parse(query_text, &response.error);
  }
  if (!parsed) {
    response.status = RequestStatus::kParseError;
  } else if (pinned->answer(*parsed, response, span) &&
             response.status == RequestStatus::kOk) {
    // Cached rows must be byte-identical to a miss's.  The footprint lets
    // an update drop exactly the entries it touches.
    CachedResult entry;
    entry.results = response.results;
    entry.predicate_footprint =
        footprint_of(*parsed, &entry.wildcard_predicate);
    entry.version = pinned->version;
    cache_.insert(key, std::move(entry));
  }
  if (span) {
    if (response.status == RequestStatus::kOk) {
      span->arg({"cache", "miss"});
      span->arg({"rows", response.results.size()});
    } else {
      span->arg({"status", to_string(response.status)});
    }
  }
  return response;
}

std::string Frontend::render(const query::ResultSet& results) const {
  return with_dict_shared([&results](const rdf::Dictionary& dict) {
    return query::to_text(results, dict);
  });
}

void Frontend::drain() { executor_->wait_idle(); }

RequestStats Frontend::request_stats() const {
  RequestStats s = counters_.stats();
  s.cache = cache_.counters();
  return s;
}

void RequestCounters::record(const Response& response) {
  switch (response.status) {
    case RequestStatus::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (response.cache_hit) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
      }
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
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kUnsupported:
      unsupported_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  latency_.record_seconds(response.latency_seconds);
}

RequestStats RequestCounters::stats() const {
  RequestStats s;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.unsupported = unsupported_.load(std::memory_order_relaxed);
  s.latency = latency_;
  return s;
}

}  // namespace parowl::serve
