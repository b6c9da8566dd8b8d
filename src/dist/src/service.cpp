#include "parowl/dist/service.hpp"

#include <algorithm>
#include <optional>
#include <ostream>

#include "parowl/obs/obs.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/query/equality_expand.hpp"
#include "parowl/util/table.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::dist {

obs::FieldList fields(const DistStats& s) {
  obs::FieldList out = {
      {"requests", s.total_requests()},
      {"completed", s.completed},
      {"shed", s.shed},
      {"deadline_exceeded", s.deadline_exceeded},
      {"parse_errors", s.parse_errors},
      {"unavailable", s.unavailable},
      {"unsupported", s.unsupported},
      {"partitions", s.partitions},
      {"replicas", s.replicas},
      {"scans_sent", s.scans_sent},
      {"retransmissions", s.retransmissions},
      {"failovers", s.failovers},
      {"gathered_triples", s.gathered_triples},
      {"shard_bytes_shipped", s.shard_bytes_shipped},
      {"p50_latency_seconds", s.latency.percentile_seconds(0.50)},
      {"p95_latency_seconds", s.latency.percentile_seconds(0.95)},
      {"p99_latency_seconds", s.latency.percentile_seconds(0.99)},
  };
  for (obs::Field& f : fields(s.cache)) {
    out.push_back(std::move(f));
  }
  return out;
}

void DistStats::print(std::ostream& os) const {
  util::Table table({"metric", "value"});
  obs::print(*this, table);
  table.add_row(
      {"p50 latency", serve::fmt_latency(latency.percentile_seconds(0.50))});
  table.add_row(
      {"p95 latency", serve::fmt_latency(latency.percentile_seconds(0.95))});
  table.add_row(
      {"p99 latency", serve::fmt_latency(latency.percentile_seconds(0.99))});
  table.print(os);
}

DistService::DistService(rdf::Dictionary& dict,
                         const rdf::TripleStore& closure,
                         partition::OwnerTable owners,
                         std::uint32_t partitions,
                         parallel::Transport& transport, DistOptions options)
    : options_(std::move(options)),
      dict_(dict),
      layout_{partitions == 0 ? 1 : partitions,
              options_.replicas == 0 ? 1 : options_.replicas},
      catalog_(closure, std::move(owners), layout_.partitions),
      replicas_(catalog_, layout_, transport),
      router_(catalog_.owners(), layout_, replicas_, transport,
              options_.router),
      cache_(options_.cache_shards,
             options_.cache_enabled ? options_.cache_capacity_per_shard : 0),
      parser_(dict),
      executor_(std::make_unique<serve::Executor>(options_.threads,
                                                  options_.queue_capacity)) {
  obs::configure(options_.obs);
  for (const auto& [name, iri] : options_.prefixes) {
    parser_.add_prefix(name, iri);
  }
}

DistService::~DistService() {
  executor_.reset();  // completes pending jobs, joins workers
}

bool DistService::submit(std::string query_text,
                         std::function<void(const Response&)> done) {
  const auto admitted_at = serve::Executor::Clock::now();
  auto done_ptr = std::make_shared<std::function<void(const Response&)>>(
      std::move(done));

  serve::Executor::Job job;
  if (options_.default_deadline_seconds > 0) {
    job.deadline =
        admitted_at +
        std::chrono::duration_cast<serve::Executor::Clock::duration>(
            std::chrono::duration<double>(
                options_.default_deadline_seconds));
  }
  job.run = [this, text = std::move(query_text), done_ptr,
             admitted_at](bool expired) {
    Response response;
    if (expired) {
      response.status = serve::RequestStatus::kDeadlineExceeded;
    } else {
      response = execute_locked(text);
    }
    response.latency_seconds =
        std::chrono::duration<double>(serve::Executor::Clock::now() -
                                      admitted_at)
            .count();
    count(response);
    if (*done_ptr) {
      (*done_ptr)(response);
    }
  };

  if (!executor_->try_submit(std::move(job))) {
    Response response;
    response.status = serve::RequestStatus::kOverloaded;
    response.latency_seconds =
        std::chrono::duration<double>(serve::Executor::Clock::now() -
                                      admitted_at)
            .count();
    count(response);
    if (*done_ptr) {
      (*done_ptr)(response);
    }
    return false;
  }
  return true;
}

DistService::Response DistService::execute(const std::string& query_text) {
  util::Stopwatch watch;
  Response response = execute_locked(query_text);
  response.latency_seconds = watch.elapsed_seconds();
  count(response);
  return response;
}

std::string DistService::cache_key(
    const std::string& normalized, const std::vector<std::uint64_t>& versions) {
  // Text + shard version vector: a refresh of any partition changes the
  // key, so stale merged results become unreachable instead of needing a
  // version floor (no single version covers a merged result).
  std::string key = normalized;
  key += '\x01';
  for (const std::uint64_t v : versions) {
    key += 'v';
    key += std::to_string(v);
  }
  return key;
}

DistService::Response DistService::execute_locked(
    const std::string& query_text) {
  PAROWL_COUNT("dist.requests", 1);
  std::optional<obs::Span> request_span;
  if (obs::Tracer::global().enabled() &&
      request_seq_.fetch_add(1, std::memory_order_relaxed) %
              obs::sample_stride() ==
          0) {
    request_span.emplace("dist.request");
  }

  Response response;
  // The key and the stamp come from one read of the version vector, so a
  // hit under this key carries rows of exactly these versions.
  std::vector<std::uint64_t> versions;
  {
    const std::shared_lock lock(catalog_mutex_);
    versions = catalog_.versions();
  }
  const std::string key =
      cache_key(serve::normalize_query(query_text), versions);
  response.snapshot_version =
      *std::max_element(versions.begin(), versions.end());

  if (auto hit = cache_.lookup(key)) {
    response.cache_hit = true;
    response.snapshot_version = hit->stamp(response.snapshot_version);
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
    // Parsing interns query constants and mutates parser prefix state.
    const std::unique_lock lock(dict_mutex_);
    parsed = parser_.parse(query_text, &error);
  }
  if (!parsed) {
    response.status = serve::RequestStatus::kParseError;
    response.error = error;
    if (request_span) {
      request_span->arg({"status", "parse_error"});
    }
    return response;
  }

  // Rewrite mode: route the representative-space widened query (constants
  // rewritten, every variable projected, DISTINCT/LIMIT deferred) and
  // expand the merged rows afterwards — shards only hold canonical triples.
  const reason::EqualityManager* eq = options_.equality.get();
  query::SelectQuery routed;
  if (eq != nullptr) {
    std::string why;
    std::optional<query::SelectQuery> rewritten =
        query::rewrite_for_equality(*parsed, *eq, options_.same_as, &why);
    if (!rewritten) {
      response.status = serve::RequestStatus::kUnsupported;
      response.error = std::move(why);
      if (request_span) {
        request_span->arg({"status", "unsupported"});
      }
      return response;
    }
    routed = std::move(*rewritten);
  }

  const std::uint32_t request =
      request_ids_.fetch_add(1, std::memory_order_relaxed);
  RouteStats route;
  const QueryRouter::Outcome outcome =
      router_.run(eq != nullptr ? routed : *parsed, request,
                  &response.results, &route);
  scans_sent_.fetch_add(route.scans_sent, std::memory_order_relaxed);
  retransmissions_.fetch_add(route.retransmissions,
                             std::memory_order_relaxed);
  failovers_.fetch_add(route.failovers, std::memory_order_relaxed);
  gathered_triples_.fetch_add(route.gathered_triples,
                              std::memory_order_relaxed);
  if (outcome == QueryRouter::Outcome::kUnavailable) {
    response.status = serve::RequestStatus::kUnavailable;
    response.error = "no replica answered for a touched partition";
    response.results = {};
    if (request_span) {
      request_span->arg({"status", "unavailable"});
    }
    return response;
  }

  if (eq != nullptr) {
    query::EqualityEvalResult expanded =
        query::expand_equality_results(*parsed, response.results, *eq);
    response.results = std::move(expanded.results);
  }

  // Cache only an answer routed entirely at the keyed versions.  A refresh
  // that landed while this request was routing may have mixed shard
  // versions into the rows, which then belong under neither key.
  bool unchanged = false;
  {
    const std::shared_lock lock(catalog_mutex_);
    unchanged = catalog_.versions() == versions;
  }
  if (unchanged) {
    serve::CachedResult entry;
    entry.results = response.results;
    // Footprint fields matter only for on_update invalidation, which the
    // distributed tier replaces with version-vector keys; stamp the entry
    // with the max shard version so the floor check stays a no-op.
    entry.version = response.snapshot_version;
    cache_.insert(key, std::move(entry));
  }
  if (request_span) {
    request_span->arg({"cache", "miss"});
    request_span->arg({"partitions", route.partitions_touched});
    request_span->arg({"rows", response.results.size()});
  }
  return response;
}

void DistService::refresh(std::span<const rdf::Triple> additions) {
  PAROWL_SPAN("dist.refresh", {{"additions", additions.size()}});
  const std::unique_lock lock(catalog_mutex_);
  const std::vector<std::uint32_t> touched = catalog_.refresh(additions);
  for (const std::uint32_t p : touched) {
    replicas_.sync_partition(catalog_, p);
  }
}

void DistService::refresh(std::span<const rdf::Triple> additions,
                          std::span<const rdf::Triple> deletions) {
  PAROWL_SPAN("dist.refresh", {{"additions", additions.size()},
                               {"deletions", deletions.size()}});
  const std::unique_lock lock(catalog_mutex_);
  const std::vector<std::uint32_t> touched =
      catalog_.refresh(additions, deletions);
  for (const std::uint32_t p : touched) {
    replicas_.sync_partition(catalog_, p);
  }
}

void DistService::drain() { executor_->wait_idle(); }

std::string DistService::render(const query::ResultSet& results) const {
  const std::shared_lock lock(dict_mutex_);
  return query::to_text(results, dict_);
}

DistStats DistService::stats() const {
  DistStats s;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.unsupported = unsupported_.load(std::memory_order_relaxed);
  s.partitions = layout_.partitions;
  s.replicas = layout_.replicas;
  s.scans_sent = scans_sent_.load(std::memory_order_relaxed);
  s.retransmissions = retransmissions_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.gathered_triples = gathered_triples_.load(std::memory_order_relaxed);
  s.shard_bytes_shipped = replicas_.bytes_shipped();
  s.cache = cache_.counters();
  s.latency = latency_;
  obs::publish(s, "dist");
  return s;
}

std::vector<std::uint64_t> DistService::shard_versions() const {
  const std::shared_lock lock(catalog_mutex_);
  return catalog_.versions();
}

void DistService::kill_replica(std::uint32_t p, std::uint32_t r) {
  replicas_.kill(p, r);
}

void DistService::revive_replica(std::uint32_t p, std::uint32_t r) {
  const std::shared_lock lock(catalog_mutex_);
  replicas_.revive(catalog_, p, r);
}

void DistService::count(const Response& response) {
  switch (response.status) {
    case serve::RequestStatus::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case serve::RequestStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case serve::RequestStatus::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case serve::RequestStatus::kParseError:
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case serve::RequestStatus::kUnavailable:
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      break;
    case serve::RequestStatus::kUnsupported:
      unsupported_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  latency_.record_seconds(response.latency_seconds);
}

serve::WorkloadReport run_workload(DistService& service,
                                   std::span<const std::string> queries,
                                   const serve::WorkloadOptions& options) {
  return serve::run_workload(
      [&service](const std::string& q,
                 std::function<void(const serve::Response&)> done) {
        return service.submit(q, std::move(done));
      },
      queries, options);
}

}  // namespace parowl::dist
