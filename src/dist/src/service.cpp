#include "parowl/dist/service.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "parowl/obs/obs.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/query/equality_expand.hpp"

namespace parowl::dist {

obs::FieldList fields(const DistStats& s) {
  obs::FieldList out = fields(static_cast<const serve::RequestStats&>(s));
  out.emplace_back("partitions", s.partitions);
  out.emplace_back("replicas", s.replicas);
  out.emplace_back("scans_sent", s.scans_sent);
  out.emplace_back("retransmissions", s.retransmissions);
  out.emplace_back("failovers", s.failovers);
  out.emplace_back("gathered_triples", s.gathered_triples);
  out.emplace_back("shard_bytes_shipped", s.shard_bytes_shipped);
  return out;
}

/// A request's shard version vector: a miss routes against the replicas
/// and is cached only if no refresh landed while it routed.
class DistService::VersionsPin final : public Pin {
 public:
  VersionsPin(DistService& service, std::vector<std::uint64_t> versions)
      : service_(service), versions_(std::move(versions)) {
    version = *std::max_element(versions_.begin(), versions_.end());
    // Text + shard version vector: a refresh of any partition changes the
    // key, so stale merged results become unreachable instead of needing a
    // version floor (no single version covers a merged result).
    key_suffix = '\x01';
    for (const std::uint64_t v : versions_) {
      key_suffix += 'v';
      key_suffix += std::to_string(v);
    }
  }

  bool answer(const query::SelectQuery& query, Response& response,
              obs::Span* request_span) override {
    DistService& s = service_;
    // Rewrite mode: route the representative-space widened query (constants
    // rewritten, every variable projected, DISTINCT/LIMIT deferred) and
    // expand the merged rows afterwards — shards only hold canonical
    // triples.
    const reason::EqualityManager* eq = s.equality_.get();
    std::optional<query::SelectQuery> rewritten;
    if (eq != nullptr) {
      rewritten =
          query::rewrite_for_equality(query, *eq, s.same_as_, &response.error);
      if (!rewritten) {
        response.status = serve::RequestStatus::kUnsupported;
        return false;
      }
    }

    const std::uint32_t request =
        s.request_ids_.fetch_add(1, std::memory_order_relaxed);
    RouteStats route;
    const QueryRouter::Outcome outcome = s.router_.run(
        rewritten ? *rewritten : query, request, &response.results, &route);
    s.scans_sent_.fetch_add(route.scans_sent, std::memory_order_relaxed);
    s.retransmissions_.fetch_add(route.retransmissions,
                                 std::memory_order_relaxed);
    s.failovers_.fetch_add(route.failovers, std::memory_order_relaxed);
    s.gathered_triples_.fetch_add(route.gathered_triples,
                                  std::memory_order_relaxed);
    if (outcome == QueryRouter::Outcome::kUnavailable) {
      response.status = serve::RequestStatus::kUnavailable;
      response.error = "no replica answered for a touched partition";
      response.results = {};
      return false;
    }
    if (request_span != nullptr) {
      request_span->arg({"partitions", route.partitions_touched});
    }
    if (eq != nullptr) {
      response.results =
          query::expand_equality_results(query, response.results, *eq)
              .results;
    }

    // Cache only an answer routed entirely at the pinned versions.  A
    // refresh that landed while this request was routing may have mixed
    // shard versions into the rows, which then belong under neither key.
    return s.shard_versions() == versions_;
  }

 private:
  DistService& service_;
  std::vector<std::uint64_t> versions_;
};

DistService::DistService(rdf::Dictionary& dict,
                         const rdf::TripleStore& closure,
                         partition::OwnerTable owners,
                         std::uint32_t partitions,
                         parallel::Transport& transport, DistOptions options)
    : Frontend("dist", dict, options),
      equality_(std::move(options.equality)),
      same_as_(options.same_as),
      layout_{partitions == 0 ? 1 : partitions,
              options.replicas == 0 ? 1 : options.replicas},
      catalog_(closure, std::move(owners), layout_.partitions),
      replicas_(catalog_, layout_, transport),
      router_(catalog_.owners(), layout_, replicas_, transport) {}

DistService::~DistService() { stop(); }

std::unique_ptr<serve::Frontend::Pin> DistService::pin() {
  return std::make_unique<VersionsPin>(*this, shard_versions());
}

std::uint64_t DistService::version() const {
  const std::vector<std::uint64_t> versions = shard_versions();
  return *std::max_element(versions.begin(), versions.end());
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

DistStats DistService::stats() const {
  DistStats s;
  static_cast<serve::RequestStats&>(s) = request_stats();
  s.partitions = layout_.partitions;
  s.replicas = layout_.replicas;
  s.scans_sent = scans_sent_.load(std::memory_order_relaxed);
  s.retransmissions = retransmissions_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.gathered_triples = gathered_triples_.load(std::memory_order_relaxed);
  s.shard_bytes_shipped = replicas_.bytes_shipped();
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

}  // namespace parowl::dist
