#include "parowl/dist/replica.hpp"

#include <algorithm>
#include <optional>

#include "parowl/obs/trace.hpp"

namespace parowl::dist {

ShardReplica::ShardReplica(std::uint32_t node, std::uint32_t partition,
                           std::uint32_t replica)
    : node_(node), partition_(partition), replica_(replica) {}

bool ShardReplica::install(const EncodedShard& shard, std::string* error) {
  std::vector<rdf::Triple> decoded;
  if (!ShardCatalog::decode(shard, decoded, error)) {
    return false;
  }
  auto store = std::make_shared<rdf::TripleStore>();
  store->insert_all(decoded);
  {
    const std::scoped_lock lock(mutex_);
    store_ = std::move(store);
  }
  shard_version_.store(shard.version, std::memory_order_relaxed);
  bytes_installed_.fetch_add(shard.bytes.size(), std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const rdf::TripleStore> ShardReplica::store() const {
  const std::scoped_lock lock(mutex_);
  return store_;
}

std::size_t ShardReplica::serve(parallel::Transport& transport,
                                std::uint32_t request) {
  std::vector<parallel::Batch> inbox =
      transport.receive_batches(node_, request);
  if (!alive()) {
    // A dead host's packets vanish: drain so nothing is answered late on
    // revive, answer nothing, let the router's retry/failover take over.
    return 0;
  }
  std::size_t answered = 0;
  for (parallel::Batch& req : inbox) {
    if (req.round != request) {
      // A FaultyTransport can release an older request's delayed envelope
      // into this poll; that request's router is gone — drop it.
      continue;
    }
    if (!req.valid()) {
      transport.note_checksum_failure(node_);
      continue;  // the router retransmits
    }
    {
      const std::scoped_lock lock(mutex_);
      if (!seen_.insert(req.id()).second) {
        // Duplicate request: record it, but re-answer — the previous
        // response may be the leg the fault schedule destroyed, and the
        // answer is a pure function of (shard version, patterns).
        transport.note_redelivery(node_);
      }
    }
    const std::shared_ptr<const rdf::TripleStore> snap = store();

    std::optional<obs::Span> span;
    if (obs::Tracer::global().enabled()) {
      span.emplace("dist.scan",
                   std::initializer_list<obs::TraceArg>{
                       {"partition", partition_},
                       {"replica", replica_},
                       {"patterns", req.tuples.size()}},
                   kDistTrackBase + node_);
    }
    std::vector<rdf::Triple> matches;
    if (snap) {
      for (const rdf::Triple& pattern : req.tuples) {
        snap->match(rdf::TriplePattern{pattern.s, pattern.p, pattern.o},
                    [&](const rdf::Triple& t) { matches.push_back(t); });
      }
    }
    // Canonical response payload: sorted and deduplicated, so the same
    // (shard version, patterns) pair always yields byte-identical batches —
    // retransmitted responses carry the same checksum.
    std::sort(matches.begin(), matches.end());
    matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
    if (span) {
      span->arg({"matches", matches.size()});
    }

    parallel::Batch resp;
    resp.from = node_;
    resp.to = NodeLayout::kRouterNode;
    resp.round = request;
    resp.seq = req.seq;
    resp.attempt = req.attempt;
    resp.checksum = parallel::batch_checksum(matches);
    resp.tuples = std::move(matches);
    transport.send_batch(std::move(resp));
    ++answered;
  }
  scans_answered_.fetch_add(answered, std::memory_order_relaxed);
  return answered;
}

ReplicaSet::ReplicaSet(const ShardCatalog& catalog, NodeLayout layout,
                       parallel::Transport& transport)
    : layout_(layout), transport_(transport) {
  replicas_.reserve(layout_.partitions * layout_.replicas);
  obs::Tracer& tracer = obs::Tracer::global();
  for (std::uint32_t p = 0; p < layout_.partitions; ++p) {
    for (std::uint32_t r = 0; r < layout_.replicas; ++r) {
      const std::uint32_t node = layout_.replica_node(p, r);
      replicas_.push_back(std::make_unique<ShardReplica>(node, p, r));
      tracer.name_track(kDistTrackBase + node,
                        "dist replica p" + std::to_string(p) + "/r" +
                            std::to_string(r));
    }
  }
  tracer.name_track(kDistTrackBase + NodeLayout::kRouterNode, "dist router");
  for (std::uint32_t p = 0; p < layout_.partitions; ++p) {
    sync_partition(catalog, p);
  }
}

void ReplicaSet::sync_partition(const ShardCatalog& catalog, std::uint32_t p) {
  for (std::uint32_t r = 0; r < layout_.replicas; ++r) {
    ShardReplica& rep = replica(p, r);
    if (rep.alive()) {
      rep.install(catalog.shard(p));
    }
  }
}

std::size_t ReplicaSet::serve(std::uint32_t node, std::uint32_t request) {
  return replicas_[node - 1]->serve(transport_, request);
}

void ReplicaSet::kill(std::uint32_t p, std::uint32_t r) {
  replica(p, r).kill();
}

void ReplicaSet::revive(const ShardCatalog& catalog, std::uint32_t p,
                        std::uint32_t r) {
  ShardReplica& rep = replica(p, r);
  rep.revive();
  rep.install(catalog.shard(p));
}

std::uint64_t ReplicaSet::bytes_shipped() const {
  std::uint64_t total = 0;
  for (const auto& rep : replicas_) {
    total += rep->bytes_installed();
  }
  return total;
}

}  // namespace parowl::dist
