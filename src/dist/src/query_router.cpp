#include "parowl/dist/query_router.hpp"

#include <algorithm>
#include <optional>

#include "parowl/obs/trace.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::dist {
namespace {

/// Total transmissions per partition before the query gives up
/// (kUnavailable).  With FaultSpec.max_faulty_attempts = 3 this survives
/// any schedule plus one dead replica.
constexpr std::uint32_t kMaxAttempts = 8;

/// Unanswered transmissions to one replica before advancing to the next
/// (failover).  Retrying the same replica once first distinguishes a lost
/// envelope from a dead host.
constexpr std::uint32_t kAttemptsPerReplica = 2;

}  // namespace

obs::FieldList fields(const RouteStats& s) {
  return {
      {"partitions_touched", s.partitions_touched},
      {"scans_sent", s.scans_sent},
      {"retransmissions", s.retransmissions},
      {"failovers", s.failovers},
      {"checksum_failures", s.checksum_failures},
      {"redeliveries", s.redeliveries},
      {"gathered_triples", s.gathered_triples},
      {"route_seconds", s.route_seconds},
      {"fanout_seconds", s.fanout_seconds},
      {"merge_seconds", s.merge_seconds},
  };
}

QueryRouter::QueryRouter(const partition::OwnerTable& owners,
                         NodeLayout layout, ReplicaSet& replicas,
                         parallel::Transport& transport)
    : owners_(owners),
      layout_(layout),
      replicas_(replicas),
      transport_(transport) {}

QueryRouter::Footprint QueryRouter::footprint(
    const query::SelectQuery& query) const {
  Footprint fp;
  fp.patterns.resize(layout_.partitions);
  for (const rules::Atom& atom : query.where) {
    const rdf::Triple pattern{
        atom.s.is_const() ? atom.s.const_id() : rdf::kAnyTerm,
        atom.p.is_const() ? atom.p.const_id() : rdf::kAnyTerm,
        atom.o.is_const() ? atom.o.const_id() : rdf::kAnyTerm};
    for (const std::uint32_t p : partition::pattern_footprint(
             owners_, pattern, layout_.partitions)) {
      fp.patterns[p].push_back(pattern);
    }
  }
  for (std::uint32_t p = 0; p < layout_.partitions; ++p) {
    auto& pats = fp.patterns[p];
    std::sort(pats.begin(), pats.end());
    pats.erase(std::unique(pats.begin(), pats.end()), pats.end());
    if (!pats.empty()) {
      fp.partitions.push_back(p);
    }
  }
  return fp;
}

QueryRouter::Outcome QueryRouter::run(const query::SelectQuery& query,
                                      std::uint32_t request,
                                      query::ResultSet* out,
                                      RouteStats* stats) {
  *stats = RouteStats{};
  const bool traced = obs::Tracer::global().enabled();

  util::Stopwatch route_watch;
  std::optional<obs::Span> route_span;
  if (traced) {
    route_span.emplace("dist.route",
                       std::initializer_list<obs::TraceArg>{
                           {"request", request},
                           {"atoms", query.where.size()}},
                       kDistTrackBase + NodeLayout::kRouterNode);
  }
  const Footprint fp = footprint(query);
  stats->partitions_touched =
      static_cast<std::uint32_t>(fp.partitions.size());
  stats->route_seconds = route_watch.elapsed_seconds();
  if (route_span) {
    route_span->arg({"partitions", fp.partitions.size()});
    route_span.reset();
  }

  /// Per-partition scatter state: one slot per touched partition, advanced
  /// through the retry/failover schedule until its response arrives.
  struct Pending {
    std::uint32_t partition = 0;
    const std::vector<rdf::Triple>* patterns = nullptr;
    std::uint32_t attempt = 0;
    bool done = false;
    std::vector<rdf::Triple> triples;
  };
  std::vector<Pending> pending;
  pending.reserve(fp.partitions.size());
  for (const std::uint32_t p : fp.partitions) {
    pending.push_back(Pending{p, &fp.patterns[p], 0, false, {}});
  }

  util::Stopwatch fanout_watch;
  std::optional<obs::Span> fanout_span;
  if (traced) {
    fanout_span.emplace("dist.fanout",
                        std::initializer_list<obs::TraceArg>{
                            {"request", request},
                            {"partitions", fp.partitions.size()}},
                        kDistTrackBase + NodeLayout::kRouterNode);
  }
  std::size_t remaining = pending.size();
  for (std::uint32_t iter = 0;
       remaining > 0 && iter < kMaxAttempts; ++iter) {
    // Scatter: (re)send every unanswered partition's scan to its currently
    // selected replica.  The replica index advances every
    // kAttemptsPerReplica silent tries — the failover schedule.
    std::vector<std::uint32_t> targets;
    for (Pending& ps : pending) {
      if (ps.done) {
        continue;
      }
      const std::uint32_t replica =
          (ps.attempt / kAttemptsPerReplica) % layout_.replicas;
      if (ps.attempt > 0 && ps.attempt % kAttemptsPerReplica == 0) {
        stats->failovers += 1;
      }
      parallel::Batch req;
      req.from = NodeLayout::kRouterNode;
      req.to = layout_.replica_node(ps.partition, replica);
      req.round = request;
      req.seq = ps.partition;
      req.attempt = ps.attempt;
      req.checksum = parallel::batch_checksum(*ps.patterns);
      req.tuples = *ps.patterns;
      targets.push_back(req.to);
      transport_.send_batch(std::move(req));
      stats->scans_sent += 1;
      if (ps.attempt > 0) {
        stats->retransmissions += 1;
      }
      ps.attempt += 1;
    }
    // Pump the targeted replicas — the in-process stand-in for their own
    // server loops (mirrors Cluster::deliver_round_sequential).
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (const std::uint32_t node : targets) {
      replicas_.serve(node, request);
    }
    // Gather: drain this request's responses at the router node.
    for (parallel::Batch& resp :
         transport_.receive_batches(NodeLayout::kRouterNode, request)) {
      if (resp.round != request) {
        continue;  // another request's delayed envelope, released late
      }
      if (!resp.valid()) {
        transport_.note_checksum_failure(NodeLayout::kRouterNode);
        stats->checksum_failures += 1;
        continue;
      }
      const std::uint32_t p = layout_.partition_of(resp.from);
      const auto it = std::find_if(
          pending.begin(), pending.end(),
          [p](const Pending& ps) { return ps.partition == p; });
      if (it == pending.end()) {
        continue;
      }
      if (it->done) {
        transport_.note_redelivery(NodeLayout::kRouterNode);
        stats->redeliveries += 1;
        continue;
      }
      it->done = true;
      it->triples = std::move(resp.tuples);
      remaining -= 1;
    }
  }
  stats->fanout_seconds = fanout_watch.elapsed_seconds();
  if (fanout_span) {
    fanout_span->arg({"retransmissions", stats->retransmissions});
    fanout_span->arg({"failovers", stats->failovers});
    fanout_span.reset();
  }
  if (remaining > 0) {
    return Outcome::kUnavailable;
  }

  // Merge: insert each partition's matches into one store, in footprint
  // partition order, and join centrally.  The store drops the triples that
  // two partitions, or two patterns, both matched.  The gathered set is
  // exactly the union of each atom's matches against the full closure
  // (shard self-containment), so the join enumerates the same solutions as
  // single-store evaluation; sorting the rows fixes the one remaining
  // degree of freedom (enumeration order).
  // Note LIMIT: the cutoff applies during enumeration over the gathered
  // store, whose order is fixed by the partition order and the replicas'
  // payloads, so a LIMIT answer is deterministic — but it is not the
  // subset that comes first in sorted order.
  util::Stopwatch merge_watch;
  std::optional<obs::Span> merge_span;
  if (traced) {
    merge_span.emplace("dist.merge",
                       std::initializer_list<obs::TraceArg>{
                           {"request", request}},
                       kDistTrackBase + NodeLayout::kRouterNode);
  }
  rdf::TripleStore store;
  {
    obs::Span gather_span("dist.gather", {},
                          kDistTrackBase + NodeLayout::kRouterNode);
    std::size_t gathered = 0;
    for (const Pending& ps : pending) {
      gathered += ps.triples.size();
      store.insert_all(ps.triples);
    }
    gather_span.arg({"gathered", gathered});
    gather_span.arg({"distinct", store.size()});
  }
  stats->gathered_triples = store.size();
  *out = query::evaluate(store, query);
  std::sort(out->rows.begin(), out->rows.end());
  stats->merge_seconds = merge_watch.elapsed_seconds();
  if (merge_span) {
    merge_span->arg({"rows", out->rows.size()});
  }
  return Outcome::kOk;
}

}  // namespace parowl::dist
