#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "parowl/dist/layout.hpp"
#include "parowl/dist/shard_catalog.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace parowl::dist {

/// One worker replica serving scan requests against its partition's shard.
///
/// The shard is held as a shared_ptr<const TripleStore>: `serve` pins the
/// current store with one pointer copy and evaluates lock-free, while
/// `install` publishes a freshly decoded store by swapping the pointer —
/// the same RCU shape as the serve layer's KbSnapshot, so a shard refresh
/// never blocks in-flight scans.
///
/// Wire protocol (parallel::Batch over any Transport):
///   request   from = router (node 0), round = request id, seq = partition,
///             tuples = scan patterns (rdf::kAnyTerm = wildcard)
///   response  from = this replica's node, to = router, round = request id,
///             tuples = the local matches in store order: pattern by
///             pattern in request order, each in the store's index order,
///             not sorted or deduplicated (a triple two patterns match
///             appears once per pattern),
///             attempt mirroring the request's attempt (so a FaultyTransport
///             schedule bounded by max_faulty_attempts also bounds the
///             response path).
///
/// Requests are deduplicated by batch id for accounting (note_redelivery)
/// but *re-answered* idempotently: the first response may have been lost,
/// and the matches are a pure function of (shard version, patterns).
/// Every replica of a partition decodes the same shard bytes in the same
/// order into the same store, so the replicas answer byte-identically and
/// a re-answer carries the same checksum.
class ShardReplica {
 public:
  ShardReplica(std::uint32_t node, std::uint32_t partition,
               std::uint32_t replica);

  /// Decode `shard` and publish it as this replica's store.  Returns false
  /// (keeping the previous store) on decode failure.
  bool install(const EncodedShard& shard, std::string* error = nullptr);

  /// Drain and answer every request for (`node`, `request`) currently in
  /// `transport`.  A dead replica drains and discards — the network level
  /// equivalent of packets to a down host — and answers nothing.  Returns
  /// the number of scan requests answered.
  std::size_t serve(parallel::Transport& transport, std::uint32_t request);

  void kill() { alive_.store(false, std::memory_order_relaxed); }
  void revive() { alive_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool alive() const {
    return alive_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t node() const { return node_; }
  [[nodiscard]] std::uint32_t partition() const { return partition_; }
  [[nodiscard]] std::uint32_t replica_index() const { return replica_; }
  [[nodiscard]] std::uint64_t shard_version() const {
    return shard_version_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scans_answered() const {
    return scans_answered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_installed() const {
    return bytes_installed_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::shared_ptr<const rdf::TripleStore> store() const;

  const std::uint32_t node_;
  const std::uint32_t partition_;
  const std::uint32_t replica_;
  std::atomic<bool> alive_{true};
  std::atomic<std::uint64_t> shard_version_{0};
  std::atomic<std::uint64_t> scans_answered_{0};
  std::atomic<std::uint64_t> bytes_installed_{0};

  mutable std::mutex mutex_;  // guards store_ swap and seen_
  std::shared_ptr<const rdf::TripleStore> store_;
  std::unordered_set<std::uint64_t> seen_;  // request batch ids (accounting)
};

/// The full replica fleet of one serving cluster: `replicas` copies of each
/// of the catalog's partitions, laid out by NodeLayout over a shared
/// Transport.  Construction performs the initial sync (ship + decode every
/// shard to every replica); `sync_partition` re-ships one partition after a
/// catalog refresh.
class ReplicaSet {
 public:
  ReplicaSet(const ShardCatalog& catalog, NodeLayout layout,
             parallel::Transport& transport);

  /// Install partition p's current catalog shard on all its replicas
  /// (skipping dead ones — they re-sync on revive).
  void sync_partition(const ShardCatalog& catalog, std::uint32_t p);

  /// Pump one node's inbox for `request` (the in-process stand-in for the
  /// replica's own server loop).  Returns scans answered.
  std::size_t serve(std::uint32_t node, std::uint32_t request);

  [[nodiscard]] ShardReplica& replica(std::uint32_t p, std::uint32_t r) {
    return *replicas_[layout_.replica_node(p, r) - 1];
  }
  [[nodiscard]] const NodeLayout& layout() const { return layout_; }

  /// Kill/revive by (partition, replica); revive re-installs the current
  /// shard so a resurrected replica never serves a stale snapshot.
  void kill(std::uint32_t p, std::uint32_t r);
  void revive(const ShardCatalog& catalog, std::uint32_t p, std::uint32_t r);

  /// Total codec bytes decoded across all installs (the shipping volume).
  [[nodiscard]] std::uint64_t bytes_shipped() const;

 private:
  NodeLayout layout_;
  parallel::Transport& transport_;
  std::vector<std::unique_ptr<ShardReplica>> replicas_;  // index = node - 1
};

}  // namespace parowl::dist
