#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "parowl/partition/owner_policy.hpp"
#include "parowl/rdf/term.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace parowl::dist {

/// One partition's closure shard, already serialized for shipping.
struct EncodedShard {
  std::uint32_t partition = 0;
  /// Monotonic per-partition snapshot version; starts at 1 and bumps on
  /// every refresh.  The vector of these across partitions is the cache key
  /// component that makes a shard refresh invalidate merged results.
  std::uint64_t version = 0;
  std::uint64_t triple_count = 0;
  /// "PSD1" header + codec triple blocks (rdf/codec.hpp) — the same wire
  /// format snapshots and file-transport envelopes use.
  std::string bytes;
};

/// Builds and versions the per-partition closure shards the serving tier
/// ships to replicas.
///
/// Placement follows partition::append_shard_destinations: a closure triple
/// lands on the shard of its subject's owner and its object's owner, and a
/// triple with no owned endpoint (schema axioms, literal-valued statements)
/// is replicated to every shard.  That rule makes each shard self-contained
/// for pattern matching: any pattern with an owned constant endpoint is
/// answerable entirely by that endpoint's shard, and the union of per-shard
/// matches of a pattern equals its matches against the full closure — the
/// invariant the QueryRouter's scatter/gather correctness rests on.
///
/// Shards are stored *encoded* (codec blocks under a small "PSD1" header),
/// so shipping a shard to a replica is a byte copy plus a decode on the
/// receiving side — the measured cost is real serialization, as with the
/// file transport.
class ShardCatalog {
 public:
  /// Slice `closure` (the full materialized store, log order preserved)
  /// into `num_partitions` encoded shards using `owners`.
  ShardCatalog(const rdf::TripleStore& closure,
               partition::OwnerTable owners, std::uint32_t num_partitions);

  [[nodiscard]] std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const EncodedShard& shard(std::uint32_t p) const {
    return shards_[p];
  }
  [[nodiscard]] const partition::OwnerTable& owners() const {
    return owners_;
  }

  /// Per-partition snapshot versions, indexed by partition.
  [[nodiscard]] std::vector<std::uint64_t> versions() const;

  /// Refresh after an incremental maintenance batch: remove `deletions`
  /// (the triples the maintainer actually retired from the closure) from the
  /// shards they were placed on (placement rule above), then append
  /// `additions` (the new log tail) to the shards they belong on, skipping
  /// any a shard already holds.  Only touched partitions re-encode and bump
  /// their versions; untouched shards keep their bytes and version.
  /// Returns the touched partitions, sorted.
  std::vector<std::uint32_t> refresh(
      std::span<const rdf::Triple> additions,
      std::span<const rdf::Triple> deletions = {});

  /// Total encoded bytes across shards (what one full sync ships per
  /// replica set member).
  [[nodiscard]] std::uint64_t encoded_bytes() const;

  /// Decode an EncodedShard's bytes back into triples (log order).  Returns
  /// false and sets *error on header mismatch or block corruption.
  static bool decode(const EncodedShard& shard,
                     std::vector<rdf::Triple>& out, std::string* error);

 private:
  void encode_shard(std::uint32_t p,
                    std::span<const rdf::Triple> triples);

  partition::OwnerTable owners_;
  std::vector<EncodedShard> shards_;
  /// Decoded triple lists kept alongside the encoded form so refresh can
  /// re-encode without a decode round-trip.
  std::vector<std::vector<rdf::Triple>> plain_;
};

}  // namespace parowl::dist
