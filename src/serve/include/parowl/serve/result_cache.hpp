#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "parowl/query/bgp.hpp"
#include "parowl/serve/stats.hpp"

namespace parowl::serve {

/// Normalize SPARQL text for use as a cache key: trim, collapse whitespace
/// runs to single spaces, strip '#' comments.  Two spellings of the same
/// query that differ only in layout share one cache entry.  A '#' inside an
/// <IRI> or a quoted literal is part of the query, not a comment, and
/// whitespace there is kept as written.
[[nodiscard]] std::string normalize_query(std::string_view text);

/// A cached query answer plus the metadata the invalidation protocol needs.
struct CachedResult {
  query::ResultSet results;

  /// Sorted, deduplicated predicate TermIds of the query's constant-predicate
  /// BGP atoms.  An update batch whose delta touches any of them drops the
  /// entry.
  std::vector<rdf::TermId> predicate_footprint;

  /// True when any BGP atom has a *variable* predicate: the footprint is
  /// then unbounded and every update invalidates the entry.
  bool wildcard_predicate = false;

  /// Snapshot version the results were computed against.
  std::uint64_t version = 0;
};

/// A cache hit: the cached rows and the snapshot version they were
/// computed against.
struct CacheHit {
  query::ResultSet results;
  std::uint64_t version = 0;

  /// Version to stamp on a response that pinned snapshot `pinned` and was
  /// answered from this hit.  Another reader may have cached rows from a
  /// newer snapshot than the pin; those rows belong to that newer version.
  /// An entry older than the pin survived every invalidation since it was
  /// computed, so its rows still hold at the pin.
  [[nodiscard]] std::uint64_t stamp(std::uint64_t pinned) const {
    return pinned > version ? pinned : version;
  }
};

/// Sharded LRU cache of query results keyed on normalized SPARQL text.
///
/// Distributed caveat: a *merged* result (dist::DistService) has no single
/// snapshot version to floor against — its freshness depends on every
/// touched shard.  The distributed tier therefore keys entries on the
/// normalized text *plus the per-partition shard version vector* (see
/// DistService::cache_key), so a shard refresh retires affected entries by
/// moving them to a dead key instead of relying on the version floor.
///
/// Shard = hash(key) % shards; each shard holds its own mutex, LRU list, and
/// map, so concurrent lookups on different queries don't contend.  Deltas
/// invalidate by predicate footprint: `on_update` drops exactly the entries
/// whose footprint intersects the update's predicate set, and bumps the
/// cache's version floor so in-flight queries computed against the previous
/// snapshot cannot re-insert stale answers afterwards.
class ResultCache {
 public:
  /// `capacity_per_shard` == 0 disables caching entirely (every lookup
  /// misses, inserts are dropped) — the cache-off arm of the bench.
  ResultCache(std::size_t shards, std::size_t capacity_per_shard);

  /// Look up `key` (already normalized).  A hit refreshes LRU recency.
  [[nodiscard]] std::optional<CacheHit> lookup(const std::string& key);

  /// Insert (or refresh) an entry.  Rejected when `entry.version` is older
  /// than the latest update's version floor (the answer may predate an
  /// invalidation that should have covered it).
  void insert(const std::string& key, CachedResult entry);

  /// An update producing snapshot `new_version` touched `delta_predicates`
  /// (sorted not required).  Drops every overlapping or wildcard entry;
  /// returns the number dropped.
  std::size_t on_update(std::span<const rdf::TermId> delta_predicates,
                        std::uint64_t new_version);

  [[nodiscard]] CacheCounters counters() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool enabled() const { return capacity_per_shard_ > 0; }

 private:
  struct Shard {
    std::mutex mutex;
    // Front = most recently used.  The map's string_view keys point into the
    // list nodes' stable strings.
    std::list<std::pair<std::string, CachedResult>> lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, CachedResult>>::iterator>
        index;
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> version_floor_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace parowl::serve
