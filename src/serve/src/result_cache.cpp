#include "parowl/serve/result_cache.hpp"

#include <algorithm>
#include <functional>

namespace parowl::serve {

std::string normalize_query(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '#') {
      // Comment runs to end of line.
      while (i < text.size() && text[i] != '\n') {
        ++i;
      }
      pending_space = !out.empty();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    if (c == '<' || c == '"' || c == '\'') {
      // Copy an IRI or quoted literal verbatim up to its closing delimiter
      // (a backslash escapes the next character in a literal).  A '<' with
      // no '>' before the end of the line is the less-than operator.
      const char close = c == '<' ? '>' : c;
      std::size_t end = i + 1;
      while (end < text.size() && text[end] != close &&
             !(c == '<' && (text[end] == '\n' || text[end] == ' '))) {
        end += (c != '<' && text[end] == '\\') ? 2 : 1;
      }
      if (end < text.size() && text[end] == close) {
        out.append(text.substr(i, end + 1 - i));
        i = end;
        continue;
      }
    }
    out += c;
  }
  return out;
}

ResultCache::ResultCache(std::size_t shards, std::size_t capacity_per_shard)
    : capacity_per_shard_(capacity_per_shard) {
  if (shards == 0) {
    shards = 1;
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  const std::size_t h = std::hash<std::string_view>{}(key);
  return *shards_[h % shards_.size()];
}

std::optional<CacheHit> ResultCache::lookup(const std::string& key) {
  if (!enabled()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Shard& shard = shard_for(key);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  const CachedResult& entry = it->second->second;
  return CacheHit{entry.results, entry.version};
}

void ResultCache::insert(const std::string& key, CachedResult entry) {
  if (!enabled()) {
    return;
  }
  // An in-flight query may finish against snapshot v after an update already
  // published v+1 and ran its invalidation pass; caching that answer would
  // resurrect exactly the staleness the pass removed.  The floor is read
  // under the shard lock: on_update raises it before sweeping this shard
  // under the same lock, so an insert either lands before the sweep (and
  // is swept) or sees the raised floor.
  Shard& shard = shard_for(key);
  const std::scoped_lock lock(shard.mutex);
  if (entry.version < version_floor_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(std::string_view(shard.lru.front().first),
                      shard.lru.begin());
  if (shard.lru.size() > capacity_per_shard_) {
    shard.index.erase(std::string_view(shard.lru.back().first));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t ResultCache::on_update(
    std::span<const rdf::TermId> delta_predicates, std::uint64_t new_version) {
  // Raise the floor first so no insert computed against an older snapshot
  // can slip in behind the sweep below.
  version_floor_.store(new_version, std::memory_order_release);
  if (!enabled()) {
    return 0;
  }
  std::vector<rdf::TermId> delta(delta_predicates.begin(),
                                 delta_predicates.end());
  std::sort(delta.begin(), delta.end());

  std::size_t dropped = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::scoped_lock lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const CachedResult& entry = it->second;
      const bool stale_version = entry.version < new_version &&
                                 (entry.wildcard_predicate ||
                                  std::ranges::any_of(
                                      entry.predicate_footprint,
                                      [&delta](rdf::TermId p) {
                                        return std::binary_search(
                                            delta.begin(), delta.end(), p);
                                      }));
      if (stale_version) {
        shard.index.erase(std::string_view(it->first));
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

CacheCounters ResultCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.invalidations = invalidations_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  return c;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const std::scoped_lock lock(shard_ptr->mutex);
    total += shard_ptr->lru.size();
  }
  return total;
}

}  // namespace parowl::serve
