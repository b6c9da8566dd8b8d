#include "parowl/dist/shard_catalog.hpp"

#include <algorithm>

#include "parowl/partition/data_partition.hpp"
#include "parowl/rdf/codec.hpp"
#include "parowl/rdf/flat_index.hpp"

namespace parowl::dist {
namespace {

constexpr char kMagic[4] = {'P', 'S', 'D', '1'};

}  // namespace

ShardCatalog::ShardCatalog(const rdf::TripleStore& closure,
                           partition::OwnerTable owners,
                           std::uint32_t num_partitions)
    : owners_(std::move(owners)) {
  shards_.resize(num_partitions);
  plain_.resize(num_partitions);

  // Slice in log order so each shard round-trips bit-identically through
  // the order-preserving codec.
  std::vector<std::uint32_t> dests;
  for (const rdf::Triple& t : closure.triples()) {
    dests.clear();
    partition::append_shard_destinations(owners_, t, num_partitions, dests);
    for (const std::uint32_t p : dests) {
      plain_[p].push_back(t);
    }
  }
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    shards_[p].partition = p;
    shards_[p].version = 1;
    encode_shard(p, plain_[p]);
  }
}

std::vector<std::uint64_t> ShardCatalog::versions() const {
  std::vector<std::uint64_t> out(shards_.size());
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    out[p] = shards_[p].version;
  }
  return out;
}

std::vector<std::uint32_t> ShardCatalog::refresh(
    std::span<const rdf::Triple> additions,
    std::span<const rdf::Triple> deletions) {
  const auto k = static_cast<std::uint32_t>(shards_.size());
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> dests;

  // Retire first, append second — so a triple deleted and re-added in one
  // batch survives.  Per-partition sets keep the erase pass O(shard size).
  std::vector<rdf::TripleSet> retire(k);
  std::vector<std::vector<rdf::Triple>> appends(k);
  for (const rdf::Triple& t : deletions) {
    dests.clear();
    partition::append_shard_destinations(owners_, t, k, dests);
    for (const std::uint32_t p : dests) {
      retire[p].insert(t);
      touched.push_back(p);
    }
  }
  for (const rdf::Triple& t : additions) {
    dests.clear();
    partition::append_shard_destinations(owners_, t, k, dests);
    for (const std::uint32_t p : dests) {
      appends[p].push_back(t);
      touched.push_back(p);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint32_t p : touched) {
    auto& list = plain_[p];
    if (!retire[p].empty()) {
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](const rdf::Triple& t) {
                                  return retire[p].contains(t);
                                }),
                 list.end());
    }
    // Appends are deduplicated against the surviving shard contents: a
    // rederived triple shows up in the maintained log's new tail but never
    // left the shard (it is not among the removals), so a blind append
    // would double it.
    rdf::TripleSet present;
    for (const rdf::Triple& t : list) {
      present.insert(t);
    }
    for (const rdf::Triple& t : appends[p]) {
      if (present.insert(t)) {
        list.push_back(t);
      }
    }
    shards_[p].version += 1;
    encode_shard(p, plain_[p]);
  }
  return touched;
}

std::uint64_t ShardCatalog::encoded_bytes() const {
  std::uint64_t total = 0;
  for (const EncodedShard& s : shards_) {
    total += s.bytes.size();
  }
  return total;
}

void ShardCatalog::encode_shard(std::uint32_t p,
                                std::span<const rdf::Triple> triples) {
  EncodedShard& shard = shards_[p];
  shard.triple_count = triples.size();
  shard.bytes.clear();
  shard.bytes.append(kMagic, sizeof(kMagic));
  rdf::codec::put_varint(shard.bytes, shard.partition);
  rdf::codec::put_varint(shard.bytes, shard.version);
  rdf::codec::put_varint(shard.bytes, shard.triple_count);
  for (std::size_t begin = 0; begin < triples.size();
       begin += rdf::codec::kBlockTriples) {
    const std::size_t n =
        std::min(rdf::codec::kBlockTriples, triples.size() - begin);
    rdf::codec::encode_block(triples.subspan(begin, n), shard.bytes);
  }
}

bool ShardCatalog::decode(const EncodedShard& shard,
                          std::vector<rdf::Triple>& out, std::string* error) {
  std::string_view in = shard.bytes;
  if (in.size() < sizeof(kMagic) ||
      in.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    if (error) {
      *error = "shard: bad magic";
    }
    return false;
  }
  in.remove_prefix(sizeof(kMagic));
  std::uint64_t partition = 0;
  std::uint64_t version = 0;
  std::uint64_t count = 0;
  if (!rdf::codec::get_varint(in, partition) ||
      !rdf::codec::get_varint(in, version) ||
      !rdf::codec::get_varint(in, count)) {
    if (error) {
      *error = "shard: truncated header";
    }
    return false;
  }
  if (partition != shard.partition || version != shard.version) {
    if (error) {
      *error = "shard: header/catalog mismatch";
    }
    return false;
  }
  out.clear();
  out.reserve(count);
  while (out.size() < count) {
    if (!rdf::codec::decode_block(in, out, error)) {
      return false;
    }
  }
  if (out.size() != count) {
    if (error) {
      *error = "shard: triple count mismatch";
    }
    return false;
  }
  return true;
}

}  // namespace parowl::dist
