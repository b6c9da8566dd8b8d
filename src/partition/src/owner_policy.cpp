#include "parowl/partition/owner_policy.hpp"

#include <algorithm>

#include "parowl/util/strings.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::partition {

PartitionPlan OwnerPolicy::plan(std::span<const rdf::Triple> instance_triples,
                                const rdf::Dictionary& dict,
                                std::uint32_t num_partitions,
                                const ExcludedTerms* exclude) const {
  const std::unique_ptr<Partitioner> partitioner =
      create(dict, num_partitions, exclude);
  partitioner->ingest(instance_triples);
  return partitioner->finalize();
}

OwnerTable OwnerPolicy::assign(std::span<const rdf::Triple> instance_triples,
                               const rdf::Dictionary& dict,
                               std::uint32_t num_partitions,
                               const ExcludedTerms* exclude) const {
  return plan(instance_triples, dict, num_partitions, exclude).owners;
}

// --- PointwisePartitioner ---

PointwisePartitioner::PointwisePartitioner(OwnerFn owner_of,
                                           std::string algorithm,
                                           const rdf::Dictionary& dict,
                                           std::uint32_t num_partitions,
                                           const ExcludedTerms* exclude)
    : owner_of_(std::move(owner_of)),
      algorithm_(std::move(algorithm)),
      dict_(&dict),
      exclude_(exclude),
      k_(num_partitions) {
  loads_.assign(k_, 0);
  if (k_ <= 64) {
    cut_matrix_.assign(static_cast<std::size_t>(k_) * k_, 0);
  }
}

PointwisePartitioner::Node* PointwisePartitioner::touch(rdf::TermId term) {
  if (exclude_ != nullptr && exclude_->contains(term)) {
    return nullptr;
  }
  const auto [it, fresh] = nodes_.try_emplace(term);
  if (fresh) {
    it->second.owner = owner_of_(term, dict_->lexical(term));
    if (k_ <= 64) {
      it->second.mask = std::uint64_t{1} << it->second.owner;
    }
    ++loads_[it->second.owner];
  }
  return &it->second;
}

void PointwisePartitioner::ingest(std::span<const rdf::Triple> chunk) {
  util::Stopwatch watch;
  for (const rdf::Triple& t : chunk) {
    ++triples_ingested_;
    Node* s = touch(t.s);
    Node* o = dict_->is_resource(t.o) && t.o != t.s ? touch(t.o) : nullptr;
    if (s != nullptr && o != nullptr && k_ <= 64) {
      s->mask |= std::uint64_t{1} << o->owner;
      o->mask |= std::uint64_t{1} << s->owner;
      if (s->owner != o->owner) {
        const auto lo = std::min(s->owner, o->owner);
        const auto hi = std::max(s->owner, o->owner);
        ++cut_matrix_[static_cast<std::size_t>(lo) * k_ + hi];
      }
    }
  }
  peak_state_ = std::max(peak_state_, nodes_.size());
  ingest_seconds_ += watch.elapsed_seconds();
}

PartitionPlan PointwisePartitioner::finalize() {
  util::Stopwatch watch;
  PartitionPlan plan;
  plan.partitions = k_;
  plan.algorithm = algorithm_;
  plan.triples_ingested = triples_ingested_;
  plan.peak_state_entries = peak_state_ + cut_matrix_.size() + k_;
  plan.owners.reserve(nodes_.size());
  for (const auto& [term, node] : nodes_) {
    plan.owners.emplace(term, node.owner);
  }
  if (k_ <= 64) {
    std::vector<std::uint64_t> masks;
    masks.reserve(nodes_.size());
    for (const auto& [term, node] : nodes_) {
      masks.push_back(node.mask);
    }
    std::uint64_t cut = 0;
    for (const std::uint64_t c : cut_matrix_) {
      cut += c;
    }
    plan.metrics = metrics_from_replica_masks(masks, loads_, cut);
  } else {
    plan.metrics.partition_weights = loads_;
    plan.metrics.total_nodes = nodes_.size();
  }
  plan.partition_seconds = ingest_seconds_ + watch.elapsed_seconds();
  return plan;
}

// --- policies ---

std::unique_ptr<Partitioner> GraphOwnerPolicy::create(
    const rdf::Dictionary& dict, std::uint32_t num_partitions,
    const ExcludedTerms* exclude) const {
  return make_partitioner(options_, dict, num_partitions, exclude);
}

StreamingOwnerPolicy::StreamingOwnerPolicy(PartitionerOptions options,
                                           std::string label)
    : options_(options), label_(std::move(label)) {
  if (label_.empty()) {
    switch (options_.kind) {
      case PartitionerKind::kHdrf:
        label_ = "HDRF";
        break;
      case PartitionerKind::kNe:
        label_ = "NE";
        break;
      case PartitionerKind::kMultilevel:
        label_ = "Multilevel";
        break;
    }
  }
}

std::unique_ptr<Partitioner> StreamingOwnerPolicy::create(
    const rdf::Dictionary& dict, std::uint32_t num_partitions,
    const ExcludedTerms* exclude) const {
  return make_partitioner(options_, dict, num_partitions, exclude);
}

std::uint32_t HashOwnerPolicy::owner_of(std::string_view lexical,
                                        std::uint32_t num_partitions) const {
  return static_cast<std::uint32_t>(
      util::mix64(util::fnv1a64(lexical) ^ salt_) % num_partitions);
}

std::unique_ptr<Partitioner> HashOwnerPolicy::create(
    const rdf::Dictionary& dict, std::uint32_t num_partitions,
    const ExcludedTerms* exclude) const {
  const std::uint64_t salt = salt_;
  return std::make_unique<PointwisePartitioner>(
      [salt, num_partitions](rdf::TermId, std::string_view lexical) {
        return static_cast<std::uint32_t>(
            util::mix64(util::fnv1a64(lexical) ^ salt) % num_partitions);
      },
      "hash", dict, num_partitions, exclude);
}

std::unique_ptr<Partitioner> DomainOwnerPolicy::create(
    const rdf::Dictionary& dict, std::uint32_t num_partitions,
    const ExcludedTerms* exclude) const {
  // Locality keys are mapped to partitions round-robin in first-seen order;
  // the map is the partitioner's own state, fresh per run.
  auto key_partition =
      std::make_shared<std::unordered_map<std::int64_t, std::uint32_t>>();
  const KeyExtractor extractor = extractor_;
  return std::make_unique<PointwisePartitioner>(
      [key_partition, extractor, num_partitions](
          rdf::TermId, std::string_view lexical) -> std::uint32_t {
        const std::int64_t key = extractor(lexical);
        if (key == kNoKey) {
          return static_cast<std::uint32_t>(
              util::mix64(util::fnv1a64(lexical)) % num_partitions);
        }
        const auto [it, fresh] = key_partition->try_emplace(
            key, static_cast<std::uint32_t>(key_partition->size() %
                                            num_partitions));
        return it->second;
      },
      "domain", dict, num_partitions, exclude);
}

std::int64_t lubm_university_key(std::string_view iri) {
  // Matches "...UnivN.edu..." anywhere in the authority; N is the key.
  const auto pos = iri.find("Univ");
  if (pos == std::string_view::npos) {
    return DomainOwnerPolicy::kNoKey;
  }
  std::size_t i = pos + 4;
  if (i >= iri.size() || iri[i] < '0' || iri[i] > '9') {
    return DomainOwnerPolicy::kNoKey;
  }
  std::int64_t value = 0;
  while (i < iri.size() && iri[i] >= '0' && iri[i] <= '9') {
    value = value * 10 + (iri[i] - '0');
    ++i;
  }
  return value;
}

}  // namespace parowl::partition
