#include "parowl/parallel/router.hpp"

namespace parowl::parallel {
namespace {

/// The distinct owners of `t`'s subject and object, subject first; terms
/// absent from the table contribute none.  Returns how many were written.
std::size_t endpoint_owners(const partition::OwnerTable& owners,
                            const rdf::Triple& t, std::uint32_t (&out)[2]) {
  std::size_t n = 0;
  if (const auto it = owners.find(t.s); it != owners.end()) {
    out[n++] = it->second;
  }
  if (const auto it = owners.find(t.o); it != owners.end()) {
    if (n == 0 || out[0] != it->second) {
      out[n++] = it->second;
    }
  }
  return n;
}

std::vector<RulePartition> index_parts(
    const std::vector<rules::RuleSet>& rule_parts) {
  std::vector<RulePartition> parts;
  parts.reserve(rule_parts.size());
  for (const rules::RuleSet& rule_set : rule_parts) {
    parts.emplace_back(rule_set);
  }
  return parts;
}

}  // namespace

void OwnerRouter::route(const rdf::Triple& t, std::uint32_t self,
                        std::vector<std::uint32_t>& out) const {
  std::uint32_t owners[2];
  const std::size_t n = endpoint_owners(owners_, t, owners);
  for (std::size_t i = 0; i < n; ++i) {
    if (owners[i] != self) {
      out.push_back(owners[i]);
    }
  }
}

RuleMatchRouter::RuleMatchRouter(
    const std::vector<rules::RuleSet>& partition_rules)
    : parts_(index_parts(partition_rules)) {}

void RuleMatchRouter::route(const rdf::Triple& t, std::uint32_t self,
                            std::vector<std::uint32_t>& out) const {
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    if (p != self && parts_[p].triggered_by(t)) {
      out.push_back(p);
    }
  }
}

HybridRouter::HybridRouter(partition::OwnerTable owners,
                           const std::vector<rules::RuleSet>& rule_parts)
    : owners_(std::move(owners)), parts_(index_parts(rule_parts)) {}

void HybridRouter::route(const rdf::Triple& t, std::uint32_t self,
                         std::vector<std::uint32_t>& out) const {
  std::uint32_t data_parts[2];
  const std::size_t num_data = endpoint_owners(owners_, t, data_parts);
  for (std::uint32_t j = 0; j < parts_.size(); ++j) {
    if (!parts_[j].triggered_by(t)) {
      continue;
    }
    for (std::size_t i = 0; i < num_data; ++i) {
      const std::uint32_t dest = data_parts[i] * rule_parts() + j;
      if (dest != self) {
        out.push_back(dest);
      }
    }
  }
}

}  // namespace parowl::parallel
