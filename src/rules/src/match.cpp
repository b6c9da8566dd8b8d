#include "parowl/rules/match.hpp"

#include <algorithm>

namespace parowl::rules {

DispatchIndex::DispatchIndex(const RuleSet& rules) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const std::vector<Atom>& body = rules[r].body;
    for (std::size_t b = 0; b < body.size(); ++b) {
      const PivotRef ref{static_cast<std::uint32_t>(r),
                         static_cast<std::uint32_t>(b)};
      const Atom& atom = body[b];
      if (atom.p.is_var()) {
        wildcard_.push_back(ref);
        continue;
      }
      std::uint32_t& slot = bucket_slot_[atom.p.const_id()];
      if (slot == 0) {
        buckets_.emplace_back();
        slot = static_cast<std::uint32_t>(buckets_.size());
      }
      Bucket& bucket = buckets_[slot - 1];
      if (atom.o.is_var()) {
        bucket.generic.push_back(ref);
      } else {
        std::uint32_t& oslot = bucket.object_slot[atom.o.const_id()];
        if (oslot == 0) {
          bucket.by_object.emplace_back();
          oslot = static_cast<std::uint32_t>(bucket.by_object.size());
        }
        bucket.by_object[oslot - 1].push_back(ref);
      }
    }
  }
  // Wildcard-predicate pivots can bind any triple: merge them into every
  // bucket's generic list, restoring (rule, pivot) order.
  if (!wildcard_.empty()) {
    for (Bucket& bucket : buckets_) {
      bucket.generic.insert(bucket.generic.end(), wildcard_.begin(),
                            wildcard_.end());
      std::sort(bucket.generic.begin(), bucket.generic.end());
    }
  }
}

bool DispatchIndex::triggers(const RuleSet& rules,
                             const rdf::Triple& t) const {
  bool found = false;
  for_each_candidate(t, [&](const PivotRef ref) {
    Binding binding{};
    found = found || bind_atom(rules[ref.rule].body[ref.pivot], t, binding);
  });
  return found;
}

}  // namespace parowl::rules
