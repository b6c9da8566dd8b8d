#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "parowl/partition/owner_policy.hpp"
#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"
#include "parowl/rules/match.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::parallel {

/// Decides which partitions a freshly derived tuple must be shipped to
/// (Algorithm 3 step 4).  Implementations are shared read-only between all
/// workers and must be thread-safe after construction.
///
/// Naming note — this is the *derivation* router of the materialization
/// plane (write path, runs while the closure is being computed).  Its
/// serving-plane counterpart is dist::QueryRouter, which routes *scan
/// requests* from the query front end to shard replicas at serve time.
/// See docs/architecture.md "Distributed serving" for the side-by-side.
class Router {
 public:
  virtual ~Router() = default;

  /// Append the destinations for `t` (excluding `self`) to `out`; `out` is
  /// not cleared.  Destinations must be distinct.
  virtual void route(const rdf::Triple& t, std::uint32_t self,
                     std::vector<std::uint32_t>& out) const = 0;
};

/// Data-partitioning router: a tuple goes to the owner of its subject and
/// the owner of its object (when owned).  Nodes absent from the owner table
/// (terms that only occur in the schema, literals) contribute no
/// destination.
class OwnerRouter final : public Router {
 public:
  explicit OwnerRouter(partition::OwnerTable owners)
      : owners_(std::move(owners)) {}

  void route(const rdf::Triple& t, std::uint32_t self,
             std::vector<std::uint32_t>& out) const override;

  [[nodiscard]] const partition::OwnerTable& owners() const {
    return owners_;
  }

 private:
  partition::OwnerTable owners_;
};

/// The rule subset of one partition with its dispatch index: a tuple
/// triggers the partition iff it binds one of the index's candidates, the
/// decision the forward engine makes when it matches the tuple.
struct RulePartition {
  explicit RulePartition(rules::RuleSet rule_set)
      : rules(std::move(rule_set)), index(rules) {}

  [[nodiscard]] bool triggered_by(const rdf::Triple& t) const {
    return index.triggers(rules, t);
  }

  rules::RuleSet rules;
  rules::DispatchIndex index;
};

/// Rule-partitioning router: a tuple goes to every partition holding a rule
/// with a body atom the tuple can trigger (§IV: "we match the newly
/// generated [tuple] with all the rules of other partitions").
class RuleMatchRouter final : public Router {
 public:
  /// `partition_rules[p]` is the rule subset of partition p.
  explicit RuleMatchRouter(
      const std::vector<rules::RuleSet>& partition_rules);

  void route(const rdf::Triple& t, std::uint32_t self,
             std::vector<std::uint32_t>& out) const override;

 private:
  std::vector<RulePartition> parts_;
};

/// Hybrid router: workers form a (data x rule) grid; worker id =
/// d * rule_parts + j holds data partition d and rule partition j.  A tuple
/// travels to every grid cell whose data partition owns one of its
/// endpoints and whose rule partition it can trigger.
class HybridRouter final : public Router {
 public:
  HybridRouter(partition::OwnerTable owners,
               const std::vector<rules::RuleSet>& rule_parts);

  void route(const rdf::Triple& t, std::uint32_t self,
             std::vector<std::uint32_t>& out) const override;

  [[nodiscard]] std::uint32_t rule_parts() const {
    return static_cast<std::uint32_t>(parts_.size());
  }

 private:
  partition::OwnerTable owners_;
  std::vector<RulePartition> parts_;
};

}  // namespace parowl::parallel
