#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/term.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/rules/rule.hpp"

namespace parowl::reason {

/// The role a rule plays for a symmetric-transitive predicate p.
enum class CliqueRole : std::uint8_t {
  kNone,
  kSymmetric,   // (?a p ?b) -> (?b p ?a)
  kTransitive,  // (?a p ?b) (?b p ?c) -> (?a p ?c)
};

/// A constant predicate whose rule set holds both a symmetric and a
/// transitive rule (compiled rdfp3+rdfp4, or rdfp6+rdfp7 for owl:sameAs).
struct CliquePredicate {
  rdf::TermId predicate = rdf::kAnyTerm;
  std::uint32_t transitive_rule = 0;  // credited with the operator's output
};

/// Rule-shape analysis: every clique predicate of `rules` (in first-rule
/// order) and, per rule, its role — kNone for every rule of a predicate that
/// lacks either half.  `middle_var[r]` is the shared variable of a
/// transitive rule r.
struct CliqueAnalysis {
  std::vector<CliquePredicate> predicates;
  std::vector<CliqueRole> roles;
  std::vector<std::int8_t> middle_var;
};

[[nodiscard]] CliqueAnalysis analyze_cliques(const rules::RuleSet& rules);

/// What a cluster worker owns: the owner table of the data partitioning
/// and the worker's id.  Terms absent from the table are owned by nobody.
struct CliqueOwners {
  const std::unordered_map<rdf::TermId, std::uint32_t>* owners = nullptr;
  std::uint32_t self = 0;
};

/// The union-find of one symmetric-transitive predicate p over its
/// resource endpoints.  Under p's two rules and the literal guard, the
/// resources a component joins derive every pair among themselves plus an
/// edge to every literal any of them points at ("sinks"), so the component
/// stands for members x (members u sinks).
///
/// The literal rules mirror the generic joins exactly:
///   * (x p L) attaches L to x's component;
///   * (L p x) attaches L and makes x's component reflexive ((x p x)
///     follows through the literal);
///   * a component stays non-reflexive, and stands for nothing, while it is
///     a single resource seen only through (x p L) edges or none;
///   * literal-literal edges are ignored, and a literal never becomes a
///     member, so no pair it stands for has a literal subject.
/// With no dictionary every term counts as a resource.
class CliqueForest {
 public:
  static constexpr std::uint32_t kNoNode =
      std::numeric_limits<std::uint32_t>::max();

  /// Per-root state; members and sinks merge small-into-large.
  struct Component {
    std::vector<rdf::TermId> members;
    std::vector<rdf::TermId> sinks;  // distinct literals
    bool reflexive = false;          // member pairs are derivable
    std::size_t closed_size = 0;  // size() when last closed; 0 = never
    std::uint64_t visited = 0;    // CliqueForests' pass mark

    [[nodiscard]] std::size_t size() const {
      return members.size() + sinks.size() + (reflexive ? 1 : 0);
    }
  };

  explicit CliqueForest(const rdf::Dictionary* dict = nullptr) : dict_(dict) {}

  /// Fold one p-triple.  Returns true iff the forest changed: two
  /// components merged, a component became reflexive, or a literal became
  /// a new sink of one.  A triple that changes nothing stands for a pair
  /// the forest already implies.
  bool add(const rdf::Triple& t);

  /// The node the last add() touched (the resource endpoint, the subject
  /// when both are resources), or kNoNode after a literal-literal edge.
  [[nodiscard]] std::uint32_t last_node() const { return last_; }

  /// The component `node` belongs to.
  [[nodiscard]] Component& component(std::uint32_t node) {
    return comps_[find(node)];
  }

  /// Close the component of `node` as predicate `p`: append to `out` each
  /// pair it stands for that `owners` keeps and `store` lacks, unless it is
  /// not reflexive or was closed at its current size already.  With no
  /// owner table every pair is kept; with one, the pairs with an endpoint
  /// owned by `owners.self`, and those whose endpoints nobody owns.  Rows
  /// follow the member order and columns the members, then the sorted
  /// sinks.  Returns the number of pairs checked.
  std::size_t close(std::uint32_t node, rdf::TermId p,
                    const rdf::TripleStore& store,
                    std::vector<rdf::Triple>& out, CliqueOwners owners = {});

  void clear();

 private:
  [[nodiscard]] bool is_literal(rdf::TermId id) const {
    return dict_ != nullptr && dict_->kind(id) == rdf::TermKind::kLiteral;
  }
  std::uint32_t node(rdf::TermId term);
  std::uint32_t find(std::uint32_t n);
  /// Union the components of `a` and `b`; both end up reflexive.  Returns
  /// true iff that changed anything.
  bool unite(std::uint32_t a, std::uint32_t b);
  /// Attach literal `lit` to root `root`; true iff it was not a sink yet.
  bool attach(std::uint32_t root, rdf::TermId lit);

  /// The terms of `terms` an owner filter keeps as columns: `here` for a
  /// row owned elsewhere, `near` (owned here or by nobody) for an unowned
  /// row.  Scratch of close().
  struct Kept {
    std::vector<rdf::TermId> here;
    std::vector<rdf::TermId> near;
  };
  static void keep(std::span<const rdf::TermId> terms, CliqueOwners owners,
                   Kept& kept);

  const rdf::Dictionary* dict_;
  rdf::IdMap<std::uint32_t> node_of_;  // term -> node index + 1
  std::vector<std::uint32_t> parent_;
  std::vector<Component> comps_;  // meaningful at roots
  /// (root + 1, 1, literal) for every sink of every root: a sink is added
  /// once.  A merged-away root's keys go stale and are never probed again.
  rdf::TripleSet sink_keys_;
  std::uint32_t last_ = kNoNode;
  Kept members_;
  Kept sinks_;
};

/// One CliqueForest per clique predicate, plus the queue of components
/// that triples folded since the last close_touched() touched.  The forward
/// engine's clique operator and a cluster worker both close through it.
class CliqueForests {
 public:
  CliqueForests(std::span<const CliquePredicate> predicates,
                const rdf::Dictionary* dict);

  [[nodiscard]] std::span<const CliquePredicate> predicates() const {
    return preds_;
  }

  /// Whether `p` is one of the clique predicates.
  [[nodiscard]] bool holds(rdf::TermId p) const {
    return slot_of_.find(p) != nullptr;
  }

  /// Fold `t` into its predicate's forest (other triples are ignored) and
  /// queue the component it touched.  Returns CliqueForest::add's result.
  bool fold(const rdf::Triple& t);

  /// Forget the queue (the folds so far need no close).
  void drop_touched() { touched_.clear(); }

  /// Close each queued component once, in order of first touch, and empty
  /// the queue: CliqueForest::close with `owners` appends the pairs to
  /// `out`, their crediting transitive rule to `rules`, and counts every
  /// checked pair as an attempt of that rule in `attempts_per_rule` (sized
  /// past it).  Returns the number of components visited.
  std::size_t close_touched(const rdf::TripleStore& store,
                            std::vector<rdf::Triple>& out,
                            std::vector<std::uint32_t>& rules,
                            std::vector<std::size_t>& attempts_per_rule,
                            CliqueOwners owners = {});

  /// Empty every forest and the queue.
  void clear();

 private:
  std::vector<CliquePredicate> preds_;
  std::vector<CliqueForest> forests_;     // parallel to preds_
  rdf::IdMap<std::uint32_t> slot_of_;     // predicate -> index + 1
  /// (forest, node) per fold, in fold order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched_;
  std::uint64_t pass_ = 0;  // close_touched() calls, for Component::visited
};

}  // namespace parowl::reason
