#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/clique.hpp"

namespace parowl::reason {

/// Union-find closure of symmetric-transitive predicates: one forest per
/// clique predicate over its resource endpoints.  Under those two rules and
/// the literal guard, the resources a component joins derive every pair
/// among themselves plus an edge to every literal any of them points at
/// ("sinks"), so a component is closed by emitting
/// members x (members u sinks) once, instead of re-joining every pair
/// through every intermediate member.
///
/// The literal rules mirror the generic joins exactly:
///   * (x p L) attaches L to x's component;
///   * (L p x) attaches L and makes x's component reflexive ((x p x)
///     follows through the literal);
///   * a component stays non-reflexive, and emits nothing, while it is a
///     single resource seen only through (x p L) edges or none;
///   * literal-literal edges are ignored, and a literal never becomes a
///     member, so no emitted triple has a literal subject.
/// Transitive instances whose middle term is a literal — the only way a
/// literal connects two resources — stay with the generic join (the engine
/// fires the transitive rule for those bindings alone).  With no
/// dictionary every term counts as a resource.
class CliqueClosure {
 public:
  CliqueClosure(std::span<const CliquePredicate> predicates,
                const rdf::Dictionary* dict);

  /// Rebuild every forest from the store's clique-predicate triples and
  /// forget which components this run closed.  O(clique-predicate triples).
  void rebuild(const rdf::TripleStore& store);

  /// Union the clique-predicate triples of the frontier — log range
  /// [lo, store.size()) — into their forests, then close each component
  /// they touch, in order of first touch, unless this run already closed
  /// it at its current size.  The frontier is not scanned when it cannot
  /// hold a clique-predicate triple: none arrived since the last scan or,
  /// right after rebuild(), the store holds none.  New triples (absent from
  /// the store) are appended to `out` with their crediting rule in `rules`,
  /// and every checked pair counts as an attempt of that rule in
  /// `attempts_per_rule`; the output depends only on the store and `lo`,
  /// never on thread count.  Returns the number of components visited.
  std::size_t close_round(const rdf::TripleStore& store, std::size_t lo,
                         std::vector<rdf::Triple>& out,
                         std::vector<std::uint32_t>& rules,
                         std::vector<std::size_t>& attempts_per_rule);

 private:
  /// Per-root state; members and sinks merge small-into-large.
  struct Component {
    std::vector<rdf::TermId> members;
    std::vector<rdf::TermId> sinks;  // may hold duplicates until closed
    bool reflexive = false;          // member pairs are derivable
    std::size_t closed_size = 0;     // size() when last closed; 0 = never
    std::uint64_t visited = 0;       // round of the last visit
  };

  struct Forest {
    CliquePredicate pred;
    std::size_t absorbed = 0;  // with_predicate(p) entries folded in
    rdf::IdMap<std::uint32_t> node_of;  // term -> node index + 1
    std::vector<std::uint32_t> parent;
    std::vector<Component> comps;  // meaningful at roots
  };

  static std::size_t size_of(const Component& c) {
    return c.members.size() + c.sinks.size() + (c.reflexive ? 1 : 0);
  }

  [[nodiscard]] bool is_literal(rdf::TermId id) const;
  std::uint32_t node(Forest& f, rdf::TermId term);
  static std::uint32_t find(Forest& f, std::uint32_t n);
  static void unite(Forest& f, std::uint32_t a, std::uint32_t b);

  /// Fold one p-triple into forest `f`; returns the node it touched, or
  /// UINT32_MAX for a literal-literal edge.
  std::uint32_t add_edge(Forest& f, const rdf::Triple& t);

  const rdf::Dictionary* dict_;
  std::vector<Forest> forests_;
  rdf::IdMap<std::uint32_t> forest_of_;  // predicate -> forest index + 1
  std::uint64_t round_ = 0;
  bool scan_next_ = false;  // rebuild() found triples the frontier may hold
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched_;
};

}  // namespace parowl::reason
