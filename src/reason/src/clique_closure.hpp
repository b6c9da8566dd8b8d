#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/reason/clique.hpp"

namespace parowl::reason {

/// Union-find closure of symmetric-transitive predicates over one store,
/// round by round, through CliqueForests.  A component is closed by
/// emitting the pairs it stands for once, members x (members u sinks),
/// instead of re-joining every pair through every intermediate member.
/// Transitive instances whose middle term is a literal — the only way a
/// literal connects two resources — stay with the generic join (the engine
/// fires the transitive rule for those bindings alone).
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
  CliqueForests forests_;
  /// with_predicate(p) entries folded in, per predicate.
  std::vector<std::size_t> absorbed_;
  bool scan_next_ = false;  // rebuild() found triples the frontier may hold
};

}  // namespace parowl::reason
