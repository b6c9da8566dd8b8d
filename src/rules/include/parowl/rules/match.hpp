#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/rules/rule.hpp"

// The one rule matcher every consumer of a rule set shares: the forward
// engine, DRed maintenance, the explainer, BGP queries and the rule
// routers.  In Rete's terms the dispatch index is the alpha network (which
// body atoms can a tuple bind) and join_body the beta join (the remaining
// atoms against the store).  Callbacks are template parameters, so nothing
// goes through std::function.

namespace parowl::rules {

/// One body atom usable as the entry point of a rule firing: atom `pivot`
/// of rule `rule` in the indexed rule set.
struct PivotRef {
  std::uint32_t rule = 0;
  std::uint32_t pivot = 0;

  friend bool operator==(const PivotRef&, const PivotRef&) = default;
  friend auto operator<=>(const PivotRef&, const PivotRef&) = default;
};

/// Every (rule, pivot) pair of a rule set, keyed by the pivot atom's
/// predicate.  A pivot with a constant predicate c can only bind triples
/// with predicate c; a pivot whose predicate is a variable (the sameAs
/// family) can bind anything and is merged into every predicate's list.
/// Within a predicate, pivots with a constant object are discriminated a
/// second time on that constant (Rete-style alpha discrimination): a pivot
/// like (?x rdf:type Student) only ever binds triples whose object is
/// Student, so type triples skip every other class's rules.
class DispatchIndex {
 public:
  DispatchIndex() = default;
  explicit DispatchIndex(const RuleSet& rules);

  /// Invoke `fn(PivotRef)` for every pair whose pivot could bind `t`, in
  /// ascending (rule, pivot) order: exactly the order a scan of every pair
  /// visits the ones that bind.  A candidate may still fail to bind (a
  /// constant subject, a repeated variable); callers bind_atom it.
  template <typename Fn>
  void for_each_candidate(const rdf::Triple& t, Fn&& fn) const {
    const std::uint32_t* slot = bucket_slot_.find(t.p);
    if (slot == nullptr) {
      // Predicate absent from the rule set: only wildcard pivots can bind.
      for (const PivotRef ref : wildcard_) {
        fn(ref);
      }
      return;
    }
    const Bucket& bucket = buckets_[*slot - 1];
    const std::uint32_t* oslot = bucket.object_slot.find(t.o);
    if (oslot == nullptr) {
      for (const PivotRef ref : bucket.generic) {
        fn(ref);
      }
      return;
    }
    // Ordered merge of the generic pivots and this object's pivots.
    const std::vector<PivotRef>& exact = bucket.by_object[*oslot - 1];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < bucket.generic.size() || j < exact.size()) {
      const bool take_generic =
          j == exact.size() ||
          (i < bucket.generic.size() && bucket.generic[i] < exact[j]);
      fn(take_generic ? bucket.generic[i++] : exact[j++]);
    }
  }

  /// True iff `t` binds a body atom of `rules`, the rule set this index was
  /// built from: `t` can trigger one of its rules.
  [[nodiscard]] bool triggers(const RuleSet& rules, const rdf::Triple& t) const;

 private:
  /// One predicate's pivots.  `generic` holds those with a variable object
  /// (merged with the wildcard-predicate pivots); `by_object` those with a
  /// constant object, keyed by it.  Every list is in (rule, pivot) order.
  struct Bucket {
    std::vector<PivotRef> generic;
    rdf::IdMap<std::uint32_t> object_slot;  // object const -> index + 1
    std::vector<std::vector<PivotRef>> by_object;
  };

  rdf::IdMap<std::uint32_t> bucket_slot_;  // predicate -> index + 1
  std::vector<Bucket> buckets_;
  std::vector<PivotRef> wildcard_;  // variable-predicate pivots
};

/// Join the atoms of `body` not in `done_mask` against `store`, the most
/// bound atom first (most_bound_atom), extending `binding`, and invoke
/// `fn()` at every complete binding.  `fn` returns false to stop the join.
/// Returns false iff it was stopped.  `binding` is as it was on return.
template <typename Fn>
bool join_body(const rdf::TripleStore& store, std::span<const Atom> body,
               unsigned done_mask, Binding& binding, Fn&& fn) {
  if (done_mask == (1u << body.size()) - 1) {
    return fn();
  }
  const std::size_t best = most_bound_atom(body, done_mask, binding);
  assert(best < body.size());
  const Atom& atom = body[best];
  bool keep_going = true;
  store.match(to_pattern(atom, binding), [&](const rdf::Triple& t) {
    if (!keep_going) {
      return;
    }
    const Binding saved = binding;
    if (bind_atom(atom, t, binding)) {
      keep_going =
          join_body(store, body, done_mask | (1u << best), binding, fn);
    }
    binding = saved;
  });
  return keep_going;
}

/// `atom` under a binding that binds every one of its variables (a head or
/// body atom once the join is complete: range restriction).
[[nodiscard]] inline rdf::Triple ground(const Atom& atom,
                                        const Binding& binding) {
  const rdf::TriplePattern p = to_pattern(atom, binding);
  assert(p.s != rdf::kAnyTerm && p.p != rdf::kAnyTerm && p.o != rdf::kAnyTerm);
  return {p.s, p.p, p.o};
}

}  // namespace parowl::rules
