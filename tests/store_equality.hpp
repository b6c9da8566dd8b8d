#pragma once

// Structural equality of two triple stores through every public accessor,
// shared by the store's unit tests and the maintenance oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "parowl/rdf/triple_store.hpp"

namespace parowl::rdf {

/// A fresh store holding `log`, inserted in order.
inline TripleStore rebuilt_from_log(std::span<const Triple> log) {
  TripleStore fresh;
  fresh.insert_all(log);
  return fresh;
}

/// A fresh store holding `store`'s log, inserted in order.
inline TripleStore rebuilt_from_log(const TripleStore& store) {
  return rebuilt_from_log(store.triples());
}

/// Every observable index of `got` equals that of `want`: the log, the
/// size, the predicate order, every predicate's triple list, every
/// (p,s) -> objects and (p,o) -> subjects posting list in order, every
/// for_subject / for_object walk, and contains().  The keys probed are
/// those of `want`'s log plus those of `probes` (for instance triples
/// erased from `got`, whose keys must now read empty).
inline void expect_same_store(const TripleStore& got, const TripleStore& want,
                              const std::string& label,
                              std::span<const Triple> probes = {}) {
  ASSERT_EQ(got.triples(), want.triples()) << label << " (log order)";
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.predicates(), want.predicates()) << label;

  std::vector<Triple> keys = want.triples();
  keys.insert(keys.end(), probes.begin(), probes.end());
  std::set<TermId> predicates;
  std::set<TermId> subjects;
  std::set<TermId> objects;
  std::set<std::pair<TermId, TermId>> ps;
  std::set<std::pair<TermId, TermId>> po;
  for (const Triple& t : keys) {
    EXPECT_EQ(got.contains(t), want.contains(t))
        << label << " contains(" << t.s << ", " << t.p << ", " << t.o << ")";
    predicates.insert(t.p);
    subjects.insert(t.s);
    objects.insert(t.o);
    ps.emplace(t.p, t.s);
    po.emplace(t.p, t.o);
  }
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (const TermId p : predicates) {
    EXPECT_TRUE(same(got.with_predicate(p), want.with_predicate(p)))
        << label << " with_predicate " << p;
  }
  for (const auto& [p, s] : ps) {
    EXPECT_TRUE(same(got.objects(p, s), want.objects(p, s)))
        << label << " objects(" << p << ", " << s << ")";
  }
  for (const auto& [p, o] : po) {
    EXPECT_TRUE(same(got.subjects(p, o), want.subjects(p, o)))
        << label << " subjects(" << p << ", " << o << ")";
  }
  const auto walk = [](const TripleStore& store, TermId id, bool subject) {
    std::vector<Triple> out;
    const auto collect = [&out](const Triple& t) { out.push_back(t); };
    if (subject) {
      store.for_subject(id, collect);
    } else {
      store.for_object(id, collect);
    }
    return out;
  };
  for (const TermId s : subjects) {
    EXPECT_EQ(walk(got, s, true), walk(want, s, true))
        << label << " for_subject " << s;
  }
  for (const TermId o : objects) {
    EXPECT_EQ(walk(got, o, false), walk(want, o, false))
        << label << " for_object " << o;
  }
}

}  // namespace parowl::rdf
