#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/graph_stats.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "parowl/util/rng.hpp"
#include "parowl/util/thread_team.hpp"
#include "store_equality.hpp"

namespace parowl::rdf {
namespace {

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  const TermId a = d.intern_iri("http://ex/a");
  const TermId b = d.intern_iri("http://ex/a");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
}

TEST(Dictionary, IdsStartAtOne) {
  Dictionary d;
  EXPECT_EQ(d.intern_iri("x"), 1u);
  EXPECT_EQ(d.intern_iri("y"), 2u);
}

TEST(Dictionary, KindDistinguishesSameLexical) {
  Dictionary d;
  const TermId iri = d.intern_iri("x");
  const TermId blank = d.intern_blank("x");
  const TermId lit = d.intern_literal("x");
  EXPECT_NE(iri, blank);
  EXPECT_NE(iri, lit);
  EXPECT_NE(blank, lit);
  EXPECT_EQ(d.kind(iri), TermKind::kIri);
  EXPECT_EQ(d.kind(blank), TermKind::kBlank);
  EXPECT_EQ(d.kind(lit), TermKind::kLiteral);
}

TEST(Dictionary, FindReturnsZeroForAbsent) {
  Dictionary d;
  EXPECT_EQ(d.find_iri("nope"), kAnyTerm);
  d.intern_iri("yes");
  EXPECT_NE(d.find_iri("yes"), kAnyTerm);
}

TEST(Dictionary, LexicalRoundTrips) {
  Dictionary d;
  const TermId a = d.intern_iri("http://ex/thing");
  EXPECT_EQ(d.lexical(a), "http://ex/thing");
}

TEST(Dictionary, IsResource) {
  Dictionary d;
  EXPECT_TRUE(d.is_resource(d.intern_iri("i")));
  EXPECT_TRUE(d.is_resource(d.intern_blank("b")));
  EXPECT_FALSE(d.is_resource(d.intern_literal("\"l\"")));
}

TEST(Dictionary, SurvivesManyInserts) {
  // deque storage must keep string_views stable across growth.
  Dictionary d;
  std::vector<TermId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(d.intern_iri("http://ex/n" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(d.find_iri("http://ex/n" + std::to_string(i)), ids[i]);
  }
}

TEST(TripleStore, InsertDeduplicates) {
  TripleStore s;
  EXPECT_TRUE(s.insert({1, 2, 3}));
  EXPECT_FALSE(s.insert({1, 2, 3}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains({1, 2, 3}));
  EXPECT_FALSE(s.contains({3, 2, 1}));
}

TEST(TripleStore, InsertAllCountsNew) {
  TripleStore s;
  const std::vector<Triple> ts{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(s.insert_all(ts), 2u);
}

TEST(TripleStore, LogPreservesInsertionOrder) {
  TripleStore s;
  s.insert({1, 2, 3});
  s.insert({4, 5, 6});
  s.insert({7, 8, 9});
  ASSERT_EQ(s.triples().size(), 3u);
  EXPECT_EQ(s.triples()[0], (Triple{1, 2, 3}));
  EXPECT_EQ(s.triples()[2], (Triple{7, 8, 9}));
}

TEST(TripleStore, PredicateIndex) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({3, 10, 4});
  s.insert({1, 11, 2});
  EXPECT_EQ(s.with_predicate(10).size(), 2u);
  EXPECT_EQ(s.with_predicate(11).size(), 1u);
  EXPECT_EQ(s.with_predicate(12).size(), 0u);
  ASSERT_EQ(s.predicates().size(), 2u);
}

TEST(TripleStore, ObjectsAndSubjectsProbes) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 10, 3});
  s.insert({4, 10, 2});
  const auto objs = s.objects(10, 1);
  EXPECT_EQ(objs.size(), 2u);
  const auto subs = s.subjects(10, 2);
  EXPECT_EQ(subs.size(), 2u);
  EXPECT_TRUE(s.objects(10, 99).empty());
  EXPECT_TRUE(s.subjects(99, 2).empty());
}

TEST(TripleStore, MatchAllBoundCombinations) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 11, 3});
  s.insert({4, 10, 2});

  EXPECT_EQ(s.count({1, 10, 2}), 1u);
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 2u);   // subject index
  EXPECT_EQ(s.count({kAnyTerm, 10, kAnyTerm}), 2u);  // predicate index
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, 2}), 2u);   // object index
  EXPECT_EQ(s.count({1, 10, kAnyTerm}), 1u);
  EXPECT_EQ(s.count({kAnyTerm, 10, 2}), 2u);
  EXPECT_EQ(s.count({1, kAnyTerm, 2}), 1u);
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, kAnyTerm}), 3u);
}

TEST(TripleStore, ForSubjectAndObject) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 11, 3});
  std::size_t n = 0;
  s.for_subject(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);
  n = 0;
  s.for_object(3, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST(TripleStore, ClearEmptiesEverything) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains({1, 10, 2}));
  EXPECT_TRUE(s.with_predicate(10).empty());
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 0u);
  // Reusable after clear.
  EXPECT_TRUE(s.insert({1, 10, 2}));
}

TEST(TriplePattern, WildcardsMatch) {
  const TriplePattern p{kAnyTerm, 10, kAnyTerm};
  EXPECT_TRUE(p.matches({1, 10, 2}));
  EXPECT_FALSE(p.matches({1, 11, 2}));
}

TEST(NTriples, ParsesIriTriple) {
  Dictionary d;
  const auto t = parse_ntriples_line(
      "<http://ex/s> <http://ex/p> <http://ex/o> .", d);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(d.lexical(t->s), "http://ex/s");
  EXPECT_EQ(d.kind(t->o), TermKind::kIri);
}

TEST(NTriples, ParsesLiteralAndBlank) {
  Dictionary d;
  const auto t1 = parse_ntriples_line(
      "_:b1 <http://ex/p> \"hello world\" .", d);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(d.kind(t1->s), TermKind::kBlank);
  EXPECT_EQ(d.kind(t1->o), TermKind::kLiteral);

  const auto t2 = parse_ntriples_line(
      "<http://ex/s> <http://ex/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .",
      d);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(d.lexical(t2->o),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#int>");
}

TEST(NTriples, SkipsCommentsAndBlank) {
  Dictionary d;
  EXPECT_FALSE(parse_ntriples_line("# comment", d).has_value());
  EXPECT_FALSE(parse_ntriples_line("   ", d).has_value());
}

TEST(NTriples, RejectsMalformed) {
  Dictionary d;
  std::string err;
  EXPECT_FALSE(parse_ntriples_line("<a <b> <c> .", d, &err).has_value());
  EXPECT_FALSE(parse_ntriples_line("<a> <b> <c>", d, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      parse_ntriples_line("\"lit\" <b> <c> .", d, &err).has_value());
}

TEST(NTriples, StreamParseCountsStats) {
  Dictionary d;
  TripleStore s;
  std::istringstream in(
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "# comment\n"
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "bad line\n"
      "<http://ex/b> <http://ex/p> \"x\" .\n");
  const ParseStats stats = parse_ntriples(in, d, s);
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.bad_lines, 1u);
  EXPECT_NE(stats.first_error.find("line 4"), std::string::npos);
  EXPECT_EQ(s.size(), 2u);
}

TEST(NTriples, SerializationRoundTrips) {
  Dictionary d;
  TripleStore s;
  std::istringstream in(
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "_:node1 <http://ex/p> \"v\"@en .\n");
  parse_ntriples(in, d, s);

  std::ostringstream out;
  write_ntriples(out, s, d);

  Dictionary d2;
  TripleStore s2;
  std::istringstream back(out.str());
  const ParseStats stats = parse_ntriples(back, d2, s2);
  EXPECT_EQ(stats.bad_lines, 0u);
  EXPECT_EQ(s2.size(), s.size());
}

TEST(GraphStats, CountsNodesAndDegrees) {
  Dictionary d;
  TripleStore s;
  const TermId a = d.intern_iri("a"), b = d.intern_iri("b"),
               c = d.intern_iri("c"), p = d.intern_iri("p");
  const TermId lit = d.intern_literal("\"x\"");
  s.insert({a, p, b});
  s.insert({b, p, c});
  s.insert({a, p, lit});

  const GraphStats gs = compute_graph_stats(s, d);
  EXPECT_EQ(gs.triples, 3u);
  EXPECT_EQ(gs.nodes, 3u);  // a, b, c — literal is not a node
  EXPECT_EQ(gs.literal_objects, 1u);
  EXPECT_EQ(gs.max_degree, 2u);  // b: one in, one out
  EXPECT_EQ(gs.predicates, 1u);

  const auto nodes = resource_nodes(s, d);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_TRUE(nodes.contains(a));
  EXPECT_FALSE(nodes.contains(lit));
}

TEST(IdMap, FindAndInsertAcrossGrowth) {
  IdMap<std::uint32_t> m;
  EXPECT_EQ(m.find(1), nullptr);
  // Enough keys to force several rehashes past the initial 16 slots.
  for (TermId k = 1; k <= 1000; ++k) {
    m[k] = k * 7;
  }
  EXPECT_EQ(m.size(), 1000u);
  for (TermId k = 1; k <= 1000; ++k) {
    const std::uint32_t* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 7);
  }
  EXPECT_EQ(m.find(1001), nullptr);
  m[5] = 99;  // overwrite does not grow
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(*m.find(5), 99u);
}

TEST(TripleSet, InsertContainsReset) {
  TripleSet set;
  EXPECT_FALSE(set.contains({1, 2, 3}));
  EXPECT_TRUE(set.insert({1, 2, 3}));
  EXPECT_FALSE(set.insert({1, 2, 3}));  // duplicate
  for (TermId i = 1; i <= 500; ++i) {
    set.insert({i, i + 1, i + 2});
  }
  EXPECT_EQ(set.size(), 500u);  // {1,2,3} was part of the loop's range
  for (TermId i = 1; i <= 500; ++i) {
    EXPECT_TRUE(set.contains({i, i + 1, i + 2}));
  }
  EXPECT_FALSE(set.contains({500, 500, 500}));
  set.reset();  // keeps capacity, drops content
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains({1, 2, 3}));
  EXPECT_TRUE(set.insert({1, 2, 3}));
}

TEST(SmallIdList, SpillsPastInlineCapacity) {
  SmallIdList list;
  EXPECT_TRUE(list.view().empty());
  for (std::uint32_t i = 0; i < 10; ++i) {
    list.push_back(i * 3);
    // The view stays contiguous and in insertion order through the
    // inline-to-spill migration at kInline entries.
    const auto v = list.view();
    ASSERT_EQ(v.size(), i + 1);
    for (std::uint32_t j = 0; j <= i; ++j) {
      EXPECT_EQ(v[j], j * 3);
    }
  }
  EXPECT_EQ(list.size(), 10u);
}

TEST(SmallIdList, RetainFiltersInPlaceAndMovesBackInline) {
  SmallIdList list;
  for (std::uint32_t i = 0; i < 10; ++i) {
    list.push_back(i);
  }
  list.retain([](std::uint32_t v) { return v % 2 == 0; });  // 5 left: spilled
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
  list.retain([](std::uint32_t v) { return v != 4; });  // 4 left: inline
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{0, 2, 6, 8}));
  // Pushing past kInline again spills from the inline entries.
  list.push_back(10);
  list.push_back(12);
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{0, 2, 6, 8, 10, 12}));
  list.retain([](std::uint32_t) { return false; });
  EXPECT_TRUE(list.view().empty());
  list.push_back(7);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.view()[0], 7u);
}

TEST(TripleSet, EraseKeepsProbeChains) {
  // 1. Clusters that wrap around the table end.  Up to 15 entries keep the
  // initial 32-slot table; pick keys whose home slot is 29..31 or 0..1, so
  // their probe runs cross slot 31 -> 0, and erase them in many orders.
  constexpr std::size_t kSlots = 32;
  std::vector<Triple> tail_keys;
  std::vector<Triple> head_keys;
  for (TermId s = 1; tail_keys.size() < 8 || head_keys.size() < 6; ++s) {
    const Triple t{s, 1, 1};
    const std::size_t home = TripleHash{}(t) & (kSlots - 1);
    if (home >= 29 && tail_keys.size() < 8) {
      tail_keys.push_back(t);
    } else if (home <= 1 && head_keys.size() < 6) {
      head_keys.push_back(t);
    }
  }
  std::vector<Triple> keys = tail_keys;
  keys.insert(keys.end(), head_keys.begin(), head_keys.end());
  util::Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    TripleSet set;
    std::vector<Triple> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const Triple& t : order) {
      ASSERT_TRUE(set.insert(t));
    }
    std::set<Triple> model(keys.begin(), keys.end());
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const Triple& victim : order) {
      ASSERT_TRUE(set.erase(victim)) << "round " << round;
      ASSERT_FALSE(set.erase(victim)) << "erased twice, round " << round;
      model.erase(victim);
      ASSERT_EQ(set.size(), model.size());
      for (const Triple& t : keys) {
        ASSERT_EQ(set.contains(t), model.count(t) == 1)
            << "round " << round << " key " << t.s;
      }
    }
    EXPECT_TRUE(set.empty());
  }

  // 2. Random insert/erase/probe against std::set over a small id range, so
  // collisions, growth and erase of absent keys are all frequent.
  TripleSet set;
  std::set<Triple> model;
  const auto draw = [&rng] {
    return Triple{static_cast<TermId>(1 + rng.below(40)),
                  static_cast<TermId>(1 + rng.below(3)),
                  static_cast<TermId>(1 + rng.below(40))};
  };
  for (int op = 0; op < 40000; ++op) {
    const Triple t = draw();
    if (rng.chance(0.55)) {
      ASSERT_EQ(set.insert(t), model.insert(t).second) << "op " << op;
    } else {
      ASSERT_EQ(set.erase(t), model.erase(t) == 1) << "op " << op;
    }
    ASSERT_EQ(set.size(), model.size());
    if (op % 4000 == 0) {
      for (TermId s = 1; s <= 40; ++s) {
        for (TermId o = 1; o <= 40; ++o) {
          const Triple probe{s, 2, o};
          ASSERT_EQ(set.contains(probe), model.count(probe) == 1);
        }
      }
    }
  }
  // Iteration yields exactly the members; equality ignores slot layout.
  std::set<Triple> iterated;
  set.for_each([&iterated](const Triple& t) { iterated.insert(t); });
  EXPECT_EQ(iterated, model);
  const std::vector<Triple> members(model.begin(), model.end());
  EXPECT_EQ(TripleSet(members), set);
  TripleSet fewer(members);
  fewer.erase(members.front());
  EXPECT_FALSE(fewer == set);
}

TEST(TripleStore, EraseAllMatchesRebuildFromLog) {
  // After every erase_all / insert step, the store must be
  // indistinguishable from a fresh store built by inserting its surviving
  // log in order.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    const auto draw = [&rng](TermId p_hi) {
      return Triple{static_cast<TermId>(1 + rng.below(30)),
                    static_cast<TermId>(1 + rng.below(p_hi)),
                    static_cast<TermId>(1 + rng.below(30))};
    };
    TripleStore store;
    for (int i = 0; i < 600; ++i) {
      store.insert(draw(6));
    }
    for (int step = 0; step < 6; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::vector<Triple> log = store.triples();
      std::vector<Triple> doomed;
      for (const Triple& t : log) {
        if (rng.chance(0.2)) {
          doomed.push_back(t);
        }
      }
      if (step % 2 == 0) {
        // Empty one predicate entirely...
        const TermId gone = store.predicates()[rng.below(
            store.predicates().size())];
        for (const Triple& t : store.with_predicate(gone)) {
          doomed.push_back(t);
        }
      } else {
        // ...or doom the first triple of the log, so its predicate loses
        // its first-seen position.
        doomed.push_back(log.front());
      }
      // Absent triples and repeats are ignored.
      doomed.push_back({99, 99, 99});
      doomed.push_back(doomed.front());

      std::set<Triple> doomed_set(doomed.begin(), doomed.end());
      std::size_t present = 0;
      for (const Triple& t : doomed_set) {
        present += store.contains(t) ? 1 : 0;
      }
      // Probe the endpoint index first, so erase_all must drop a built one.
      (void)store.count({log.front().s, kAnyTerm, kAnyTerm});
      EXPECT_EQ(store.erase_all(doomed), present) << label;
      expect_same_store(store, rebuilt_from_log(store), label + " erase",
                        doomed);

      // More inserts: fresh triples, re-adds of doomed ones (which may
      // re-register an emptied predicate), and a brand-new predicate —
      // alternately through the serial and the bulk paths.
      std::vector<Triple> batch;
      for (int i = 0; i < 80; ++i) {
        batch.push_back(draw(7));
      }
      for (std::size_t i = 0; i < doomed.size(); i += 3) {
        batch.push_back(doomed[i]);
      }
      if (step % 2 == 0) {
        for (const Triple& t : batch) {
          store.insert(t);
        }
      } else {
        store.insert_all(batch, 3);
      }
      expect_same_store(store, rebuilt_from_log(store), label + " insert",
                        doomed);
    }
    const std::size_t all = store.size();
    EXPECT_EQ(store.erase_all(store.triples()), all);
    EXPECT_TRUE(store.empty());
    EXPECT_TRUE(store.predicates().empty());
  }
}

TEST(TripleStore, EndpointIndexIsLazyButCoherent) {
  // for_subject / for_object are served by a lazily built index; probing,
  // inserting more, and probing again must reflect every insert.
  TripleStore s;
  s.insert({1, 2, 3});
  s.insert({1, 4, 5});
  std::size_t n = 0;
  s.for_subject(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);

  s.insert({1, 6, 7});
  s.insert({8, 9, 1});
  n = 0;
  s.for_subject(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 3u);
  n = 0;
  s.for_object(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);

  // Unbound-predicate patterns route through the same lazy index.
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 3u);
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, 1}), 1u);
}

TEST(TripleStore, CopyPreservesIndexesIndependently) {
  TripleStore a;
  a.insert({1, 2, 3});
  a.insert({4, 2, 3});
  TripleStore b = a;
  b.insert({5, 2, 3});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.subjects(2, 3).size(), 2u);
  EXPECT_EQ(b.subjects(2, 3).size(), 3u);
  EXPECT_FALSE(a.contains({5, 2, 3}));
  EXPECT_TRUE(b.contains({5, 2, 3}));
}

TEST(TripleStore, CopyGivesItsLogHeadroom) {
  // A copy's log gets the headroom a cloned segment gets (n + n/8 + 16), so
  // the first batch inserted into a copied snapshot appends without
  // reallocating the whole log.
  TripleStore source;
  for (TermId i = 0; i < 1000; ++i) {
    source.insert({1 + i, 1 + i % 3, 1 + i % 7});
  }
  const std::size_t n = source.size();
  TripleStore copy = source;
  EXPECT_GE(copy.triples().capacity(), n + n / 8 + 16);
  const Triple* const before = copy.triples().data();
  for (TermId i = 0; i < n / 8 + 16; ++i) {
    ASSERT_TRUE(copy.insert({5000 + i, 1, 1}));
  }
  EXPECT_EQ(copy.triples().data(), before) << "the log was reallocated";
}

TEST(TripleStore, MovedFromStoreIsEmptyAndUsable) {
  // Big enough that the filter and the posting pages are well past their
  // initial sizes.
  std::vector<Triple> log;
  for (TermId i = 0; i < 20000; ++i) {
    log.push_back({1 + i, 1 + i % 3, 1 + i % 7});
  }
  for (const bool assign : {false, true}) {
    TripleStore from = rebuilt_from_log(log);
    TripleStore to;
    if (assign) {
      to.insert({9, 9, 9});
      to = std::move(from);
    } else {
      TripleStore constructed(std::move(from));
      to = constructed;
    }
    const std::string label = assign ? "move-assigned" : "move-constructed";
    expect_same_store(to, rebuilt_from_log(log), label);
    // A moved-from store is empty and takes inserts again.
    expect_same_store(from, TripleStore(), label + " source", log);
    for (const Triple& t : log) {
      ASSERT_TRUE(from.insert(t)) << label;
    }
    EXPECT_EQ(from.insert_all(log), 0u);
    expect_same_store(from, rebuilt_from_log(log), label + " source refilled");
  }
}

TEST(TripleStore, CopyOnWriteKeepsTheOtherSideIntact) {
  // A copy shares every segment with its source.  Whichever side is then
  // written — one insert, a serial and a team bulk insert, an erase that
  // removes a predicate's first triple, an erase that empties a predicate —
  // the other side must still equal a fresh store built from its log.
  // Ids span several posting pages, and a mid-sequence copy checks that
  // copying a store that already cloned some segments retags it too.
  util::ThreadTeam team(4);
  for (const bool write_copy : {true, false}) {
    util::Rng rng(write_copy ? 11 : 12);
    const auto draw = [&rng](TermId p_hi) {
      return Triple{static_cast<TermId>(1 + rng.below(200)),
                    static_cast<TermId>(1 + rng.below(p_hi)),
                    static_cast<TermId>(1 + rng.below(200))};
    };
    TripleStore source;
    for (int i = 0; i < 3000; ++i) {
      source.insert(draw(5));
    }
    (void)source.count({source.triples().front().s, kAnyTerm, kAnyTerm});
    const std::vector<Triple> saved = source.triples();
    TripleStore copy = source;
    TripleStore& written = write_copy ? copy : source;
    const TripleStore& other = write_copy ? source : copy;
    const std::string side = write_copy ? "copy written" : "source written";
    const auto check = [&](const std::string& step) {
      expect_same_store(other, rebuilt_from_log(saved), side + ", " + step);
      expect_same_store(written, rebuilt_from_log(written),
                        side + ", " + step + " (written side)");
    };

    ASSERT_TRUE(written.insert({201, 1, 202}));
    check("insert");
    EXPECT_EQ(other.cow_clone_bytes(), 0u);
    EXPECT_LT(written.cow_clone_bytes(), saved.size() * sizeof(Triple) / 2)
        << "one insert clones its segment and pages, not the store";

    std::vector<Triple> batch;
    for (int i = 0; i < 300; ++i) {
      batch.push_back(draw(6));
    }
    written.insert_all(batch);
    check("serial insert_all");

    const TripleStore middle = written;
    const std::vector<Triple> middle_log = written.triples();
    batch.clear();
    for (int i = 0; i < 600; ++i) {
      batch.push_back(draw(7));
    }
    written.insert_all(batch, team);
    check("team insert_all");

    const TermId first_p = written.triples().front().p;
    std::vector<Triple> doomed{written.with_predicate(first_p).front()};
    for (const Triple& t : written.triples()) {
      if (rng.chance(0.1)) {
        doomed.push_back(t);
      }
    }
    EXPECT_GT(written.erase_all(doomed), 0u);
    check("erase of a predicate's first triple");

    const TermId emptied = written.predicates().back();
    const std::vector<Triple> all(written.with_predicate(emptied).begin(),
                                  written.with_predicate(emptied).end());
    EXPECT_EQ(written.erase_all(all), all.size());
    EXPECT_TRUE(written.with_predicate(emptied).empty());
    check("erase that empties a predicate");

    expect_same_store(middle, rebuilt_from_log(middle_log),
                      side + ", mid-sequence copy");
  }
}

// ---------------------------------------------------------------------------
// Bulk paths: insert_all(batch, threads) and Dictionary::absorb must leave
// exactly what the serial per-item loops leave.

TEST(TripleStore, ParallelInsertAllMatchesSerialLoop) {
  // A store that already holds some triples, then a batch with duplicates
  // inside it, duplicates of stored triples, and predicates first seen
  // part-way through.  Small id ranges make repeats common.
  util::Rng rng(7);
  const auto draw = [&rng](TermId hi) {
    return static_cast<TermId>(1 + rng.below(hi));
  };
  std::vector<Triple> prior;
  for (int i = 0; i < 300; ++i) {
    prior.push_back({draw(60), draw(3), draw(60)});
  }
  std::vector<Triple> batch;
  for (int i = 0; i < 6000; ++i) {
    // Predicates 4..9 appear only after the first third of the batch.
    const TermId p = i < 2000 ? draw(3) : draw(9);
    batch.push_back({draw(80), p, draw(80)});
    if (i % 7 == 0) {
      batch.push_back(prior[static_cast<std::size_t>(i) % prior.size()]);
    }
    if (i % 11 == 0) {
      batch.push_back(batch[batch.size() / 2]);
    }
  }

  TripleStore serial;
  serial.insert_all(prior);
  std::size_t serial_added = 0;
  for (const Triple& t : batch) {
    serial_added += serial.insert(t) ? 1 : 0;
  }
  ASSERT_LT(serial_added, batch.size());  // the batch really has repeats

  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    TripleStore store;
    store.insert_all(prior, threads);
    EXPECT_EQ(store.insert_all(batch, threads), serial_added) << label;
    expect_same_store(store, serial, label);
    // A second bulk insert of the same batch adds nothing.
    EXPECT_EQ(store.insert_all(batch, threads), 0u) << label;
    EXPECT_EQ(store.size(), serial.size()) << label;
  }
}

TEST(TripleStore, InsertAllOnTeamAppendsFirstOccurrencesInBatchOrder) {
  util::ThreadTeam team(4);
  TripleStore store;
  store.insert({1, 1, 1});
  const std::vector<Triple> batch{
      {2, 1, 2}, {1, 1, 1}, {3, 2, 3}, {2, 1, 2}, {4, 3, 4}, {3, 2, 3}};
  EXPECT_EQ(store.insert_all(batch, team), 3u);
  const std::vector<Triple> want{{1, 1, 1}, {2, 1, 2}, {3, 2, 3}, {4, 3, 4}};
  EXPECT_EQ(store.triples(), want);
  EXPECT_EQ(store.predicates(), (std::vector<TermId>{1, 2, 3}));
}

TEST(Dictionary, AbsorbMatchesSerialInterning) {
  // Parts overlap each other and the target; one lexical form appears
  // under two kinds.
  const auto fill = [](Dictionary& d, int from, int to, TermKind kind) {
    for (int i = from; i < to; ++i) {
      d.intern("http://ex/t" + std::to_string(i), kind);
    }
  };
  for (const unsigned members : {1u, 2u, 3u, 4u}) {
    const std::string label = "members=" + std::to_string(members);
    std::vector<Dictionary> parts(4);
    fill(parts[0], 0, 500, TermKind::kIri);
    fill(parts[1], 300, 900, TermKind::kIri);
    fill(parts[1], 0, 50, TermKind::kLiteral);
    parts[2].intern_blank("b0");
    fill(parts[3], 850, 1200, TermKind::kIri);
    fill(parts[3], 0, 10, TermKind::kLiteral);

    Dictionary serial;
    fill(serial, 100, 200, TermKind::kIri);  // already present
    Dictionary merged = serial;
    std::vector<std::vector<TermId>> want(parts.size());
    for (std::size_t c = 0; c < parts.size(); ++c) {
      want[c].push_back(kAnyTerm);
      for (TermId id = 1; id <= parts[c].size(); ++id) {
        want[c].push_back(
            serial.intern(parts[c].lexical(id), parts[c].kind(id)));
      }
    }

    util::ThreadTeam team(members);
    std::vector<std::vector<TermId>> remaps;
    merged.absorb(parts, remaps, team);
    EXPECT_EQ(remaps, want) << label;
    ASSERT_EQ(merged.size(), serial.size()) << label;
    for (TermId id = 1; id <= serial.size(); ++id) {
      EXPECT_EQ(merged.lexical(id), serial.lexical(id)) << label;
      EXPECT_EQ(merged.kind(id), serial.kind(id)) << label;
      EXPECT_EQ(merged.find(serial.lexical(id), serial.kind(id)), id)
          << label;
    }
    for (const Dictionary& part : parts) {
      EXPECT_EQ(part.size(), 0u) << label << " (parts are consumed)";
    }
    // The merged index keeps interning normally.
    const TermId fresh = merged.intern_iri("http://ex/fresh");
    EXPECT_EQ(fresh, serial.size() + 1) << label;
    EXPECT_EQ(merged.intern_iri("http://ex/t850"),
              serial.find_iri("http://ex/t850"))
        << label;
  }
}

}  // namespace
}  // namespace parowl::rdf
