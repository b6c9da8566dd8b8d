#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "parowl/gen/lubm.hpp"
#include "parowl/reason/forward.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/rules/compiler.hpp"
#include "parowl/rules/dependency_graph.hpp"
#include "parowl/rules/horst_rules.hpp"
#include "parowl/rules/match.hpp"
#include "parowl/rules/rule.hpp"
#include "parowl/rules/rule_parser.hpp"

namespace parowl::rules {
namespace {

TEST(AtomTerm, EncodesConstantsAndVariables) {
  const AtomTerm c = AtomTerm::constant(42);
  EXPECT_TRUE(c.is_const());
  EXPECT_FALSE(c.is_var());
  EXPECT_EQ(c.const_id(), 42u);

  const AtomTerm v = AtomTerm::var(3);
  EXPECT_TRUE(v.is_var());
  EXPECT_EQ(v.var_index(), 3);
}

TEST(Atom, VariablesListsInPositionOrder) {
  const Atom a{AtomTerm::var(2), AtomTerm::constant(1), AtomTerm::var(0)};
  const auto vars = a.variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], 2);
  EXPECT_EQ(vars[1], 0);
}

TEST(Rule, WellFormedRejectsUnsafeHead) {
  Rule r;
  r.body = {Atom{AtomTerm::var(0), AtomTerm::constant(1), AtomTerm::var(1)}};
  r.head = Atom{AtomTerm::var(0), AtomTerm::constant(1), AtomTerm::var(2)};
  r.num_vars = 3;
  EXPECT_FALSE(r.well_formed());  // var 2 not bound by the body
  r.head = Atom{AtomTerm::var(1), AtomTerm::constant(1), AtomTerm::var(0)};
  EXPECT_TRUE(r.well_formed());
}

TEST(Rule, WellFormedRejectsEmptyBody) {
  Rule r;
  r.head = Atom{AtomTerm::constant(1), AtomTerm::constant(2),
                AtomTerm::constant(3)};
  EXPECT_FALSE(r.well_formed());
}

TEST(Rule, SingleJoinDetection) {
  // (?a p ?b) (?b p ?c) -> (?a p ?c): single join on ?b.
  Rule r;
  const auto p = AtomTerm::constant(9);
  r.body = {Atom{AtomTerm::var(0), p, AtomTerm::var(1)},
            Atom{AtomTerm::var(1), p, AtomTerm::var(2)}};
  r.head = Atom{AtomTerm::var(0), p, AtomTerm::var(2)};
  r.num_vars = 3;
  EXPECT_TRUE(r.is_single_join());

  // Disjoint variables: not a join.
  r.body[1] = Atom{AtomTerm::var(3), p, AtomTerm::var(4)};
  r.num_vars = 5;
  EXPECT_FALSE(r.is_single_join());

  // One atom: not single-join.
  r.body.pop_back();
  EXPECT_FALSE(r.is_single_join());
}

TEST(BindAtom, BindsAndChecksConsistency) {
  Binding b{};
  const Atom a{AtomTerm::var(0), AtomTerm::constant(5), AtomTerm::var(0)};
  // Repeated variable must match the same value.
  EXPECT_TRUE(bind_atom(a, rdf::Triple{7, 5, 7}, b));
  EXPECT_EQ(b[0], 7u);
  Binding b2{};
  EXPECT_FALSE(bind_atom(a, rdf::Triple{7, 5, 8}, b2));
  Binding b3{};
  EXPECT_FALSE(bind_atom(a, rdf::Triple{7, 6, 7}, b3));  // const mismatch
}

TEST(ToPattern, ResolvesBoundAndUnbound) {
  Binding b{};
  b[1] = 33;
  const Atom a{AtomTerm::var(0), AtomTerm::constant(5), AtomTerm::var(1)};
  const auto pat = to_pattern(a, b);
  EXPECT_EQ(pat.s, rdf::kAnyTerm);
  EXPECT_EQ(pat.p, 5u);
  EXPECT_EQ(pat.o, 33u);
}

TEST(RuleSet, FindByName) {
  RuleSet rs;
  Rule r;
  r.name = "mine";
  r.body = {Atom{AtomTerm::var(0), AtomTerm::constant(1), AtomTerm::var(1)}};
  r.head = r.body[0];
  r.num_vars = 2;
  rs.add(r);
  EXPECT_NE(rs.find("mine"), nullptr);
  EXPECT_EQ(rs.find("other"), nullptr);
}

// ---------------------------------------------------------------------------
// Parser

class ParserTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  RuleParser parser{dict};
};

TEST_F(ParserTest, ParsesSingleJoinRule) {
  std::string err;
  const auto rule = parser.parse_rule(
      "trans: (?a <http://ex/p> ?b) (?b <http://ex/p> ?c) -> (?a <http://ex/p> ?c)",
      &err);
  ASSERT_TRUE(rule.has_value()) << err;
  EXPECT_EQ(rule->name, "trans");
  EXPECT_EQ(rule->body.size(), 2u);
  EXPECT_EQ(rule->num_vars, 3);
  EXPECT_TRUE(rule->is_single_join());
}

TEST_F(ParserTest, ParsesPrefixedNames) {
  std::string err;
  const auto rule = parser.parse_rule(
      "(?c rdfs:subClassOf ?d) (?x rdf:type ?c) -> (?x rdf:type ?d)", &err);
  ASSERT_TRUE(rule.has_value()) << err;
  EXPECT_EQ(dict.lexical(rule->body[0].p.const_id()),
            "http://www.w3.org/2000/01/rdf-schema#subClassOf");
}

TEST_F(ParserTest, ParsesLiteralConstants) {
  std::string err;
  const auto rule = parser.parse_rule(
      "(?x <http://ex/status> \"active\") -> (?x rdf:type <http://ex/Active>)",
      &err);
  ASSERT_TRUE(rule.has_value()) << err;
  EXPECT_TRUE(rule->body[0].o.is_const());
}

TEST_F(ParserTest, RejectsMalformedRules) {
  std::string err;
  EXPECT_FALSE(parser.parse_rule("(?a ?b) -> (?a ?b ?c)", &err).has_value());
  EXPECT_FALSE(
      parser.parse_rule("(?a <p> ?b) (?a <p> ?b)", &err).has_value());
  EXPECT_FALSE(parser
                   .parse_rule("(?a unknownprefix:p ?b) -> (?a <x> ?b)", &err)
                   .has_value());
  EXPECT_NE(err.find("unknown prefix"), std::string::npos);
}

TEST_F(ParserTest, RejectsBodiesOverThirtyOneAtoms) {
  const auto rule = [](std::size_t atoms) {
    std::string text;
    for (std::size_t i = 0; i < atoms; ++i) {
      text += "(?x rdf:type <http://ex/C" + std::to_string(i) + ">) ";
    }
    return text + "-> (?x rdf:type <http://ex/D>)";
  };
  std::string err;
  EXPECT_TRUE(parser.parse_rule(rule(31), &err).has_value()) << err;
  EXPECT_FALSE(parser.parse_rule(rule(32), &err).has_value());
  EXPECT_NE(err.find("more than 31"), std::string::npos) << err;
}

// Rules built in code reach the same `unsigned` join mask as parsed ones:
// 31 body atoms still fire, and RuleSet refuses 32 both ways in.
TEST(RuleSet, RejectsBodiesOverThirtyOneAtoms) {
  const auto rule = [](std::size_t atoms) {
    Rule r;
    r.name = "wide" + std::to_string(atoms);
    for (std::size_t i = 0; i < atoms; ++i) {
      r.body.push_back(Atom{AtomTerm::var(0), AtomTerm::constant(1),
                            AtomTerm::constant(100 + i)});
    }
    r.head = Atom{AtomTerm::var(0), AtomTerm::constant(1),
                  AtomTerm::constant(99)};
    r.num_vars = 1;
    return r;
  };
  RuleSet rules;
  rules.add(rule(31));
  EXPECT_NO_THROW(RuleSet(std::vector<Rule>{rule(31)}));
  EXPECT_THROW(rules.add(rule(32)), std::invalid_argument);
  EXPECT_THROW(RuleSet(std::vector<Rule>{rule(32)}), std::invalid_argument);
  ASSERT_EQ(rules.size(), 1u);

  rdf::TripleStore store;
  for (rdf::TermId c = 100; c < 131; ++c) {
    store.insert({7, 1, c});
  }
  reason::forward_closure(store, rules);
  EXPECT_TRUE(store.contains({7, 1, 99}));
}

TEST_F(ParserTest, RejectsUnsafeRule) {
  std::string err;
  EXPECT_FALSE(parser.parse_rule("(?a <p> ?b) -> (?a <p> ?c)", &err)
                   .has_value());
}

TEST_F(ParserTest, StreamParseWithPrefixDirective) {
  std::istringstream in(
      "@prefix ex: <http://ex/>\n"
      "# a comment\n"
      "r1: (?a ex:p ?b) -> (?b ex:q ?a)\n"
      "r2: (?a ex:q ?b) (?b ex:q ?c) -> (?a ex:q ?c)\n");
  std::string err;
  const auto rs = parser.parse(in, &err);
  ASSERT_TRUE(rs.has_value()) << err;
  EXPECT_EQ(rs->size(), 2u);
  EXPECT_NE(rs->find("r1"), nullptr);
}

TEST_F(ParserTest, StreamParseReportsLineNumbers) {
  std::istringstream in("r1: (?a <p> ?b) -> (?a <p> ?b)\nbroken\n");
  std::string err;
  EXPECT_FALSE(parser.parse(in, &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// pD* rule set

TEST(HorstRules, ContainsCoreRules) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  const RuleSet rs = horst_rules(vocab);
  for (const char* name : {"rdfs2", "rdfs3", "rdfs5", "rdfs7", "rdfs9",
                           "rdfs11", "rdfp3", "rdfp4", "rdfp8a", "rdfp8b",
                           "rdfp12a", "rdfp15", "rdfp16"}) {
    EXPECT_NE(rs.find(name), nullptr) << name;
  }
  for (const Rule& r : rs.rules()) {
    EXPECT_TRUE(r.well_formed()) << r.name;
  }
}

TEST(HorstRules, OptionsPruneRuleFamilies) {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  HorstOptions no_sameas;
  no_sameas.include_same_as = false;
  const RuleSet rs = horst_rules(vocab, no_sameas);
  EXPECT_EQ(rs.find("rdfp7"), nullptr);
  EXPECT_EQ(rs.find("rdfp1"), nullptr);
  EXPECT_NE(rs.find("rdfs9"), nullptr);

  HorstOptions no_restr;
  no_restr.include_restrictions = false;
  EXPECT_EQ(horst_rules(vocab, no_restr).find("rdfp15"), nullptr);

  HorstOptions reflexive;
  reflexive.include_reflexivity = true;
  EXPECT_NE(horst_rules(vocab, reflexive).find("rdfs6"), nullptr);
}

// ---------------------------------------------------------------------------
// Dispatch index

/// The (rule, atom) pairs of `rules` whose atom binds `t`, by a scan of
/// every pair: the ground truth the index must reproduce.
std::vector<PivotRef> binding_pairs(const RuleSet& rules,
                                    const rdf::Triple& t) {
  std::vector<PivotRef> out;
  for (std::uint32_t r = 0; r < rules.size(); ++r) {
    for (std::uint32_t a = 0; a < rules[r].body.size(); ++a) {
      Binding binding{};
      if (bind_atom(rules[r].body[a], t, binding)) {
        out.push_back({r, a});
      }
    }
  }
  return out;
}

/// The index's candidates for `t` that bind it, in visit order.
std::vector<PivotRef> binding_candidates(const DispatchIndex& index,
                                         const RuleSet& rules,
                                         const rdf::Triple& t) {
  std::vector<PivotRef> out;
  index.for_each_candidate(t, [&](const PivotRef ref) {
    Binding binding{};
    if (bind_atom(rules[ref.rule].body[ref.pivot], t, binding)) {
      out.push_back(ref);
    }
  });
  return out;
}

// Over a whole LUBM(1) closure plus triples whose predicate no rule names,
// for the compiled rules and the generic Horst rules (variable-predicate
// sameAs atoms included): the index loses no binding pair and visits the
// pairs in ascending (rule, atom) order, the order a full scan would.
TEST(DispatchIndex, CandidatesThatBindAreExactlyAFullScanInOrder) {
  rdf::Dictionary dict;
  const ontology::Vocabulary vocab(dict);
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  reason::materialize(store, dict, vocab, {});

  std::vector<rdf::Triple> triples = store.triples();
  const rdf::TermId unknown = dict.intern_iri("http://ex/notInAnyRule");
  const rdf::TermId some = triples.front().s;
  triples.push_back({some, unknown, some});
  triples.push_back({some, unknown, vocab.owl_thing});
  triples.push_back({vocab.owl_same_as, unknown, some});

  const RuleSet generic = horst_rules(vocab);
  const RuleSet compiled = reason::compile_ontology(store, vocab).rules;
  for (const RuleSet* rules : {&compiled, &generic}) {
    const DispatchIndex index(*rules);
    std::size_t pairs = 0;
    for (const rdf::Triple& t : triples) {
      const std::vector<PivotRef> expected = binding_pairs(*rules, t);
      const std::vector<PivotRef> got = binding_candidates(index, *rules, t);
      ASSERT_EQ(got, expected) << "triple " << t.s << " " << t.p << " " << t.o;
      EXPECT_EQ(index.triggers(*rules, t), !expected.empty());
      pairs += got.size();
    }
    EXPECT_GT(pairs, triples.size());  // the check is not vacuous
  }
}

// ---------------------------------------------------------------------------
// Compiler

class CompilerTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};

  rdf::TermId iri(const char* s) { return dict.intern_iri(s); }
};

TEST_F(CompilerTest, SpecializesSubclassRule) {
  rdf::TripleStore schema;
  const auto student = iri("Student"), person = iri("Person");
  schema.insert({student, vocab.rdfs_subclass_of, person});

  const CompiledRules compiled =
      compile_rules(horst_rules(vocab), schema, vocab);

  // Expect a rule (?x type Student) -> (?x type Person).
  bool found = false;
  for (const Rule& r : compiled.rules.rules()) {
    if (r.name == "rdfs9" && r.body.size() == 1 &&
        r.body[0].o.is_const() && r.body[0].o.const_id() == student &&
        r.head.o.is_const() && r.head.o.const_id() == person) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CompilerTest, SpecializesTransitivityToSingleJoin) {
  rdf::TripleStore schema;
  const auto anc = iri("ancestorOf");
  schema.insert({anc, vocab.rdf_type, vocab.owl_transitive_property});

  const CompiledRules compiled =
      compile_rules(horst_rules(vocab), schema, vocab);
  bool found = false;
  for (const Rule& r : compiled.rules.rules()) {
    if (r.name == "rdfp4") {
      EXPECT_EQ(r.body.size(), 2u);
      EXPECT_TRUE(r.is_single_join());
      EXPECT_EQ(r.body[0].p.const_id(), anc);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CompilerTest, AllCompiledOntologyRulesAreSingleJoinExceptSameAs) {
  // The paper's claim (§II): the compiled rule set consists of single-join
  // rules (bodies of <= 2 atoms); only the sameAs machinery stays generic.
  rdf::TripleStore schema;
  const auto a = iri("A"), b = iri("B"), p = iri("p"), q = iri("q");
  schema.insert({a, vocab.rdfs_subclass_of, b});
  schema.insert({p, vocab.rdfs_subproperty_of, q});
  schema.insert({p, vocab.rdf_type, vocab.owl_transitive_property});
  schema.insert({q, vocab.rdf_type, vocab.owl_functional_property});
  schema.insert({p, vocab.rdfs_domain, a});
  schema.insert({q, vocab.rdfs_range, b});
  schema.insert({p, vocab.owl_inverse_of, q});

  const CompiledRules compiled =
      compile_rules(horst_rules(vocab), schema, vocab);
  ASSERT_GT(compiled.rules.size(), 0u);
  for (const Rule& r : compiled.rules.rules()) {
    EXPECT_LE(r.body.size(), 2u) << r.to_string(dict);
    if (r.body.size() == 2) {
      EXPECT_TRUE(r.is_single_join()) << r.to_string(dict);
    }
  }
}

TEST_F(CompilerTest, PureSchemaRulesBecomeGroundFacts) {
  rdf::TripleStore schema;
  const auto a = iri("A"), b = iri("B");
  schema.insert({a, vocab.owl_equivalent_class, b});

  const CompiledRules compiled =
      compile_rules(horst_rules(vocab), schema, vocab);
  // rdfp12a/b on (A equivalentClass B) produce ground subclass facts.
  bool sub_ab = false, sub_ba = false;
  for (const rdf::Triple& t : compiled.ground_facts) {
    if (t == rdf::Triple{a, vocab.rdfs_subclass_of, b}) sub_ab = true;
    if (t == rdf::Triple{b, vocab.rdfs_subclass_of, a}) sub_ba = true;
  }
  EXPECT_TRUE(sub_ab);
  EXPECT_TRUE(sub_ba);
}

TEST_F(CompilerTest, DeduplicatesSpecializations) {
  rdf::TripleStore schema;
  const auto a = iri("A"), b = iri("B");
  schema.insert({a, vocab.rdfs_subclass_of, b});
  const RuleSet generic = horst_rules(vocab);
  const CompiledRules once = compile_rules(generic, schema, vocab);
  // Re-inserting the same axiom cannot create more rules.
  schema.insert({a, vocab.rdfs_subclass_of, b});
  const CompiledRules twice = compile_rules(generic, schema, vocab);
  EXPECT_EQ(once.rules.size(), twice.rules.size());
}

TEST_F(CompilerTest, EmptySchemaKeepsOnlyGenericRules) {
  rdf::TripleStore schema;
  const CompiledRules compiled =
      compile_rules(horst_rules(vocab), schema, vocab);
  // Only the schema-free sameAs rules survive.
  for (const Rule& r : compiled.rules.rules()) {
    EXPECT_TRUE(r.name.starts_with("rdfp6") || r.name.starts_with("rdfp7") ||
                r.name.starts_with("rdfp11"))
        << r.name;
  }
}

// ---------------------------------------------------------------------------
// Dependency graph

TEST(DependencyGraph, MayTriggerChecksConstants) {
  const auto type = AtomTerm::constant(1);
  const auto student = AtomTerm::constant(2);
  const auto person = AtomTerm::constant(3);
  const Atom head{AtomTerm::var(0), type, student};
  EXPECT_TRUE(may_trigger(head, Atom{AtomTerm::var(0), type, student}));
  EXPECT_FALSE(may_trigger(head, Atom{AtomTerm::var(0), type, person}));
  EXPECT_TRUE(
      may_trigger(head, Atom{AtomTerm::var(0), AtomTerm::var(1), AtomTerm::var(2)}));
}

TEST(DependencyGraph, EdgesFollowProducerConsumer) {
  rdf::Dictionary dict;
  RuleParser parser(dict);
  RuleSet rs;
  rs.add(*parser.parse_rule("r1: (?x <p> ?y) -> (?x <q> ?y)"));
  rs.add(*parser.parse_rule("r2: (?x <q> ?y) -> (?x <r> ?y)"));
  rs.add(*parser.parse_rule("r3: (?x <s> ?y) -> (?x <s2> ?y)"));

  const DependencyGraph g = build_dependency_graph(rs);
  EXPECT_EQ(g.num_rules, 3u);
  // r1 -> r2 must exist; r1 -> r3 must not.
  bool r1_r2 = false, r1_r3 = false;
  for (const auto& e : g.edges) {
    if (e.from == 0 && e.to == 1) r1_r2 = true;
    if (e.from == 0 && e.to == 2) r1_r3 = true;
  }
  EXPECT_TRUE(r1_r2);
  EXPECT_FALSE(r1_r3);
}

TEST(DependencyGraph, StatsWeighting) {
  rdf::Dictionary dict;
  RuleParser parser(dict);
  RuleSet rs;
  rs.add(*parser.parse_rule("r1: (?x <p> ?y) -> (?x <q> ?y)"));
  rs.add(*parser.parse_rule("r2: (?x <q> ?y) -> (?x <r> ?y)"));

  rdf::TripleStore data;
  const auto q = dict.find_iri("q");
  ASSERT_NE(q, rdf::kAnyTerm);
  data.insert({100, q, 101});
  data.insert({102, q, 103});

  const DependencyGraph g = build_dependency_graph(rs, &data);
  for (const auto& e : g.edges) {
    if (e.from == 0 && e.to == 1) {
      EXPECT_EQ(e.weight, 3u);  // 1 + 2 tuples with predicate q
    }
  }
}

TEST(DependencyGraph, UndirectedAdjacencyMergesAndDropsSelfLoops) {
  rdf::Dictionary dict;
  RuleParser parser(dict);
  RuleSet rs;
  // trans is self-dependent (head feeds its own body): a self-loop.
  rs.add(*parser.parse_rule("t: (?a <p> ?b) (?b <p> ?c) -> (?a <p> ?c)"));
  rs.add(*parser.parse_rule("u: (?a <p> ?b) -> (?a <q> ?b)"));

  const DependencyGraph g = build_dependency_graph(rs);
  const auto adj = g.undirected_adjacency();
  ASSERT_EQ(adj.size(), 2u);
  // No self-loop on vertex 0 in the undirected view.
  for (const auto& [n, w] : adj[0]) {
    EXPECT_NE(n, 0u);
  }
  // t -> u edge exists in both directions.
  EXPECT_FALSE(adj[0].empty());
  EXPECT_FALSE(adj[1].empty());
}

}  // namespace
}  // namespace parowl::rules
