#include <gtest/gtest.h>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::reason {
namespace {

class MaterializeTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;

  rdf::TermId iri(const std::string& s) { return dict.intern_iri(s); }

  void tiny_family_kb_into(rdf::TripleStore& target) {
    const auto anc = iri("ancestorOf");
    const auto parent = iri("parentOf");
    target.insert({anc, vocab.rdf_type, vocab.owl_transitive_property});
    target.insert({parent, vocab.rdfs_subproperty_of, anc});
    target.insert({iri("a"), parent, iri("b")});
    target.insert({iri("b"), parent, iri("c")});
    target.insert({iri("c"), parent, iri("d")});
  }
  void tiny_family_kb() { tiny_family_kb_into(store); }
};

TEST_F(MaterializeTest, ForwardStrategyComputesClosure) {
  tiny_family_kb();
  MaterializeOptions opts;
  opts.strategy = Strategy::kForward;
  const MaterializeResult result = materialize(store, dict, vocab, opts);

  const auto anc = iri("ancestorOf");
  EXPECT_TRUE(store.contains({iri("a"), anc, iri("b")}));  // subproperty
  EXPECT_TRUE(store.contains({iri("a"), anc, iri("d")}));  // transitivity
  EXPECT_GT(result.inferred, 0u);
  EXPECT_EQ(result.base_triples, 5u);
  EXPECT_EQ(result.schema_triples, 2u);
  EXPECT_GT(result.compiled_rules, 0u);
}

TEST_F(MaterializeTest, QueryDrivenMatchesForward) {
  tiny_family_kb();
  rdf::TripleStore qd_store;
  qd_store.insert_all(store.triples());

  MaterializeOptions fwd;
  fwd.strategy = Strategy::kForward;
  materialize(store, dict, vocab, fwd);

  MaterializeOptions qd;
  qd.strategy = Strategy::kQueryDriven;
  const MaterializeResult r = materialize(qd_store, dict, vocab, qd);

  EXPECT_EQ(store.size(), qd_store.size());
  for (const rdf::Triple& t : store.triples()) {
    EXPECT_TRUE(qd_store.contains(t));
  }
  EXPECT_GE(r.iterations, 1u);
}

TEST_F(MaterializeTest, CompiledAndGenericAgree) {
  tiny_family_kb();
  rdf::TripleStore generic_store;
  generic_store.insert_all(store.triples());

  MaterializeOptions compiled;
  compiled.compile = true;
  materialize(store, dict, vocab, compiled);

  MaterializeOptions generic;
  generic.compile = false;
  materialize(generic_store, dict, vocab, generic);

  // The generic run also materializes schema-level closures (e.g.
  // subPropertyOf chains stay as rules), so compare on instance triples:
  // everything derivable about a..d must match.
  for (const auto node : {"a", "b", "c", "d"}) {
    for (const auto prop : {"ancestorOf", "parentOf"}) {
      for (const auto other : {"a", "b", "c", "d"}) {
        const rdf::Triple t{iri(node), iri(prop), iri(other)};
        EXPECT_EQ(store.contains(t), generic_store.contains(t))
            << node << " " << prop << " " << other;
      }
    }
  }
}

TEST_F(MaterializeTest, SameAsPropagation) {
  const auto email = iri("email");
  const auto mbox = iri("mbox");
  // email is inverse-functional: same email => same person.
  store.insert({email, vocab.rdf_type, vocab.owl_inverse_functional_property});
  store.insert({iri("p1"), email, iri("m")});
  store.insert({iri("p2"), email, iri("m")});
  store.insert({iri("p1"), mbox, iri("box1")});

  const MaterializeResult r = materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("p1"), vocab.owl_same_as, iri("p2")}));
  EXPECT_TRUE(store.contains({iri("p2"), vocab.owl_same_as, iri("p1")}));
  // rdfp11: p2 inherits p1's statements.
  EXPECT_TRUE(store.contains({iri("p2"), mbox, iri("box1")}));
  EXPECT_GT(r.inferred, 2u);
}

TEST_F(MaterializeTest, RestrictionsHasValue) {
  // Restriction R: onProperty p, hasValue v.  x with (x p v) gets typed R;
  // y typed R gets (y p v).
  const auto r = iri("R"), p = iri("p"), v = iri("v");
  store.insert({r, vocab.owl_on_property, p});
  store.insert({r, vocab.owl_has_value, v});
  store.insert({iri("x"), p, v});
  store.insert({iri("y"), vocab.rdf_type, r});

  materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("x"), vocab.rdf_type, r}));
  EXPECT_TRUE(store.contains({iri("y"), p, v}));
}

TEST_F(MaterializeTest, RestrictionsSomeAndAllValuesFrom) {
  const auto r1 = iri("R1"), r2 = iri("R2"), p = iri("p"), d = iri("D");
  store.insert({r1, vocab.owl_on_property, p});
  store.insert({r1, vocab.owl_some_values_from, d});
  store.insert({r2, vocab.owl_on_property, p});
  store.insert({r2, vocab.owl_all_values_from, d});

  store.insert({iri("x"), p, iri("y")});
  store.insert({iri("y"), vocab.rdf_type, d});   // => x type R1
  store.insert({iri("z"), vocab.rdf_type, r2});
  store.insert({iri("z"), p, iri("w")});         // => w type D

  materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("x"), vocab.rdf_type, r1}));
  EXPECT_TRUE(store.contains({iri("w"), vocab.rdf_type, d}));
}

TEST_F(MaterializeTest, EquivalentClassBothWays) {
  const auto a = iri("A"), b = iri("B");
  store.insert({a, vocab.owl_equivalent_class, b});
  store.insert({iri("x"), vocab.rdf_type, a});
  store.insert({iri("y"), vocab.rdf_type, b});

  materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("x"), vocab.rdf_type, b}));
  EXPECT_TRUE(store.contains({iri("y"), vocab.rdf_type, a}));
}

TEST_F(MaterializeTest, InverseOfBothDirections) {
  const auto p = iri("memberOf"), q = iri("hasMember");
  store.insert({p, vocab.owl_inverse_of, q});
  store.insert({iri("kim"), p, iri("acm")});
  store.insert({iri("ieee"), q, iri("bo")});

  materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("acm"), q, iri("kim")}));
  EXPECT_TRUE(store.contains({iri("bo"), p, iri("ieee")}));
}

TEST_F(MaterializeTest, DomainRangeTyping) {
  const auto teaches = iri("teaches");
  const auto teacher = iri("Teacher"), course = iri("Course");
  store.insert({teaches, vocab.rdfs_domain, teacher});
  store.insert({teaches, vocab.rdfs_range, course});
  store.insert({iri("kim"), teaches, iri("cs101")});

  materialize(store, dict, vocab, {});
  EXPECT_TRUE(store.contains({iri("kim"), vocab.rdf_type, teacher}));
  EXPECT_TRUE(store.contains({iri("cs101"), vocab.rdf_type, course}));
}

TEST_F(MaterializeTest, RangeDoesNotTypeLiterals) {
  const auto age = iri("age");
  store.insert({age, vocab.rdfs_range, iri("Number")});
  store.insert({iri("kim"), age, dict.intern_literal("\"42\"")});

  const MaterializeResult r = materialize(store, dict, vocab, {});
  EXPECT_EQ(r.inferred, 0u);
}

TEST_F(MaterializeTest, LubmGeneratedDataForwardVsQueryDriven) {
  gen::LubmOptions small;
  small.universities = 1;
  small.departments_per_university = 2;
  small.faculty_per_department = 4;
  small.students_per_faculty = 3;
  gen::generate_lubm(small, dict, store);

  rdf::TripleStore qd_store;
  qd_store.insert_all(store.triples());

  MaterializeOptions fwd;
  const MaterializeResult rf = materialize(store, dict, vocab, fwd);

  MaterializeOptions qd;
  qd.strategy = Strategy::kQueryDriven;
  const MaterializeResult rq = materialize(qd_store, dict, vocab, qd);

  EXPECT_GT(rf.inferred, 0u);
  EXPECT_EQ(rf.inferred, rq.inferred);
  EXPECT_EQ(store.size(), qd_store.size());
  for (const rdf::Triple& t : store.triples()) {
    ASSERT_TRUE(qd_store.contains(t));
  }
}

TEST_F(MaterializeTest, MaterializeIsIdempotent) {
  tiny_family_kb();
  materialize(store, dict, vocab, {});
  const std::size_t after_first = store.size();
  const MaterializeResult second = materialize(store, dict, vocab, {});
  EXPECT_EQ(second.inferred, 0u);
  EXPECT_EQ(store.size(), after_first);
}

TEST_F(MaterializeTest, IncrementalMatchesFullRematerialization) {
  tiny_family_kb();
  materialize(store, dict, vocab, {});

  // New family branch: d parentOf e — closure must extend to every
  // ancestor pair involving e.
  const std::vector<rdf::Triple> additions{
      {iri("d"), iri("parentOf"), iri("e")}};
  const IncrementalResult inc =
      materialize_incremental(store, dict, vocab, additions);
  EXPECT_FALSE(inc.schema_changed);
  EXPECT_EQ(inc.added, 1u);
  EXPECT_GT(inc.inferred, 0u);
  EXPECT_TRUE(store.contains({iri("a"), iri("ancestorOf"), iri("e")}));

  // Cross-check against full re-materialization from scratch.
  rdf::TripleStore fresh;
  tiny_family_kb_into(fresh);
  fresh.insert({iri("d"), iri("parentOf"), iri("e")});
  materialize(fresh, dict, vocab, {});
  EXPECT_EQ(store.size(), fresh.size());
  for (const rdf::Triple& t : fresh.triples()) {
    EXPECT_TRUE(store.contains(t));
  }
}

TEST_F(MaterializeTest, IncrementalRejectsSchemaChanges) {
  tiny_family_kb();
  materialize(store, dict, vocab, {});
  const std::size_t before = store.size();
  const std::vector<rdf::Triple> schema_add{
      {iri("Uncle"), vocab.rdfs_subclass_of, iri("Relative")}};
  const IncrementalResult inc =
      materialize_incremental(store, dict, vocab, schema_add);
  EXPECT_TRUE(inc.schema_changed);
  EXPECT_EQ(inc.added, 0u);
  EXPECT_EQ(store.size(), before);
}

TEST_F(MaterializeTest, IncrementalDuplicateAdditionsAreNoOps) {
  tiny_family_kb();
  materialize(store, dict, vocab, {});
  const std::size_t before = store.size();
  const std::vector<rdf::Triple> dup{
      {iri("a"), iri("parentOf"), iri("b")}};
  const IncrementalResult inc =
      materialize_incremental(store, dict, vocab, dup);
  EXPECT_EQ(inc.added, 0u);
  EXPECT_EQ(inc.inferred, 0u);
  EXPECT_EQ(store.size(), before);
}

TEST_F(MaterializeTest, QueryDrivenDeltaExtendsClosure) {
  tiny_family_kb();
  const rules::CompiledRules compiled = compile_ontology(store, vocab);
  store.insert_all(compiled.ground_facts);
  query_driven_closure(store, dict, compiled.rules);
  ASSERT_TRUE(store.contains({iri("a"), iri("ancestorOf"), iri("d")}));

  // Delta: a new parent edge hangs a node off the end of the chain.
  const std::size_t mark = store.size();
  store.insert({iri("d"), iri("parentOf"), iri("e")});
  const QueryDrivenStats stats = query_driven_closure_delta(
      store, dict, compiled.rules, mark);
  EXPECT_GT(stats.added, 0u);
  // Full chain closure reaches the new node from the far end.
  EXPECT_TRUE(store.contains({iri("a"), iri("ancestorOf"), iri("e")}));
  EXPECT_TRUE(store.contains({iri("b"), iri("ancestorOf"), iri("e")}));
}

TEST_F(MaterializeTest, QueryDrivenDeltaNoopOnEmptyDelta) {
  tiny_family_kb();
  const rules::CompiledRules compiled = compile_ontology(store, vocab);
  query_driven_closure(store, dict, compiled.rules);
  const std::size_t size = store.size();
  const QueryDrivenStats stats = query_driven_closure_delta(
      store, dict, compiled.rules, store.size());
  EXPECT_EQ(stats.sweeps, 0u);
  EXPECT_EQ(stats.added, 0u);
  EXPECT_EQ(store.size(), size);
}

TEST_F(MaterializeTest, QueryDrivenDeltaMatchesFullClosure) {
  // Build two stores: one closed from scratch, one closed then extended
  // with a batch via the delta path.  They must converge to the same set.
  tiny_family_kb();
  const rules::CompiledRules compiled = compile_ontology(store, vocab);
  query_driven_closure(store, dict, compiled.rules);
  const std::size_t mark = store.size();
  store.insert({iri("e"), iri("parentOf"), iri("f")});
  store.insert({iri("d"), iri("parentOf"), iri("e")});
  query_driven_closure_delta(store, dict, compiled.rules, mark);

  rdf::TripleStore scratch;
  tiny_family_kb_into(scratch);
  scratch.insert({iri("e"), iri("parentOf"), iri("f")});
  scratch.insert({iri("d"), iri("parentOf"), iri("e")});
  query_driven_closure(scratch, dict, compiled.rules);

  EXPECT_EQ(store.size(), scratch.size());
  for (const rdf::Triple& t : scratch.triples()) {
    EXPECT_TRUE(store.contains(t));
  }
}

TEST_F(MaterializeTest, MdcPartOfChainsClose) {
  gen::MdcOptions opts;
  opts.fields = 1;
  opts.reservoirs_per_field = 1;
  opts.wells_per_reservoir = 2;
  gen::generate_mdc(opts, dict, store);

  materialize(store, dict, vocab, {});
  // completion partOf well partOf reservoir partOf field must close:
  const auto part_of = dict.find_iri(std::string(gen::kMdcNs) + "partOf");
  ASSERT_NE(part_of, rdf::kAnyTerm);
  const auto comp = dict.find_iri(
      "http://cisoft.usc.edu/data/Field0/Completion0_0_0");
  const auto field = dict.find_iri("http://cisoft.usc.edu/data/Field0");
  ASSERT_NE(comp, rdf::kAnyTerm);
  ASSERT_NE(field, rdf::kAnyTerm);
  EXPECT_TRUE(store.contains({comp, part_of, field}));
  // ... and the inverse hasPart as well.
  const auto has_part = dict.find_iri(std::string(gen::kMdcNs) + "hasPart");
  EXPECT_TRUE(store.contains({field, has_part, comp}));
}

}  // namespace
}  // namespace parowl::reason
