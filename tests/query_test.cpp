#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "parowl/gen/lubm.hpp"
#include "parowl/query/bgp.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::query {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  SparqlParser parser{dict};

  rdf::TermId iri(const std::string& s) { return dict.intern_iri(s); }

  void small_kb() {
    const auto type = vocab.rdf_type;
    store.insert({iri("http://ex/kim"), type, iri("http://ex/Professor")});
    store.insert({iri("http://ex/bo"), type, iri("http://ex/Professor")});
    store.insert({iri("http://ex/sam"), type, iri("http://ex/Student")});
    store.insert({iri("http://ex/kim"), iri("http://ex/worksFor"),
                  iri("http://ex/csdept")});
    store.insert({iri("http://ex/bo"), iri("http://ex/worksFor"),
                  iri("http://ex/eedept")});
    store.insert({iri("http://ex/sam"), iri("http://ex/advisor"),
                  iri("http://ex/kim")});
    parser.add_prefix("ex", "http://ex/");
  }

  ResultSet run(const std::string& text) {
    std::string error;
    const auto q = parser.parse(text, &error);
    EXPECT_TRUE(q.has_value()) << error;
    if (!q) {
      return {};
    }
    return evaluate(store, *q);
  }
};

TEST_F(QueryTest, SinglederPatternBindsVariable) {
  small_kb();
  const ResultSet r = run("SELECT ?x WHERE { ?x a ex:Professor }");
  EXPECT_EQ(r.size(), 2u);
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], "x");
}

TEST_F(QueryTest, JoinAcrossPatterns) {
  small_kb();
  const ResultSet r = run(
      "SELECT ?s ?prof WHERE { ?s ex:advisor ?prof . ?prof a ex:Professor }");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0], iri("http://ex/sam"));
  EXPECT_EQ(r.rows[0][1], iri("http://ex/kim"));
}

TEST_F(QueryTest, ConstantSubjectProbe) {
  small_kb();
  const ResultSet r =
      run("SELECT ?d WHERE { ex:kim ex:worksFor ?d }");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0], iri("http://ex/csdept"));
}

TEST_F(QueryTest, SelectStarProjectsAllVariables) {
  small_kb();
  const ResultSet r = run("SELECT * WHERE { ?x ex:worksFor ?d }");
  EXPECT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(QueryTest, DistinctDeduplicates) {
  small_kb();
  // Two professors -> each matches; projection on the class only.
  const ResultSet all = run("SELECT ?c WHERE { ?x a ?c . ?x ex:worksFor ?d }");
  const ResultSet distinct =
      run("SELECT DISTINCT ?c WHERE { ?x a ?c . ?x ex:worksFor ?d }");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(distinct.size(), 1u);
}

TEST_F(QueryTest, LimitTruncates) {
  small_kb();
  const ResultSet r = run("SELECT ?x WHERE { ?x a ?c } LIMIT 2");
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(QueryTest, LimitZeroReturnsNoRows) {
  small_kb();
  EXPECT_EQ(run("SELECT ?x WHERE { ?x a ?c } LIMIT 0").size(), 0u);
  EXPECT_EQ(run("SELECT DISTINCT ?x WHERE { ?x a ?c } LIMIT 0").size(), 0u);
}

TEST_F(QueryTest, LiteralObjectMatch) {
  small_kb();
  store.insert({iri("http://ex/kim"), iri("http://ex/name"),
                dict.intern_literal("\"Kim\"")});
  const ResultSet r = run("SELECT ?x WHERE { ?x ex:name \"Kim\" }");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0], iri("http://ex/kim"));
}

TEST_F(QueryTest, EmptyResultForNoMatch) {
  small_kb();
  const ResultSet r = run("SELECT ?x WHERE { ?x a ex:Dean }");
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(QueryTest, ParserRejectsMalformedQueries) {
  small_kb();
  std::string error;
  EXPECT_FALSE(parser.parse("WHERE { ?x a ex:P }", &error).has_value());
  EXPECT_FALSE(parser.parse("SELECT ?x { ?x a }", &error).has_value());
  EXPECT_FALSE(parser.parse("SELECT ?x WHERE { ?x a ex:P", &error));
  EXPECT_FALSE(parser.parse("SELECT ?x WHERE { ?x unknown:p ?y }", &error));
  EXPECT_FALSE(
      parser.parse("SELECT ?x WHERE { ?x a ex:P } LIMIT abc", &error));
  EXPECT_FALSE(parser.parse("SELECT ?x WHERE { }", &error));
}

TEST_F(QueryTest, QueryPrefixesHoldForTheirQueryOnly) {
  small_kb();
  // A declaration overrides the registered prefix for its own query...
  EXPECT_EQ(run("PREFIX ex: <http://elsewhere/> "
                "SELECT ?x WHERE { ?x a ex:Professor }")
                .size(),
            0u);
  EXPECT_EQ(run("PREFIX staff: <http://ex/> "
                "SELECT ?x WHERE { ?x a staff:Professor }")
                .size(),
            2u);
  // ... and neither it nor a new name outlives that query.
  EXPECT_EQ(run("SELECT ?x WHERE { ?x a ex:Professor }").size(), 2u);
  std::string error;
  EXPECT_FALSE(
      parser.parse("SELECT ?x WHERE { ?x a staff:Professor }", &error));
}

TEST_F(QueryTest, CaseInsensitiveKeywords) {
  small_kb();
  const ResultSet r =
      run("select distinct ?x where { ?x a ex:Professor } limit 5");
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(QueryTest, SolveBgpCountsSolutions) {
  small_kb();
  const auto worksFor = iri("http://ex/worksFor");
  std::vector<rules::Atom> bgp{
      rules::Atom{rules::AtomTerm::var(0), rules::AtomTerm::constant(worksFor),
                  rules::AtomTerm::var(1)}};
  std::size_t count = 0;
  const std::size_t solutions =
      solve_bgp(store, bgp, [&count](const rules::Binding&) {
        ++count;
        return true;
      });
  EXPECT_EQ(solutions, 2u);
  EXPECT_EQ(count, 2u);
}

// The callback's `false` ends the join at once: evaluate relies on it to
// stop at LIMIT instead of enumerating every remaining solution.
TEST_F(QueryTest, SolveBgpStopsWhenTheCallbackDeclines) {
  const auto likes = iri("http://ex/likes");
  for (int i = 0; i < 12; ++i) {
    store.insert({iri("http://ex/fan" + std::to_string(i)), likes,
                  iri("http://ex/owl")});
  }
  const std::vector<rules::Atom> bgp{
      rules::Atom{rules::AtomTerm::var(0), rules::AtomTerm::constant(likes),
                  rules::AtomTerm::var(1)}};
  const auto all = [](const rules::Binding&) { return true; };
  EXPECT_EQ(solve_bgp(store, bgp, all), 12u);

  std::size_t calls = 0;
  const std::size_t visited = solve_bgp(store, bgp, [&](const rules::Binding&) {
    ++calls;
    return false;
  });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(calls, 1u);
}

TEST_F(QueryTest, ToTextRendersHeaderAndRows) {
  small_kb();
  const ResultSet r = run("SELECT ?x WHERE { ?x a ex:Student }");
  const std::string text = to_text(r, dict);
  EXPECT_NE(text.find("?x"), std::string::npos);
  EXPECT_NE(text.find("http://ex/sam"), std::string::npos);
}

TEST_F(QueryTest, QueriesOverMaterializedLubm) {
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  reason::materialize(store, dict, vocab, {});

  parser.add_prefix("ub", gen::kUnivBenchNs);

  // LUBM Query-style: all persons who are members of an organization —
  // only answerable after inference (worksFor < memberOf, typing via
  // domain/range, subclass closure).
  const ResultSet faculty = run(
      "SELECT DISTINCT ?x WHERE { ?x a ub:Faculty . ?x ub:memberOf ?d }");
  EXPECT_GT(faculty.size(), 0u);

  // Every FullProfessor is a Faculty via the subclass closure.
  const ResultSet full = run("SELECT DISTINCT ?x WHERE { ?x a ub:FullProfessor }");
  const ResultSet fac_all = run("SELECT DISTINCT ?x WHERE { ?x a ub:Faculty }");
  EXPECT_GE(fac_all.size(), full.size());
  EXPECT_GT(full.size(), 0u);

  // Transitive subOrganizationOf: research groups are suborgs of the
  // university (2 hops), present only after materialization.
  const ResultSet groups = run(
      "SELECT ?g WHERE { ?g a ub:ResearchGroup . "
      "?g ub:subOrganizationOf <http://www.Univ0.edu> }");
  EXPECT_GT(groups.size(), 0u);
}

// A basic graph pattern is joined with an `unsigned` mask of matched
// atoms, so 32 atoms would overflow it: with 31 `?x a ub:Course` atoms
// plus one unmatched atom the solver used to return one row with ?x
// unbound.  The parser now refuses more than 31 atoms; 31 still answer.
TEST_F(QueryTest, ParserRejectsMoreThanThirtyOneAtoms) {
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  reason::materialize(store, dict, vocab, {});
  parser.add_prefix("ub", gen::kUnivBenchNs);

  const auto query = [](std::size_t courses) {
    std::string text = "SELECT ?x WHERE { ";
    for (std::size_t i = 0; i < courses; ++i) {
      text += "?x a ub:Course . ";
    }
    return text + "?x <http://ex/none> ?x }";
  };
  std::string error;
  EXPECT_FALSE(parser.parse(query(31), &error).has_value());
  EXPECT_NE(error.find("more than 31"), std::string::npos) << error;
  EXPECT_EQ(run(query(30)).size(), 0u);
}

// BGPs built in code skip the parser's check; solve_bgp makes it: 31
// atoms answer, 32 throw instead of joining under an overflowed mask.
TEST_F(QueryTest, SolveBgpRejectsMoreThanThirtyOneAtoms) {
  small_kb();
  const rules::Atom professor{rules::AtomTerm::var(0),
                              rules::AtomTerm::constant(vocab.rdf_type),
                              rules::AtomTerm::constant(
                                  iri("http://ex/Professor"))};
  const auto count = [&](std::size_t atoms) {
    const std::vector<rules::Atom> bgp(atoms, professor);
    return solve_bgp(store, bgp, [](const rules::Binding&) { return true; });
  };
  EXPECT_EQ(count(31), 2u);
  EXPECT_THROW(count(32), std::invalid_argument);
}

}  // namespace
}  // namespace parowl::query
