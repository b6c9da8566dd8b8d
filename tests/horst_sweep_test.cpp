#include <gtest/gtest.h>

#include <algorithm>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/reason/equality.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::reason {
namespace {

/// Property sweep: for every HorstOptions configuration, the four engine
/// modes (forward/query-driven x compiled/generic) derive the same closure
/// on the same data.
struct SweepCase {
  bool same_as;
  bool restrictions;
  bool reflexivity;
  const char* dataset;  // "lubm" | "mdc" | "sameas"
};

class HorstSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab =
      std::make_unique<ontology::Vocabulary>(dict);
  rdf::TripleStore base;

  void build_dataset(const char* name) {
    if (std::string_view(name) == "lubm") {
      gen::LubmOptions o;
      o.universities = 1;
      o.departments_per_university = 1;
      o.faculty_per_department = 3;
      o.students_per_faculty = 2;
      gen::generate_lubm(o, dict, base);
    } else if (std::string_view(name) == "mdc") {
      gen::MdcOptions o;
      o.fields = 1;
      o.wells_per_reservoir = 3;
      gen::generate_mdc(o, dict, base);
    } else {
      // sameAs-heavy synthetic: inverse-functional emails plus facts to
      // propagate, and a hasValue restriction.
      const auto email = dict.intern_iri("http://ex/email");
      const auto mbox = dict.intern_iri("http://ex/mbox");
      const auto vip = dict.intern_iri("http://ex/VIP");
      const auto badge = dict.intern_iri("http://ex/badge");
      const auto gold = dict.intern_iri("http://ex/gold");
      base.insert({email, vocab->rdf_type,
                   vocab->owl_inverse_functional_property});
      base.insert({vip, vocab->owl_on_property, badge});
      base.insert({vip, vocab->owl_has_value, gold});
      for (int i = 0; i < 4; ++i) {
        const auto a =
            dict.intern_iri("http://ex/a" + std::to_string(i));
        const auto b =
            dict.intern_iri("http://ex/b" + std::to_string(i));
        const auto m =
            dict.intern_iri("http://ex/m" + std::to_string(i));
        base.insert({a, email, m});
        base.insert({b, email, m});
        base.insert({a, mbox, dict.intern_iri("http://ex/box" +
                                              std::to_string(i))});
        base.insert({a, badge, gold});
      }
    }
  }
};

TEST_P(HorstSweep, AllEngineModesAgree) {
  const SweepCase c = GetParam();
  build_dataset(c.dataset);

  rules::HorstOptions horst;
  horst.include_same_as = c.same_as;
  horst.include_restrictions = c.restrictions;
  horst.include_reflexivity = c.reflexivity;

  MaterializeOptions configs[3];
  configs[0] = {};  // forward, compiled
  configs[1].strategy = Strategy::kQueryDriven;
  configs[2].compile = false;  // forward, generic

  std::vector<rdf::TripleStore> stores(3);
  std::vector<std::size_t> inferred(3);
  for (int i = 0; i < 3; ++i) {
    configs[i].horst = horst;
    stores[i].insert_all(base.triples());
    inferred[static_cast<std::size_t>(i)] =
        materialize(stores[i], dict, *vocab, configs[i]).inferred;
  }

  // The generic run (configs[2]) also derives schema-level triples that
  // compiled runs pre-fold as ground facts, so compare instance-level
  // entailments: every triple of each closure must appear in the generic
  // closure, and the compiled closures must agree with each other exactly.
  EXPECT_EQ(stores[0].size(), stores[1].size());
  for (const rdf::Triple& t : stores[0].triples()) {
    ASSERT_TRUE(stores[1].contains(t));
    ASSERT_TRUE(stores[2].contains(t));
  }
  EXPECT_GT(inferred[0], 0u);

  // Equality-mode axis: with the sameAs rules active the forward engine can
  // also run under representative rewriting; the expanded rewrite closure
  // must equal the naive closure for the same HorstOptions, compiled or
  // generic.
  if (c.same_as) {
    for (const bool compile : {true, false}) {
      EqualityManager eq;
      MaterializeOptions ropts;
      ropts.horst = horst;
      ropts.compile = compile;
      ropts.equality_mode = EqualityMode::kRewrite;
      ropts.equality = &eq;
      rdf::TripleStore rewritten;
      rewritten.insert_all(base.triples());
      materialize(rewritten, dict, *vocab, ropts);

      std::vector<rdf::Triple> expected =
          (compile ? stores[0] : stores[2]).triples();
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(expand_closure(rewritten, eq, vocab->owl_same_as), expected)
          << (compile ? "compiled" : "generic") << " rewrite";
    }
  }
}

// Static storage zero-fills the padding bytes of each case, so the
// "GetParam() = 16-byte object <...>" suffix gtest lists is the same on
// every build instead of echoing stack garbage from temporaries.
constexpr SweepCase kSweepCases[] = {
    {true, true, false, "lubm"},    {false, true, false, "lubm"},
    {true, false, false, "lubm"},   {true, true, true, "lubm"},
    {true, true, false, "mdc"},     {false, false, false, "mdc"},
    {true, true, false, "sameas"},  {true, false, true, "sameas"}};

INSTANTIATE_TEST_SUITE_P(
    Configurations, HorstSweep, ::testing::ValuesIn(kSweepCases),
    [](const auto& param_info) {
      const SweepCase& c = param_info.param;
      return std::string(c.dataset) + (c.same_as ? "_sa" : "") +
             (c.restrictions ? "_re" : "") + (c.reflexivity ? "_rf" : "");
    });

}  // namespace
}  // namespace parowl::reason
