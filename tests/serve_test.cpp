#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/service.hpp"
#include "parowl/serve/workload.hpp"
#include "store_equality.hpp"

namespace parowl {
namespace {

/// Materialized LUBM-1 universe shared by the service tests.
struct ServeFixtureData {
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab;
  rdf::TripleStore store;  // materialized

  ServeFixtureData() : vocab(std::make_unique<ontology::Vocabulary>(dict)) {
    gen::LubmOptions o;
    o.universities = 1;
    gen::generate_lubm(o, dict, store);
    reason::materialize(store, dict, *vocab, {});
  }
};

serve::ServiceOptions small_options(std::size_t threads = 2) {
  serve::ServiceOptions o;
  o.threads = threads;
  o.queue_capacity = 256;
  return o;
}

// ---------------------------------------------------------------------------
// normalize_query / cache primitives

TEST(NormalizeQuery, CollapsesLayoutDifferences) {
  const std::string a =
      serve::normalize_query("SELECT ?x\nWHERE {\n  ?x a ub:Student\n}\n");
  const std::string b =
      serve::normalize_query("  SELECT  ?x WHERE { ?x a ub:Student }  ");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SELECT ?x WHERE { ?x a ub:Student }");
}

TEST(NormalizeQuery, StripsComments) {
  EXPECT_EQ(serve::normalize_query("SELECT ?x # everything\nWHERE { }"),
            "SELECT ?x WHERE { }");
}

TEST(NormalizeQuery, HashInsideIriOrLiteralIsNotAComment) {
  // One-line queries whose prefix IRI ends in '#': read as a comment, the
  // '#' cut both down to the same key.
  const std::string prefix =
      std::string("PREFIX ub: <") + gen::kUnivBenchNs + "> ";
  const std::string students =
      serve::normalize_query(prefix + "SELECT ?x WHERE { ?x a ub:Student }");
  const std::string undergrads = serve::normalize_query(
      prefix + "SELECT ?x WHERE { ?x a ub:UndergraduateStudent }");
  EXPECT_NE(students, undergrads);
  EXPECT_EQ(students, prefix + "SELECT ?x WHERE { ?x a ub:Student }");
  EXPECT_EQ(serve::normalize_query(
                "SELECT ?x WHERE { ?x <http://e/p> \"a # b\" } # note"),
            "SELECT ?x WHERE { ?x <http://e/p> \"a # b\" }");
  // A '<' that opens no IRI is an operator; a comment after it still goes.
  EXPECT_EQ(serve::normalize_query("FILTER(?n < 3) # small\n}"),
            "FILTER(?n < 3) }");
}

TEST(QueryService, OneLinePrefixedQueriesGetTheirOwnCacheEntries) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  const std::string prefix =
      std::string("PREFIX ub: <") + gen::kUnivBenchNs + "> ";
  const serve::Response students =
      service.execute(prefix + "SELECT ?x WHERE { ?x a ub:Student }");
  const serve::Response undergrads = service.execute(
      prefix + "SELECT ?x WHERE { ?x a ub:UndergraduateStudent }");
  ASSERT_EQ(students.status, serve::RequestStatus::kOk);
  ASSERT_EQ(undergrads.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(undergrads.cache_hit);
  EXPECT_GT(students.results.size(), undergrads.results.size());
  EXPECT_GT(undergrads.results.size(), 0u);
}

TEST(ResultCache, HitFromNewerSnapshotCarriesThatVersion) {
  // A reader pinned snapshot v; meanwhile another reader cached rows it
  // computed at v + 1.  The hit must be stamped v + 1, not v.
  serve::ResultCache cache(/*shards=*/1, /*capacity_per_shard=*/8);
  const std::uint64_t pinned = 3;
  serve::CachedResult newer;
  newer.version = pinned + 1;
  newer.predicate_footprint = {7};
  newer.results.columns = {"x"};
  newer.results.rows = {{1}, {2}};
  cache.insert("q", newer);

  const std::optional<serve::CacheHit> hit = cache.lookup("q");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->version, pinned + 1);
  EXPECT_EQ(hit->stamp(pinned), pinned + 1);
  EXPECT_EQ(hit->results.rows, newer.results.rows);
  // An entry older than the pin survived every invalidation since: it
  // answers for the pinned snapshot.
  EXPECT_EQ(hit->stamp(pinned + 5), pinned + 5);
}

TEST(ResultCache, LruEvictsOldest) {
  serve::ResultCache cache(/*shards=*/1, /*capacity_per_shard=*/2);
  serve::CachedResult entry;
  entry.version = 1;
  entry.predicate_footprint = {7};
  cache.insert("q1", entry);
  cache.insert("q2", entry);
  ASSERT_TRUE(cache.lookup("q1").has_value());  // refresh q1: q2 is now LRU
  cache.insert("q3", entry);
  EXPECT_FALSE(cache.lookup("q2").has_value());
  EXPECT_TRUE(cache.lookup("q1").has_value());
  EXPECT_TRUE(cache.lookup("q3").has_value());
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, FootprintInvalidationIsSelective) {
  serve::ResultCache cache(2, 8);
  serve::CachedResult touches_7;
  touches_7.version = 1;
  touches_7.predicate_footprint = {7};
  serve::CachedResult touches_9;
  touches_9.version = 1;
  touches_9.predicate_footprint = {9};
  serve::CachedResult wildcard;
  wildcard.version = 1;
  wildcard.wildcard_predicate = true;
  cache.insert("a", touches_7);
  cache.insert("b", touches_9);
  cache.insert("c", wildcard);

  const rdf::TermId delta[] = {7};
  EXPECT_EQ(cache.on_update(delta, /*new_version=*/2), 2u);  // "a" and "c"
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());
  EXPECT_FALSE(cache.lookup("c").has_value());
}

TEST(ResultCache, VersionFloorRejectsStaleInserts) {
  serve::ResultCache cache(1, 8);
  const rdf::TermId delta[] = {7};
  cache.on_update(delta, /*new_version=*/2);

  serve::CachedResult stale;
  stale.version = 1;  // computed against the pre-update snapshot
  cache.insert("q", stale);
  EXPECT_FALSE(cache.lookup("q").has_value());
  EXPECT_EQ(cache.counters().rejected, 1u);

  serve::CachedResult fresh;
  fresh.version = 2;
  cache.insert("q", fresh);
  EXPECT_TRUE(cache.lookup("q").has_value());
}

TEST(ResultCache, DisabledCacheNeverHits) {
  serve::ResultCache cache(4, /*capacity_per_shard=*/0);
  EXPECT_FALSE(cache.enabled());
  serve::CachedResult entry;
  entry.version = 1;
  cache.insert("q", entry);
  EXPECT_FALSE(cache.lookup("q").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LatencyHistogram, PercentilesBracketSamples) {
  serve::LatencyHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.record_seconds(100e-6);  // 100 us
  }
  for (int i = 0; i < 10; ++i) {
    h.record_seconds(10e-3);  // 10 ms
  }
  EXPECT_EQ(h.count(), 100u);
  const double p50 = h.percentile_seconds(0.50);
  EXPECT_GE(p50, 100e-6);
  EXPECT_LT(p50, 1e-3);
  const double p99 = h.percentile_seconds(0.99);
  EXPECT_GE(p99, 10e-3);
  EXPECT_LT(p99, 50e-3);
}

// ---------------------------------------------------------------------------
// acceptance (a): concurrent queries return byte-identical results to serial

TEST(QueryService, ConcurrentQueriesMatchSerialExecution) {
  ServeFixtureData fx;

  // Serial ground truth, computed directly against the store.
  std::vector<std::string> texts;
  std::vector<query::ResultSet> expected;
  {
    query::SparqlParser parser(fx.dict);
    for (const gen::LubmQuery& q : gen::lubm_queries()) {
      texts.push_back(q.sparql);
      std::string error;
      const auto parsed = parser.parse(q.sparql, &error);
      ASSERT_TRUE(parsed.has_value()) << q.name << ": " << error;
      expected.push_back(query::evaluate(fx.store, *parsed));
    }
  }

  rdf::TripleStore copy = fx.store;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(copy),
                              small_options(/*threads=*/4));

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the start so every thread still covers every query.
        for (std::size_t i = 0; i < texts.size(); ++i) {
          const std::size_t q = (i + static_cast<std::size_t>(t)) % texts.size();
          const serve::Response r = service.execute(texts[q]);
          if (r.status != serve::RequestStatus::kOk ||
              r.results.columns != expected[q].columns ||
              r.results.rows != expected[q].rows) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kThreads * kRounds) * texts.size());
  // 14 distinct queries, hundreds of requests: nearly everything hits.
  EXPECT_GT(stats.cache.hits, stats.cache.misses);
}

// ---------------------------------------------------------------------------
// acceptance (b): incremental updates invalidate exactly the overlapping
// entries and re-executed queries see the new closure

TEST(QueryService, UpdateInvalidatesByPredicateFootprint) {
  ServeFixtureData fx;
  const std::string prefix =
      std::string("PREFIX ub: <") + gen::kUnivBenchNs + ">\n";
  const std::string q_students =
      prefix + "SELECT ?x WHERE { ?x a ub:Student }";
  const std::string q_names =
      prefix + "SELECT ?x ?n WHERE { ?x ub:name ?n }";

  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());

  const serve::Response students_before = service.execute(q_students);
  const serve::Response names_before = service.execute(q_names);
  ASSERT_EQ(students_before.status, serve::RequestStatus::kOk);
  ASSERT_GT(students_before.results.size(), 0u);
  EXPECT_EQ(service.execute(q_students).cache_hit, true);
  EXPECT_EQ(service.execute(q_names).cache_hit, true);

  // A new graduate student arrives: the closure must type it as a Student
  // (subclass chain), so the delta touches rdf:type.
  std::vector<rdf::Triple> batch;
  service.with_dict_exclusive([&](rdf::Dictionary& dict) {
    const auto stu =
        dict.intern_iri("http://www.Department0.Univ0.edu/BrandNewStudent");
    const auto type =
        dict.intern_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    const auto grad = dict.intern_iri(std::string(gen::kUnivBenchNs) +
                                      "GraduateStudent");
    batch.push_back({stu, type, grad});
    return 0;
  });
  const serve::UpdateOutcome outcome = service.apply_update(batch);
  ASSERT_FALSE(outcome.result.schema_changed);
  EXPECT_EQ(outcome.version, 2u);
  EXPECT_EQ(outcome.result.added, 1u);
  EXPECT_GE(outcome.result.inferred, 1u);  // at least (stu, type, Student)
  EXPECT_GE(outcome.invalidated, 1u);      // the type-footprint entry

  // The students query was invalidated and now reflects the new closure.
  const serve::Response students_after = service.execute(q_students);
  EXPECT_FALSE(students_after.cache_hit);
  EXPECT_EQ(students_after.snapshot_version, 2u);
  EXPECT_EQ(students_after.results.size(),
            students_before.results.size() + 1);

  // The names query's footprint (ub:name) is untouched: still cached, same
  // answer.
  const serve::Response names_after = service.execute(q_names);
  EXPECT_TRUE(names_after.cache_hit);
  EXPECT_EQ(names_after.snapshot_version, 2u);  // cached at 1, pinned at 2
  EXPECT_EQ(names_after.results.rows, names_before.results.rows);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_version, 2u);
  EXPECT_EQ(stats.updates_applied, 1u);
}

TEST(QueryService, SchemaUpdateIsRejectedWithoutPublishing) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  std::vector<rdf::Triple> batch;
  service.with_dict_exclusive([&](rdf::Dictionary& dict) {
    const auto cls = dict.intern_iri("http://example.org/NewClass");
    const auto subclass = dict.intern_iri(
        "http://www.w3.org/2000/01/rdf-schema#subClassOf");
    const auto thing =
        dict.intern_iri("http://www.w3.org/2002/07/owl#Thing");
    batch.push_back({cls, subclass, thing});
    return 0;
  });
  const serve::UpdateOutcome outcome = service.apply_update(batch);
  EXPECT_TRUE(outcome.result.schema_changed);
  EXPECT_EQ(outcome.version, 0u);
  EXPECT_EQ(service.snapshot()->version, 1u);
}

TEST(QueryService, DerivedSchemaTriplesRecompileTheRuleBase) {
  // The Updater compiles the rule base once and keeps it while the
  // closure's schema triples stay put.  Under naive equality an instance
  // batch can still derive schema triples: `ex:a owl:sameAs ub:Course`
  // copies every axiom about Course onto ex:a.  The next batch must then
  // compile again, and the closure must still match a full
  // materialization.
  ServeFixtureData fx;
  std::vector<rdf::Triple> closure = fx.store.triples();
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  std::vector<rdf::Triple> same_as;
  std::vector<rdf::Triple> typed;
  std::vector<rdf::Triple> plain;
  service.with_dict_exclusive([&](rdf::Dictionary& dict) {
    const auto alias = dict.intern_iri("http://example.org/CourseAlias");
    const auto type =
        dict.intern_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    same_as.push_back(
        {alias, dict.intern_iri("http://www.w3.org/2002/07/owl#sameAs"),
         dict.intern_iri(std::string(gen::kUnivBenchNs) + "Course")});
    typed.push_back(
        {dict.intern_iri("http://example.org/AliasedCourse"), type, alias});
    plain.push_back(
        {dict.intern_iri("http://www.Department0.Univ0.edu/PlainStudent"),
         type,
         dict.intern_iri(std::string(gen::kUnivBenchNs) + "GraduateStudent")});
    return 0;
  });

  const serve::UpdateOutcome first = service.apply_update(same_as);
  ASSERT_FALSE(first.result.schema_changed);
  ASSERT_NE(first.version, 0u);
  EXPECT_TRUE(first.compiled_rules);
  const serve::SnapshotPtr after_first = service.snapshot();
  const auto& log = after_first->store.triples();
  ASSERT_TRUE(std::any_of(
      log.begin() + static_cast<std::ptrdiff_t>(after_first->delta_begin),
      log.end(),
      [&](const rdf::Triple& t) { return fx.vocab->is_schema_triple(t); }));

  const serve::UpdateOutcome second = service.apply_update(typed);
  ASSERT_NE(second.version, 0u);
  EXPECT_TRUE(second.compiled_rules);
  const serve::UpdateOutcome third = service.apply_update(plain);
  ASSERT_NE(third.version, 0u);
  EXPECT_FALSE(third.compiled_rules);

  rdf::TripleStore oracle;
  oracle.insert_all(closure);
  for (const auto* batch : {&same_as, &typed, &plain}) {
    oracle.insert_all(*batch);
  }
  reason::materialize(oracle, fx.dict, *fx.vocab, {});
  std::vector<rdf::Triple> want = oracle.triples();
  std::vector<rdf::Triple> got = service.snapshot()->store.triples();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// acceptance (c): full queue sheds with kOverloaded, deterministically

TEST(QueryService, ShedsWithOverloadedWhenQueueIsFull) {
  ServeFixtureData fx;
  serve::ServiceOptions opts = small_options(/*threads=*/1);
  opts.queue_capacity = 2;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store), opts);
  const std::string q = gen::lubm_queries().front().sparql;

  // Park the single worker on a gate job so nothing drains the queue.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  serve::Executor::Job job;
  job.run = [gate](bool) { gate.wait(); };
  ASSERT_TRUE(service.executor().try_submit(std::move(job)));
  while (service.executor().queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Fill the bounded queue exactly to capacity...
  std::atomic<int> ok{0}, overloaded{0};
  auto done = [&](const serve::Response& r) {
    if (r.status == serve::RequestStatus::kOk) {
      ok.fetch_add(1);
    } else if (r.status == serve::RequestStatus::kOverloaded) {
      overloaded.fetch_add(1);
    }
  };
  EXPECT_TRUE(service.submit(q, done));
  EXPECT_TRUE(service.submit(q, done));

  // ... and the next admissions must shed, inline, without blocking.
  EXPECT_FALSE(service.submit(q, done));
  EXPECT_FALSE(service.submit(q, done));
  EXPECT_EQ(overloaded.load(), 2);

  release.set_value();
  service.drain();
  EXPECT_EQ(ok.load(), 2);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryService, ExpiredRequestsReportDeadlineExceeded) {
  ServeFixtureData fx;
  serve::ServiceOptions opts = small_options(/*threads=*/1);
  opts.queue_capacity = 8;
  opts.default_deadline_seconds = 1e-3;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store), opts);
  const std::string q = gen::lubm_queries().front().sparql;

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  serve::Executor::Job job;
  job.run = [gate](bool) { gate.wait(); };
  ASSERT_TRUE(service.executor().try_submit(std::move(job)));
  while (service.executor().queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<int> expired{0};
  service.submit(q, [&](const serve::Response& r) {
    if (r.status == serve::RequestStatus::kDeadlineExceeded) {
      expired.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // > deadline
  release.set_value();
  service.drain();
  EXPECT_EQ(expired.load(), 1);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(QueryService, ParseErrorsAreReportedNotCached) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  const serve::Response r = service.execute("NOT SPARQL AT ALL");
  EXPECT_EQ(r.status, serve::RequestStatus::kParseError);
  EXPECT_FALSE(r.error.empty());
  const serve::Response again = service.execute("NOT SPARQL AT ALL");
  EXPECT_EQ(again.status, serve::RequestStatus::kParseError);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.stats().parse_errors, 2u);
}

TEST(QueryService, QueryPrefixesDoNotLeakAcrossRequests) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  const std::string undeclared = "SELECT ?x WHERE { ?x a foo:C }";
  EXPECT_EQ(service.execute(undeclared).status,
            serve::RequestStatus::kParseError);
  const serve::Response declared = service.execute(
      "PREFIX foo: <http://example.org/foo#> " + undeclared);
  EXPECT_EQ(declared.status, serve::RequestStatus::kOk);
  EXPECT_EQ(service.execute(undeclared).status,
            serve::RequestStatus::kParseError);
}

// ---------------------------------------------------------------------------
// workload driver

TEST(Workload, ClosedLoopAnswersEveryRequest) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());
  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }
  serve::WorkloadOptions wopts;
  wopts.mode = serve::WorkloadMode::kClosedLoop;
  wopts.total_requests = 60;
  wopts.clients = 3;
  wopts.seed = 7;
  const serve::WorkloadReport report =
      serve::run_workload(service, queries, wopts);
  EXPECT_EQ(report.submitted, 60u);
  EXPECT_EQ(report.completed + report.shed + report.deadline_exceeded +
                report.parse_errors,
            60u);
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_EQ(report.latency.count(), 60u);
}

TEST(Workload, OpenLoopShedsWhenOfferedLoadExceedsQueue) {
  ServeFixtureData fx;
  serve::ServiceOptions opts = small_options(/*threads=*/1);
  opts.queue_capacity = 1;
  opts.cache_enabled = false;  // every request pays full evaluation
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store), opts);
  // The heaviest queries at an arrival rate far beyond one thread's
  // capacity: a bounded queue of one must shed some of them.
  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }
  serve::WorkloadOptions wopts;
  wopts.mode = serve::WorkloadMode::kOpenLoop;
  wopts.total_requests = 300;
  wopts.arrival_rate_qps = 1e6;
  wopts.seed = 11;
  const serve::WorkloadReport report =
      serve::run_workload(service, queries, wopts);
  EXPECT_EQ(report.submitted, 300u);
  EXPECT_EQ(report.completed + report.shed + report.deadline_exceeded, 300u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.completed, 0u);
}

TEST(Workload, LoadQueryLinesSkipsNoiseAndJoinsContinuations) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "SELECT ?x WHERE { ?x a ub:Student }\n"
      "PREFIX ub: <http://x/> \\\n"
      "  SELECT ?y WHERE { ?y a ub:Course }\n");
  const std::vector<std::string> queries = serve::load_query_lines(in);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0], "SELECT ?x WHERE { ?x a ub:Student }");
  EXPECT_EQ(queries[1],
            "PREFIX ub: <http://x/> SELECT ?y WHERE { ?y a ub:Course }");
}

// ---------------------------------------------------------------------------
// updates racing live traffic stay consistent (deterministic seed)

TEST(QueryService, ConcurrentUpdatesNeverServeTornResults) {
  ServeFixtureData fx;
  const std::string prefix =
      std::string("PREFIX ub: <") + gen::kUnivBenchNs + ">\n";
  const std::string q_students =
      prefix + "SELECT ?x WHERE { ?x a ub:GraduateStudent }";

  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options(/*threads=*/2));
  const std::size_t base_count = service.execute(q_students).results.size();

  constexpr int kBatches = 5;
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<rdf::Triple> batch;
      service.with_dict_exclusive([&](rdf::Dictionary& dict) {
        const auto stu = dict.intern_iri(
            "http://www.Department0.Univ0.edu/RaceStudent" +
            std::to_string(b));
        const auto type = dict.intern_iri(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        const auto grad = dict.intern_iri(std::string(gen::kUnivBenchNs) +
                                          "GraduateStudent");
        batch.push_back({stu, type, grad});
        return 0;
      });
      service.apply_update(batch);
    }
  });

  // Readers: counts must be monotone in [base, base + kBatches] — a torn
  // snapshot or stale-but-overlapping cache hit would break monotonicity.
  std::atomic<bool> violation{false};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::size_t last = base_count;
      for (int i = 0; i < 200; ++i) {
        const serve::Response r = service.execute(q_students);
        const std::size_t n = r.results.size();
        if (n < last || n > base_count + kBatches) {
          violation = true;
        }
        last = n;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_FALSE(violation.load());

  // After the writer finishes, the closure reflects every batch.
  const serve::Response final_r = service.execute(q_students);
  EXPECT_EQ(final_r.results.size(), base_count + kBatches);
  EXPECT_EQ(service.snapshot()->version, 1u + kBatches);
}

TEST(QueryService, PinnedVersionsNeverSeeLaterBatches) {
  // Successive snapshots share the store's segments copy-on-write.  Pin
  // every published version across 20 mixed batches: at the end each must
  // still equal a fresh store built from the log it had when published, so
  // no later batch wrote through a segment an older version still uses.
  ServeFixtureData fx;
  const auto ub = [](const char* local) {
    return std::string(gen::kUnivBenchNs) + local;
  };
  const rdf::TermId takes = fx.dict.intern_iri(ub("takesCourse"));
  const std::span<const rdf::Triple> taken = fx.store.with_predicate(takes);
  ASSERT_GE(taken.size(), 40u);
  const std::vector<rdf::Triple> courses(taken.begin(), taken.begin() + 40);
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());

  std::vector<serve::SnapshotPtr> pinned{service.snapshot()};
  std::vector<std::vector<rdf::Triple>> logs{pinned.back()->store.triples()};
  std::vector<rdf::Triple> added;
  std::size_t removed = 0;
  for (int b = 0; b < 20; ++b) {
    std::vector<rdf::Triple> additions;
    service.with_dict_exclusive([&](rdf::Dictionary& dict) {
      const auto stu = dict.intern_iri(
          "http://www.Department0.Univ0.edu/ChainStudent" + std::to_string(b));
      const auto type = dict.intern_iri(
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
      additions.push_back({stu, type, dict.intern_iri(ub("GraduateStudent"))});
      additions.push_back(
          {stu, dict.intern_iri(ub("memberOf")),
           dict.intern_iri("http://www.Department0.Univ0.edu")});
      return 0;
    });
    // Retract two original enrolments and, every other batch, the type of
    // the previous batch's student.
    std::vector<rdf::Triple> deletions{courses[2 * b], courses[2 * b + 1]};
    if (b % 2 == 1) {
      deletions.push_back(added[added.size() - 2]);
    }
    added.insert(added.end(), additions.begin(), additions.end());
    const serve::UpdateOutcome outcome =
        service.apply_update(additions, deletions);
    ASSERT_NE(outcome.version, 0u) << "batch " << b;
    removed += outcome.maintain.removed;
    pinned.push_back(service.snapshot());
    logs.push_back(pinned.back()->store.triples());
  }
  EXPECT_GT(removed, 0u);
  for (std::size_t v = 0; v < pinned.size(); ++v) {
    rdf::expect_same_store(pinned[v]->store, rdf::rebuilt_from_log(logs[v]),
                           "version " + std::to_string(pinned[v]->version));
  }
}

TEST(QueryService, SaveSnapshotPersistsTheLatestPublishedVersion) {
  ServeFixtureData fx;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(fx.store),
                              small_options());

  // Advance past the initial version so the saved bytes provably come from
  // the *current* snapshot, not the construction-time store.
  std::vector<rdf::Triple> batch;
  service.with_dict_exclusive([&](rdf::Dictionary& dict) {
    const auto stu = dict.intern_iri(
        "http://www.Department0.Univ0.edu/SnapshotStudent0");
    const auto type = dict.intern_iri(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    const auto grad = dict.intern_iri(std::string(gen::kUnivBenchNs) +
                                      "GraduateStudent");
    batch.push_back({stu, type, grad});
    return 0;
  });
  service.apply_update(batch);

  std::ostringstream out;
  const rdf::SnapshotStats ss = service.save_snapshot(out);
  EXPECT_EQ(ss.bytes, out.str().size());
  EXPECT_EQ(ss.triples, service.snapshot()->store.size());

  // The snapshot reloads into a KB identical to what the service serves.
  std::istringstream in(out.str());
  rdf::Dictionary dict2;
  rdf::TripleStore store2;
  std::string error;
  ASSERT_TRUE(rdf::load_snapshot(in, dict2, store2, &error)) << error;
  EXPECT_EQ(store2.size(), service.snapshot()->store.size());
  EXPECT_EQ(store2.triples(), service.snapshot()->store.triples());
}

}  // namespace
}  // namespace parowl
