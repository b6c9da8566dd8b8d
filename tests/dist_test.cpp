#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "parowl/dist/query_router.hpp"
#include "parowl/dist/service.hpp"
#include "parowl/dist/shard_catalog.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "parowl/serve/workload.hpp"

namespace parowl {
namespace {

constexpr const char* kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Materialized LUBM-1 universe shared by the distributed-serving tests.
struct DistFixtureData {
  rdf::Dictionary dict;
  std::unique_ptr<ontology::Vocabulary> vocab;
  rdf::TripleStore store;  // materialized closure

  DistFixtureData() : vocab(std::make_unique<ontology::Vocabulary>(dict)) {
    gen::LubmOptions o;
    o.universities = 1;
    gen::generate_lubm(o, dict, store);
    reason::materialize(store, dict, *vocab, {});
  }

  /// Owner table for k partitions (hash policy: cheap and deterministic).
  [[nodiscard]] partition::OwnerTable owners_for(std::uint32_t k) const {
    const partition::HashOwnerPolicy policy;
    return partition::partition_data(store, dict, *vocab, policy, k).owners;
  }
};

dist::DistOptions dist_options(std::uint32_t replicas = 1,
                               std::size_t threads = 1) {
  dist::DistOptions o;
  o.threads = threads;
  o.queue_capacity = 256;
  o.replicas = replicas;
  return o;
}

/// Canonical row order — what DistService answers in.
query::ResultSet sorted_rows(query::ResultSet rs) {
  std::sort(rs.rows.begin(), rs.rows.end());
  return rs;
}

/// The single-store ground truth: QueryService answers, canonicalized.
std::vector<std::pair<std::string, query::ResultSet>> reference_answers(
    DistFixtureData& fx) {
  rdf::TripleStore copy = fx.store;
  serve::ServiceOptions so;
  so.threads = 1;
  serve::QueryService service(fx.dict, *fx.vocab, std::move(copy), so);
  std::vector<std::pair<std::string, query::ResultSet>> out;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    const serve::Response r = service.execute(q.sparql);
    EXPECT_EQ(r.status, serve::RequestStatus::kOk) << q.name;
    out.emplace_back(q.sparql, sorted_rows(r.results));
  }
  return out;
}

void expect_identical(const query::ResultSet& expected,
                      const query::ResultSet& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.columns, actual.columns) << label;
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << label;
  EXPECT_EQ(expected.rows, actual.rows) << label;
}

// ---------------------------------------------------------------------------
// ShardCatalog: placement coverage and codec round-trip

TEST(ShardCatalog, ShardsCoverClosureAndRoundTripThroughCodec) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 4;
  dist::ShardCatalog catalog(fx.store, fx.owners_for(k), k);

  const auto& owners = catalog.owners();
  std::unordered_set<rdf::Triple, rdf::TripleHash> covered;
  for (std::uint32_t p = 0; p < k; ++p) {
    std::vector<rdf::Triple> decoded;
    std::string error;
    ASSERT_TRUE(dist::ShardCatalog::decode(catalog.shard(p), decoded, &error))
        << error;
    EXPECT_EQ(decoded.size(), catalog.shard(p).triple_count);
    covered.insert(decoded.begin(), decoded.end());

    // Every triple on shard p belongs there by the placement rule.
    std::vector<std::uint32_t> dests;
    for (const rdf::Triple& t : decoded) {
      dests.clear();
      partition::append_shard_destinations(owners, t, k, dests);
      EXPECT_NE(std::find(dests.begin(), dests.end(), p), dests.end());
    }
  }
  // Union of shards == closure (no triple lost, none invented).
  EXPECT_EQ(covered.size(), fx.store.size());
  for (const rdf::Triple& t : fx.store.triples()) {
    EXPECT_TRUE(covered.contains(t));
  }

  // A triple with no owned endpoint is broadcast to every shard.
  std::vector<std::uint32_t> dests;
  partition::append_shard_destinations(
      owners, rdf::Triple{0xFFFFFF, 0xFFFFFE, 0xFFFFFD}, k, dests);
  EXPECT_EQ(dests.size(), k);

  // Damage is detected, not silently decoded.
  dist::EncodedShard corrupt = catalog.shard(0);
  corrupt.bytes[corrupt.bytes.size() / 2] ^= 0x40;
  std::vector<rdf::Triple> decoded;
  EXPECT_FALSE(dist::ShardCatalog::decode(corrupt, decoded, nullptr));
}

// ---------------------------------------------------------------------------
// QueryRouter: footprint computation

TEST(DistRouter, FootprintNarrowsToOwnedConstantEndpoint) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 4;
  parallel::MemoryTransport transport(
      dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, dist_options());

  // Find an owned instance subject and its lexical form.
  const auto& owners = service.catalog().owners();
  const rdf::TermId type = fx.dict.find_iri(kRdfType);
  ASSERT_NE(type, rdf::kAnyTerm);
  rdf::TermId subject = rdf::kAnyTerm;
  for (const rdf::Triple& t : fx.store.triples()) {
    if (t.p == type && owners.contains(t.s)) {
      subject = t.s;
      break;
    }
  }
  ASSERT_NE(subject, rdf::kAnyTerm);

  query::SparqlParser parser(fx.dict);
  const std::string narrow = "SELECT ?c WHERE { <" +
                             fx.dict.lexical(subject) + "> a ?c }";
  const std::string wide = "SELECT ?x WHERE { ?x a ?c }";
  const auto narrow_q = parser.parse(narrow);
  const auto wide_q = parser.parse(wide);
  ASSERT_TRUE(narrow_q.has_value());
  ASSERT_TRUE(wide_q.has_value());

  dist::QueryRouter router(owners, service.layout(), service.replicas(),
                           transport);
  const auto narrow_fp = router.footprint(*narrow_q);
  ASSERT_EQ(narrow_fp.partitions.size(), 1u);
  EXPECT_EQ(narrow_fp.partitions[0], owners.at(subject));

  const auto wide_fp = router.footprint(*wide_q);
  EXPECT_EQ(wide_fp.partitions.size(), k);
}

// ---------------------------------------------------------------------------
// Acceptance: distributed answers bit-identical to single-store QueryService

TEST(DistService, BitIdenticalToSingleStoreForAllPartitionCounts) {
  DistFixtureData fx;
  const auto expected = reference_answers(fx);

  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    parallel::MemoryTransport transport(
        dist::NodeLayout{k, 1}.num_nodes());
    dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                              transport, dist_options());
    for (const auto& [sparql, want] : expected) {
      const serve::Response got = service.execute(sparql);
      ASSERT_EQ(got.status, serve::RequestStatus::kOk) << "k=" << k;
      expect_identical(want, got.results, "k=" + std::to_string(k));
    }
    const dist::DistStats stats = service.stats();
    EXPECT_EQ(stats.completed, expected.size());
    EXPECT_EQ(stats.unavailable, 0u);
    EXPECT_GT(stats.scans_sent, 0u);
    EXPECT_GT(stats.shard_bytes_shipped, 0u);
  }
}

TEST(DistService, BitIdenticalWithStreamingPartitioners) {
  // Owner tables from the streaming partitioners must serve the same
  // answers as the single store — placement only moves triples, never
  // loses them.
  DistFixtureData fx;
  const auto expected = reference_answers(fx);
  constexpr std::uint32_t k = 4;

  for (const auto kind :
       {partition::PartitionerKind::kHdrf, partition::PartitionerKind::kNe}) {
    partition::PartitionerOptions popts;
    popts.kind = kind;
    const partition::StreamingOwnerPolicy policy(popts);
    partition::OwnerTable owners =
        partition::partition_data(fx.store, fx.dict, *fx.vocab, policy, k)
            .owners;
    parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
    dist::DistService service(fx.dict, fx.store, std::move(owners), k,
                              transport, dist_options());
    for (const auto& [sparql, want] : expected) {
      const serve::Response got = service.execute(sparql);
      ASSERT_EQ(got.status, serve::RequestStatus::kOk) << policy.name();
      expect_identical(want, got.results, policy.name());
    }
  }
}

TEST(DistService, BitIdenticalUnderFaultsWithReplicaKilledMidRun) {
  DistFixtureData fx;
  const auto expected = reference_answers(fx);
  constexpr std::uint32_t k = 4;

  std::uint64_t total_retransmissions = 0;
  std::uint64_t total_failovers = 0;
  for (const std::uint64_t seed : {1ULL, 29ULL}) {
    parallel::MemoryTransport inner(dist::NodeLayout{k, 2}.num_nodes());
    parallel::FaultSpec spec;
    spec.seed = seed;
    spec.drop = 0.15;
    spec.duplicate = 0.10;
    spec.corrupt = 0.10;
    spec.delay = 0.05;
    spec.reorder = 0.20;
    parallel::FaultyTransport transport(inner, spec);

    dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                              transport, dist_options(/*replicas=*/2));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (i == expected.size() / 2) {
        // Kill partition 1's primary mid-run: subsequent queries touching
        // partition 1 must fail over to its second replica.
        service.kill_replica(1, 0);
      }
      const serve::Response got = service.execute(expected[i].first);
      ASSERT_EQ(got.status, serve::RequestStatus::kOk)
          << "seed=" << seed << " i=" << i;
      expect_identical(expected[i].second, got.results,
                       "seed=" + std::to_string(seed) + " query " +
                           std::to_string(i));
    }
    const dist::DistStats stats = service.stats();
    EXPECT_EQ(stats.completed, expected.size()) << "seed=" << seed;
    EXPECT_EQ(stats.unavailable, 0u) << "seed=" << seed;
    total_retransmissions += stats.retransmissions;
    total_failovers += stats.failovers;
    EXPECT_GT(transport.injected_faults().total(), 0u) << "seed=" << seed;
  }
  // The schedules actually exercised the retry and failover paths.
  EXPECT_GT(total_retransmissions, 0u);
  EXPECT_GT(total_failovers, 0u);
}

TEST(DistService, AllReplicasDeadIsUnavailableNotHung) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, dist_options());
  service.kill_replica(0, 0);

  const serve::Response got =
      service.execute(gen::lubm_queries().front().sparql);
  EXPECT_EQ(got.status, serve::RequestStatus::kUnavailable);
  EXPECT_FALSE(got.error.empty());
  EXPECT_EQ(service.stats().unavailable, 1u);

  // Revive re-ships the current shard; service recovers.
  service.revive_replica(0, 0);
  const serve::Response again =
      service.execute(gen::lubm_queries().front().sparql);
  EXPECT_EQ(again.status, serve::RequestStatus::kOk);
}

// ---------------------------------------------------------------------------
// The shared front end's admission, deadline and parse paths

/// Park the executor's only worker on a job that waits for `gate`, so
/// nothing drains the queue until the gate opens.
void park_worker(serve::Executor& executor, std::shared_future<void> gate) {
  serve::Executor::Job job;
  job.run = [gate](bool) { gate.wait(); };
  ASSERT_TRUE(executor.try_submit(std::move(job)));
  while (executor.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The largest shard version: what a dist response is stamped with.
std::uint64_t max_version(const dist::DistService& service) {
  const std::vector<std::uint64_t> v = service.shard_versions();
  return *std::max_element(v.begin(), v.end());
}

TEST(DistService, ShedsWithOverloadedWhenQueueIsFull) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistOptions opts = dist_options();
  opts.queue_capacity = 2;
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, opts);
  const std::string q = gen::lubm_queries().front().sparql;

  std::promise<void> release;
  park_worker(service.executor(), release.get_future().share());

  std::atomic<int> ok{0};
  std::vector<serve::Response> shed;  // written inline by submit
  auto done = [&](const serve::Response& r) {
    if (r.status == serve::RequestStatus::kOk) {
      ok.fetch_add(1);
    } else {
      shed.push_back(r);
    }
  };
  EXPECT_TRUE(service.submit(q, done));
  EXPECT_TRUE(service.submit(q, done));
  EXPECT_FALSE(service.submit(q, done));
  EXPECT_FALSE(service.submit(q, done));
  ASSERT_EQ(shed.size(), 2u);
  for (const serve::Response& r : shed) {
    EXPECT_EQ(r.status, serve::RequestStatus::kOverloaded);
    EXPECT_EQ(r.snapshot_version, max_version(service));
  }

  release.set_value();
  service.drain();
  EXPECT_EQ(ok.load(), 2);
  const dist::DistStats stats = service.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(DistService, ExpiredRequestsReportDeadlineExceeded) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistOptions opts = dist_options();
  opts.queue_capacity = 8;
  opts.default_deadline_seconds = 1e-3;
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, opts);
  // Move one shard past version 1, so the stamp is not a default.
  const rdf::TermId type = fx.dict.find_iri(kRdfType);
  const rdf::TermId grad = fx.dict.find_iri(
      std::string(gen::kUnivBenchNs) + "GraduateStudent");
  service.refresh(std::vector<rdf::Triple>{
      {fx.dict.intern_iri("http://www.Univ9.edu/LateStudent"), type, grad}});
  ASSERT_EQ(max_version(service), 2u);

  std::promise<void> release;
  park_worker(service.executor(), release.get_future().share());
  std::optional<serve::Response> expired;
  service.submit(gen::lubm_queries().front().sparql,
                 [&](const serve::Response& r) { expired = r; });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // > deadline
  release.set_value();
  service.drain();
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->status, serve::RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(expired->snapshot_version, 2u);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(DistService, ParseErrorsAreReportedNotCached) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, dist_options());
  const serve::Response r = service.execute("NOT SPARQL AT ALL");
  EXPECT_EQ(r.status, serve::RequestStatus::kParseError);
  EXPECT_FALSE(r.error.empty());
  const serve::Response again = service.execute("NOT SPARQL AT ALL");
  EXPECT_EQ(again.status, serve::RequestStatus::kParseError);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.stats().parse_errors, 2u);
}

TEST(DistService, QueryPrefixesDoNotLeakAcrossRequests) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, dist_options());
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
// Satellite fix: cache key includes the shard version vector

TEST(DistService, ShardRefreshInvalidatesMergedResultCache) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport, dist_options());

  const std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x WHERE { ?x a ub:GraduateStudent }";
  const serve::Response first = service.execute(q);
  ASSERT_EQ(first.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  const serve::Response second = service.execute(q);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.results.rows, first.results.rows);

  // Refresh one shard with a brand-new graduate student.
  const rdf::TermId type = fx.dict.find_iri(kRdfType);
  const rdf::TermId grad = fx.dict.find_iri(
      std::string(gen::kUnivBenchNs) + "GraduateStudent");
  ASSERT_NE(grad, rdf::kAnyTerm);
  const rdf::TermId fresh =
      fx.dict.intern_iri("http://www.Univ9.edu/NewGradStudent");
  const std::vector<std::uint64_t> before = service.shard_versions();
  service.refresh(std::vector<rdf::Triple>{{fresh, type, grad}});
  const std::vector<std::uint64_t> after = service.shard_versions();
  EXPECT_NE(before, after);

  // Same text, new version vector: the stale merged result cannot be
  // served — the answer now includes the new student.
  const serve::Response third = service.execute(q);
  ASSERT_EQ(third.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.results.rows.size(), first.results.rows.size() + 1);
  bool found = false;
  for (const auto& row : third.results.rows) {
    found = found || (row.size() == 1 && row[0] == fresh);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// The generic workload driver runs unchanged over the distributed tier

TEST(DistWorkload, ClosedLoopDriverCompletesOverDistService) {
  DistFixtureData fx;
  constexpr std::uint32_t k = 2;
  parallel::MemoryTransport transport(dist::NodeLayout{k, 1}.num_nodes());
  dist::DistService service(fx.dict, fx.store, fx.owners_for(k), k,
                            transport,
                            dist_options(/*replicas=*/1, /*threads=*/2));

  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }
  serve::WorkloadOptions wo;
  wo.mode = serve::WorkloadMode::kClosedLoop;
  wo.total_requests = 40;
  wo.clients = 2;
  const serve::WorkloadReport report =
      serve::run_workload(service, queries, wo);
  EXPECT_EQ(report.submitted, 40u);
  EXPECT_EQ(report.completed, 40u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.unavailable, 0u);
  EXPECT_GT(report.cache_hits, 0u);  // 40 draws over 14 queries must repeat
  service.drain();
}

}  // namespace
}  // namespace parowl
