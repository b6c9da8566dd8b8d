#include "parowl/parallel/pipeline.hpp"

#include <cassert>
#include <stdexcept>
#include <memory>

#include "parowl/obs/obs.hpp"
#include "parowl/ontology/ontology.hpp"
#include "parowl/rules/dependency_graph.hpp"
#include "parowl/util/thread_team.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::parallel {
namespace {

/// One prepared worker: its rule-base, router, and base data.
struct WorkerPlan {
  rules::RuleSet rule_base;
  std::shared_ptr<const Router> router;
  const std::vector<rdf::Triple>* base = nullptr;
};

/// Everything the partitioning step produces.
struct Plan {
  std::vector<WorkerPlan> workers;
  std::optional<partition::PartitionMetrics> metrics;
  double partition_seconds = 0.0;
  // Owned storage for the bases the WorkerPlans point into.
  std::vector<std::vector<rdf::Triple>> data_parts;
  std::vector<rdf::Triple> full_instance;
};

/// Misuse checks: these are programming errors in the caller, surfaced as
/// exceptions because asserts vanish in release builds.
void validate(const ParallelOptions& options) {
  if (options.partitions == 0) {
    throw std::invalid_argument("ParallelOptions.partitions must be >= 1");
  }
  if (options.approach != Approach::kRulePartition &&
      options.policy == nullptr) {
    throw std::invalid_argument(
        "data/hybrid partitioning requires ParallelOptions.policy");
  }
  if (options.approach == Approach::kHybrid &&
      options.rule_partitions == 0) {
    throw std::invalid_argument(
        "hybrid partitioning requires rule_partitions >= 1");
  }
}

Plan make_plan(const rdf::TripleStore& store, const rdf::Dictionary& dict,
               const ontology::Vocabulary& vocab,
               const rules::CompiledRules& compiled,
               const ParallelOptions& options) {
  PAROWL_SPAN("parallel.plan", {{"partitions", options.partitions}});
  Plan plan;

  if (options.approach == Approach::kDataPartition) {
    partition::DataPartitioning dp = partition::partition_data(
        store, dict, vocab, *options.policy, options.partitions);
    plan.partition_seconds = dp.partition_seconds;
    plan.metrics = partition::compute_partition_metrics(dp, dict);
    plan.data_parts = std::move(dp.parts);

    const auto router = std::make_shared<OwnerRouter>(std::move(dp.owners));
    for (std::uint32_t p = 0; p < options.partitions; ++p) {
      plan.workers.push_back(
          WorkerPlan{compiled.rules, router, &plan.data_parts[p]});
    }
    return plan;
  }

  if (options.approach == Approach::kRulePartition) {
    util::Stopwatch watch;
    const rdf::TripleStore* stats =
        options.rule_statistics != nullptr ? options.rule_statistics : &store;
    const rules::DependencyGraph dep = rules::build_dependency_graph(
        compiled.rules, options.weighted_rule_graph ? stats : nullptr);
    partition::RulePartitioning rp = partition::partition_rules(
        compiled.rules, dep, options.partitions);
    plan.partition_seconds = watch.elapsed_seconds();

    // Rule partitioning applies each rule subset to the *complete*
    // instance data-set (§III-B).
    plan.full_instance = ontology::split_schema(store, vocab).instance;
    const auto router = std::make_shared<RuleMatchRouter>(rp.parts);
    for (std::uint32_t p = 0; p < options.partitions; ++p) {
      plan.workers.push_back(WorkerPlan{std::move(rp.parts[p]), router,
                                        &plan.full_instance});
    }
    return plan;
  }

  // Hybrid: split both.  Worker (d, j) = id d * rule_partitions + j.
  util::Stopwatch watch;
  partition::DataPartitioning dp = partition::partition_data(
      store, dict, vocab, *options.policy, options.partitions);
  plan.metrics = partition::compute_partition_metrics(dp, dict);
  plan.data_parts = std::move(dp.parts);

  const rdf::TripleStore* stats =
      options.rule_statistics != nullptr ? options.rule_statistics : &store;
  const rules::DependencyGraph dep = rules::build_dependency_graph(
      compiled.rules, options.weighted_rule_graph ? stats : nullptr);
  partition::RulePartitioning rp = partition::partition_rules(
      compiled.rules, dep, options.rule_partitions);
  plan.partition_seconds = watch.elapsed_seconds();

  const auto router =
      std::make_shared<HybridRouter>(std::move(dp.owners), rp.parts);
  for (std::uint32_t d = 0; d < options.partitions; ++d) {
    for (std::uint32_t j = 0; j < options.rule_partitions; ++j) {
      plan.workers.push_back(
          WorkerPlan{rp.parts[j], router, &plan.data_parts[d]});
    }
  }
  return plan;
}

}  // namespace

ParallelResult parallel_materialize(const rdf::TripleStore& store,
                                    const rdf::Dictionary& dict,
                                    const ontology::Vocabulary& vocab,
                                    const ParallelOptions& options) {
  validate(options);
  obs::configure(options.obs);
  PAROWL_SPAN("parallel.materialize", {{"partitions", options.partitions}});
  ParallelResult result;

  // Master: compile the ontology once; the same rule-base (or its
  // partition) is shipped to every node.
  const rules::CompiledRules compiled =
      reason::compile_ontology(store, vocab, options.horst);
  result.compiled_rules = compiled.rules.size();

  Plan plan = make_plan(store, dict, vocab, compiled, options);
  result.metrics = plan.metrics;
  result.partition_seconds = plan.partition_seconds;

  WorkerOptions wopts;
  wopts.strategy = options.local_strategy;
  wopts.dict = &dict;

  // Run the cluster.  One team, a member per worker, loads the workers,
  // steps them in the threaded modes and aggregates their results once
  // they have stopped.
  const auto num_workers = static_cast<std::uint32_t>(plan.workers.size());
  util::ThreadTeam team(num_workers);

  std::unique_ptr<Transport> owned_transport;
  Transport* transport = options.transport;
  if (transport == nullptr) {
    owned_transport = std::make_unique<MemoryTransport>(num_workers);
    transport = owned_transport.get();
  }
  std::unique_ptr<FaultyTransport> faulty;
  if (options.faults != nullptr) {
    faulty = std::make_unique<FaultyTransport>(*transport, *options.faults);
    transport = faulty.get();
  }
  Cluster cluster(*transport, options);
  for (WorkerPlan& wp : plan.workers) {
    cluster.add_worker(std::move(wp.rule_base), wp.router, wopts);
  }
  {
    // Each load writes only its own worker.
    PAROWL_SPAN("parallel.load", {{"workers", num_workers}});
    team.for_each(num_workers, [&](std::size_t w) {
      cluster.load(static_cast<std::uint32_t>(w), *plan.workers[w].base);
    });
  }
  {
    PAROWL_SPAN("parallel.execute", {{"workers", num_workers}});
    result.cluster = cluster.run(&team);
  }

  result.output_replication = partition::output_replication(
      result.cluster.results_per_partition, result.cluster.union_results);

  // Merge: input ∪ schema ground facts ∪ all worker derivations
  // (master-side aggregation; timed for the Fig. 2 breakdown).  A worker's
  // base is a slice of the input, already inserted first, so only its
  // derivations can add to the merge.  The team insert is bit-identical to
  // inserting the triples one by one, so the merged log is the serial one.
  util::Stopwatch merge_watch;
  {
    PAROWL_SPAN("parallel.merge", {{"build_merged", options.build_merged}});
    if (options.build_merged) {
      rdf::TripleStore merged;
      merged.insert_all(store.triples(), team);
      merged.insert_all(compiled.ground_facts, team);
      for (std::uint32_t w = 0; w < num_workers; ++w) {
        merged.insert_all(cluster.worker(w).derived(), team);
      }
      result.inferred = merged.size() - store.size();
      result.merged.emplace(std::move(merged));
    } else {
      std::vector<std::span<const rdf::Triple>> logs{compiled.ground_facts};
      for (std::uint32_t w = 0; w < num_workers; ++w) {
        logs.push_back(cluster.worker(w).derived());
      }
      result.inferred = count_distinct(logs, team, &store);
    }
  }
  result.merge_seconds = merge_watch.elapsed_seconds();
  return result;
}

}  // namespace parowl::parallel
