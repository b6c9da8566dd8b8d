// Fault-tolerance overhead bench: what do the ack/retry protocol, round-
// granular checkpointing, and an injected fault schedule cost on top of a
// plain LUBM materialization?  Every configuration below provably reaches
// the same closure (the fault_injection_test sweep byte-checks that); this
// harness prices the machinery:
//   (a) baseline        — ack/retry protocol, no faults, no checkpoints;
//   (b) checkpointed    — plus a checkpoint of every worker every round;
//   (c) faulty          — plus a drop/dup/corrupt/reorder schedule;
//   (d) faulty + ckpt   — both, i.e. the full fault-tolerant deployment.

#include <filesystem>

#include "bench_common.hpp"
#include "parowl/util/timer.hpp"

using namespace parowl;
using namespace parowl::bench;

namespace {

struct RunRow {
  double wall_ms = 0.0;
  double sim_ms = 0.0;
  parallel::ClusterResult cluster;
};

RunRow run_config(const Universe& u, const partition::OwnerPolicy& policy,
                  const parallel::FaultSpec* faults,
                  const std::string& ckpt_dir, int reps = 3) {
  RunRow best;
  for (int rep = 0; rep < reps; ++rep) {
    if (!ckpt_dir.empty()) {
      std::filesystem::remove_all(ckpt_dir);
    }
    parallel::ParallelOptions opts;
    opts.partitions = 4;
    opts.policy = &policy;
    opts.build_merged = false;
    opts.faults = faults;
    opts.checkpoint_dir = ckpt_dir;

    util::Stopwatch watch;
    const parallel::ParallelResult r =
        parallel::parallel_materialize(u.store, u.dict, *u.vocab, opts);
    const double wall_ms = watch.elapsed_seconds() * 1e3;
    if (rep == 0 || wall_ms < best.wall_ms) {
      best.wall_ms = wall_ms;
      best.sim_ms = r.cluster.simulated_seconds * 1e3;
      best.cluster = r.cluster;
    }
  }
  if (!ckpt_dir.empty()) {
    std::filesystem::remove_all(ckpt_dir);
  }
  return best;
}

std::string pct_over(double value, double baseline) {
  if (baseline <= 0.0) {
    return "-";
  }
  return util::fmt_double((value / baseline - 1.0) * 100.0, 1) + "%";
}

}  // namespace

int main() {
  const unsigned s = scale_factor();
  print_header("Extension: fault-tolerance overhead (ack/retry + checkpoints)");

  Universe u;
  make_lubm(u, 1 * s);
  std::cout << u.name << ": " << u.store.size() << " triples, 4 partitions, "
            << "hash policy\n";

  const partition::HashOwnerPolicy policy;
  const auto ckpt_dir = std::filesystem::temp_directory_path() /
                        "parowl_bench_fault_ckpt";

  parallel::FaultSpec spec;
  spec.seed = 42;
  spec.drop = 0.15;
  spec.duplicate = 0.10;
  spec.corrupt = 0.10;
  spec.reorder = 0.25;

  const RunRow base = run_config(u, policy, nullptr, "");
  const RunRow ckpt = run_config(u, policy, nullptr, ckpt_dir.string());
  const RunRow faulty = run_config(u, policy, &spec, "");
  const RunRow both = run_config(u, policy, &spec, ckpt_dir.string());

  util::Table table({"config", "wall(ms)", "sim(ms)", "rounds", "retrans",
                     "redeliv", "ckpts", "wall overhead"});
  const auto add = [&](const char* name, const RunRow& row) {
    const parallel::RunReport& rep = row.cluster.report;
    table.add_row({name, util::fmt_double(row.wall_ms, 2),
                   util::fmt_double(row.sim_ms, 2),
                   std::to_string(row.cluster.rounds),
                   std::to_string(rep.retransmissions),
                   std::to_string(rep.redeliveries),
                   std::to_string(rep.checkpoints_written),
                   pct_over(row.wall_ms, base.wall_ms)});
  };
  add("baseline", base);
  add("checkpointed", ckpt);
  add("faulty", faulty);
  add("faulty+ckpt", both);
  table.print(std::cout);

  std::cout << "\ninjected under 'faulty': " << faulty.cluster.report.injected.drops
            << " drops, " << faulty.cluster.report.injected.duplicates
            << " dups, " << faulty.cluster.report.injected.corruptions
            << " corruptions, " << faulty.cluster.report.injected.reorders
            << " reorders; backoff charged "
            << util::fmt_double(
                   faulty.cluster.report.backoff_seconds * 1e3, 3)
            << " ms\n";
  return 0;
}
