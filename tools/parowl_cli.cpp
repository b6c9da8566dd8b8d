// parowl — command-line frontend for the parallel OWL reasoner.
//
//   parowl gen lubm --scale 4 -o data.nt        generate a benchmark KB
//   parowl info data.nt                         show KB statistics
//   parowl materialize data.nt -o full.snap     compute the OWL-Horst closure
//   parowl query full.snap 'SELECT ...'         run a SPARQL-subset query
//   parowl partition data.nt -k 8 --policy graph   partition + metrics
//   parowl cluster data.nt -k 8 [--approach data|rule|hybrid] [--exec-mode async]
//   parowl serve-bench full.snap --threads 4       drive the serving layer
//   parowl serve-dist full.snap --partitions 4 --replicas 2   distributed tier
//
// Input format is chosen by extension: .nt (N-Triples), .ttl (Turtle),
// .snap (binary snapshot); output likewise (.snap or .nt).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <concepts>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/obs/obs.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/partition/rebalance.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/gen/sameas.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/query/equality_expand.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/serve/service.hpp"
#include "parowl/serve/workload.hpp"
#include "parowl/reason/explain.hpp"
#include "parowl/rules/rule_parser.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/graph_stats.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/rdf/turtle.hpp"
#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/util/table.hpp"
#include "parowl/util/timer.hpp"

namespace {

using namespace parowl;

int usage() {
  std::cerr <<
      R"(usage: parowl <command> [options]

commands:
  gen <lubm|uobm|mdc|sameas> [--scale N] [--seed S] -o <file>
      (sameas: clique-heavy equality workload; --scale multiplies the
       individual count, --max-clique caps the alias clique size)
  info <kb>
  load-bench <kb.nt|kb.ttl> [--max-threads N]   (parallel-ingest sweep)
  materialize <kb> [-o <file>] [--strategy forward|query] [--no-compile]
              [--rules <file>] [--threads N] [--equality-mode naive|rewrite]
              (rewrite: intercept owl:sameAs into a class map and keep the
               closure in representative space; a -o .snap then carries the
               map — v3 — and query/serve expand answers through it)
  update <kb> [--adds-file <nt>] [--deletes-file <nt>] [-o <file>]
          [--threads N]
          (incremental maintenance: retract/add against the asserted base,
           delete-and-rederive the closure; kb is the *base*, not a closure)
  query <kb> <sparql> [--reason] [--equality-mode naive|rewrite]
  query <kb> --queries-file <file> [--reason]   (one query per line)
  explain <kb> <s> <p> <o>       (terms as full IRIs; reasons, then proves)
  partition <kb> -k N [--policy graph|hash|lubm|mdc] [partitioner options]
  cluster <kb> -k N [--policy ...] [--approach data|rule|hybrid]
          [partitioner options]
          [--rule-parts M] [--strategy forward|query]
          [--exec-mode sync|threaded|async|async-threaded]
          [--no-steal] [--steal-batch N] [--chunk N]   (async modes)
          [--faults seed=S,drop=P,dup=P,corrupt=P,delay=P,reorder=P]
          [--checkpoint-dir <dir>]
  run     alias for cluster; accepts --partitions N for -k N
  serve-bench <kb> [--reason] [--equality-mode naive|rewrite]
          [--threads N] [--queue N] [--requests N]
          [--mode open|closed] [--rate QPS] [--clients N] [--think S]
          [--deadline S] [--no-cache] [--seed S] [--queries-file <file>]
          [--update-batches N] [--update-size M] [--delete-ratio R]
          (R>0 turns the writer into a mixed stream: each batch deletes
           R*M previously added triples and adds M new ones)
  serve-dist <kb> [--reason] [--equality-mode naive|rewrite]
          --partitions N [--replicas R] [--policy ...]
          [partitioner options]
          [--faults seed=S,drop=P,...] [serve-bench query/workload options]
          (sharded serving tier: scatter/gather over partition replicas)

partitioner options (partition / cluster / run / serve-dist):
  --partitioner multilevel|hdrf|ne   algorithm behind the graph policy;
          the streaming kinds (hdrf/ne) assign owners in one pass over the
          ingest stream with O(vertices) state — `run` feeds them straight
          from the parallel reader, never building the full resource graph
  --balance-slack S          allowed load imbalance (default 0.05)

kb files: .nt (N-Triples), .ttl (Turtle), .snap (binary snapshot)
a flag the command does not list above, or a flag value outside the listed
choices, is an error
every command that loads a KB (all but gen and load-bench) accepts
--load-threads N (parallel ingest; the loaded KB is bit-identical for any N)

observability (every command):
  --trace-out FILE     write a Chrome/Perfetto trace of the run
  --metrics-out FILE   write the metrics-registry snapshot as JSON
  --sample-every N     trace every Nth serve request (default 1)
)";
  return 2;
}

/// `equality` non-null makes v3 snapshots (representative-space closure +
/// class map) loadable; commands that cannot expand answers leave it null
/// and get a clear rejection from the v2-only loader instead of silently
/// wrong answers.
bool load_kb(const std::string& path, rdf::Dictionary& dict,
             rdf::TripleStore& store, unsigned load_threads = 1,
             rdf::EqualityClassMap* equality = nullptr,
             std::function<void(std::span<const rdf::Triple>)> chunk_sink =
                 {}) {
  if (path.ends_with(".snap")) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    std::string error;
    const bool ok =
        equality != nullptr
            ? rdf::load_snapshot(in, dict, store, *equality, &error)
            : rdf::load_snapshot(in, dict, store, &error);
    if (!ok) {
      std::cerr << "bad snapshot " << path << ": " << error << "\n";
      return false;
    }
    if (chunk_sink) {
      // Snapshots arrive whole; the stream degenerates to one chunk.
      chunk_sink(store.triples());
    }
    return true;
  }
  rdf::IngestOptions opts;
  opts.threads = load_threads;
  opts.chunk_sink = std::move(chunk_sink);
  rdf::IngestStats stats;
  std::string error;
  if (!rdf::ingest_file(path, dict, store, stats, opts, &error)) {
    std::cerr << "cannot load " << path << ": " << error << "\n";
    return false;
  }
  if (stats.parse.bad_lines > 0) {
    std::cerr << "warning: " << stats.parse.bad_lines
              << " malformed statements (" << stats.parse.first_error
              << ")\n";
  }
  return true;
}

bool save_kb(const std::string& path, const rdf::Dictionary& dict,
             const rdf::TripleStore& store,
             const rdf::EqualityClassMap* equality = nullptr) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  if (path.ends_with(".snap")) {
    rdf::save_snapshot(out, dict, store, equality);
  } else {
    if (equality != nullptr && !equality->empty()) {
      std::cerr << "warning: " << path
                << " is N-Triples — writing the representative-space store "
                   "without its equality class map (use a .snap output to "
                   "keep it)\n";
    }
    rdf::write_ntriples(out, store, dict);
  }
  return out.good();
}

/// Load a triple file (.nt/.ttl/.snap) into a vector, interning into the
/// caller's dictionary — the add/delete batch loader for `update`.
bool load_triples(const std::string& path, rdf::Dictionary& dict,
                  std::vector<rdf::Triple>& out) {
  rdf::TripleStore tmp;
  if (!load_kb(path, dict, tmp)) {
    return false;
  }
  out = tmp.triples();
  return true;
}

/// The commands, as bits: a flag lists the commands that read it.
enum Command : unsigned {
  kGen = 1u << 0,
  kInfo = 1u << 1,
  kLoadBench = 1u << 2,
  kMaterialize = 1u << 3,
  kUpdate = 1u << 4,
  kQuery = 1u << 5,
  kExplain = 1u << 6,
  kPartition = 1u << 7,
  kCluster = 1u << 8,  // also `run`
  kServeBench = 1u << 9,
  kServeDist = 1u << 10,
  kAllCommands = (1u << 11) - 1,
  kLoadsKb = kAllCommands & ~(kGen | kLoadBench),
  kServing = kServeBench | kServeDist,
  kPartitioning = kPartition | kCluster | kServeDist,
};

/// Every flag, whether it takes a value, and which commands read it.  Args
/// rejects a flag missing from this table or not read by the command, and
/// skips a listed flag's value when it looks for positionals.
struct FlagSpec {
  std::string_view name;
  bool takes_value;
  unsigned commands;
};
constexpr FlagSpec kFlags[] = {
    {"-o", true, kGen | kMaterialize | kUpdate},
    {"-k", true, kPartitioning},
    {"--adds-file", true, kUpdate},
    {"--approach", true, kCluster},
    {"--balance-slack", true, kPartitioning},
    {"--checkpoint-dir", true, kCluster},
    {"--chunk", true, kCluster},
    {"--clients", true, kServing},
    {"--deadline", true, kServing},
    {"--delete-ratio", true, kServeBench},
    {"--deletes-file", true, kUpdate},
    {"--equality-mode", true, kMaterialize | kQuery | kServing},
    {"--exec-mode", true, kCluster},
    {"--faults", true, kCluster | kServeDist},
    {"--load-threads", true, kLoadsKb},
    {"--max-clique", true, kGen},
    {"--max-threads", true, kLoadBench},
    {"--metrics-out", true, kAllCommands},
    {"--mode", true, kServing},
    {"--no-cache", false, kServing},
    {"--no-compile", false, kMaterialize},
    {"--no-steal", false, kCluster},
    {"--partitioner", true, kPartitioning},
    {"--partitions", true, kCluster | kServeDist},
    {"--policy", true, kPartitioning},
    {"--queries-file", true, kQuery | kServing},
    {"--queue", true, kServing},
    {"--rate", true, kServing},
    {"--reason", false, kQuery | kServing},
    {"--replicas", true, kServeDist},
    {"--requests", true, kServing},
    {"--rule-parts", true, kCluster},
    {"--rules", true, kMaterialize},
    {"--sample-every", true, kAllCommands},
    {"--scale", true, kGen},
    {"--seed", true, kGen | kServing},
    {"--steal-batch", true, kCluster},
    {"--strategy", true, kMaterialize | kCluster},
    {"--think", true, kServing},
    {"--threads", true, kMaterialize | kUpdate | kServing},
    {"--trace-out", true, kAllCommands},
    {"--update-batches", true, kServeBench},
    {"--update-size", true, kServeBench}};

/// `text` as a T in [lo, hi], or an error naming `what`.  For an unsigned
/// T std::from_chars takes digits only, so a sign is an error and so is
/// overflow; trailing characters and a non-finite real are errors too.
template <typename T>
T parse_number(const std::string& what, const std::string& text, T lo = 0,
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || !(value >= lo) ||
      !(value <= hi) || !std::isfinite(static_cast<double>(value))) {
    std::ostringstream msg;
    msg << what << ": expected "
        << (std::is_integral_v<T> ? "an unsigned integer" : "a finite number")
        << " in [" << lo << ", " << hi << "], got '" << text << "'";
    throw std::invalid_argument(msg.str());
  }
  return value;
}

/// The checked flag reader: `--name value`, `--switch` and positionals.
/// Construction rejects a flag that `command` (a Command bit named `name`)
/// does not read and a value flag with no value; the typed accessors reject
/// a malformed value.  Every error is a std::invalid_argument naming the
/// flag.  A repeated flag keeps its first value.
class Args {
 public:
  Args(int argc, char** argv, int start, std::string_view name,
       unsigned command) {
    for (int i = start; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.starts_with("-")) {
        positionals_.push_back(arg);
        continue;
      }
      const auto* spec =
          std::find_if(std::begin(kFlags), std::end(kFlags),
                       [&arg](const FlagSpec& f) { return f.name == arg; });
      if (spec == std::end(kFlags) || (spec->commands & command) == 0) {
        throw std::invalid_argument("unknown flag '" + arg + "' for " +
                                    std::string(name) +
                                    " (run parowl alone for usage)");
      }
      if (spec->takes_value && ++i == argc) {
        throw std::invalid_argument(arg + ": missing value");
      }
      flags_.emplace(arg, spec->takes_value ? argv[i] : "");
    }
  }

  /// Positional argument at `index` (flags and their values excluded).
  [[nodiscard]] std::string positional(std::size_t index) const {
    return index < positionals_.size() ? positionals_[index] : std::string();
  }

  [[nodiscard]] std::string option(std::string_view name,
                                   const std::string& fallback = {}) const {
    const auto it = flags_.find(name);
    return it != flags_.end() ? it->second : fallback;
  }

  [[nodiscard]] bool flag(std::string_view name) const {
    return flags_.find(name) != flags_.end();
  }

  /// An unsigned integer of type T, at least `min`.
  template <std::unsigned_integral T>
  [[nodiscard]] T count(std::string_view name, T fallback, T min = 0) const {
    return flag(name) ? parse_number<T>(std::string(name), option(name), min)
                      : fallback;
  }

  /// A finite number >= 0.
  [[nodiscard]] double real(std::string_view name, double fallback) const {
    return flag(name) ? parse_number(std::string(name), option(name), 0.0,
                                     std::numeric_limits<double>::infinity())
                      : fallback;
  }

  /// One of `values`; anything else is an error listing them.
  [[nodiscard]] std::string choice(
      std::string_view name, std::initializer_list<std::string_view> values,
      std::string_view fallback) const {
    const std::string value = option(name, std::string(fallback));
    if (std::find(values.begin(), values.end(), value) != values.end()) {
      return value;
    }
    std::string valid;
    for (const std::string_view v : values) {
      valid += valid.empty() ? "" : "|";
      valid += v;
    }
    throw std::invalid_argument(std::string(name) + ": expected " + valid +
                                ", got '" + value + "'");
  }

 private:
  std::vector<std::string> positionals_;
  std::map<std::string, std::string, std::less<>> flags_;
};

unsigned load_threads_of(const Args& args) {
  return args.count<unsigned>("--load-threads", 1);
}

/// `--equality-mode rewrite` points `opts` at `eq`, which then receives the
/// class map; returns whether it did.
bool equality_mode_from(const Args& args, reason::MaterializeOptions& opts,
                        reason::EqualityManager& eq) {
  if (args.choice("--equality-mode", {"naive", "rewrite"}, "naive") ==
      "naive") {
    return false;
  }
  opts.equality_mode = reason::EqualityMode::kRewrite;
  opts.equality = &eq;
  return true;
}

reason::Strategy local_strategy_of(const Args& args) {
  return args.choice("--strategy", {"forward", "query"}, "forward") == "query"
             ? reason::Strategy::kQueryDriven
             : reason::Strategy::kForward;
}

/// The one place CLI observability flags are parsed; every command embeds
/// the result into its layer's options struct (the uniform convention).
obs::ObsOptions obs_options_from(const Args& args) {
  obs::ObsOptions o;
  o.trace_out = args.option("--trace-out");
  o.metrics_out = args.option("--metrics-out");
  o.sample_every = args.count<std::uint32_t>("--sample-every", 1);
  return o;
}

/// The shared partitioner knobs (`--partitioner`, `--balance-slack`),
/// identical across partition / cluster / run / serve-dist.
partition::PartitionerOptions partitioner_options_from(const Args& args) {
  partition::PartitionerOptions popts;
  popts.kind = *partition::partitioner_kind_from(args.choice(
      "--partitioner", {"multilevel", "hdrf", "ne"}, "multilevel"));
  popts.balance_slack = args.real("--balance-slack", 0.05);
  return popts;
}

/// The cluster executor named by `--exec-mode` (default sync).
parallel::ExecutionMode exec_mode_of(const Args& args) {
  const std::string mode = args.choice(
      "--exec-mode", {"sync", "threaded", "async", "async-threaded"}, "sync");
  return mode == "threaded" ? parallel::ExecutionMode::kThreaded
         : mode == "async"  ? parallel::ExecutionMode::kAsync
         : mode == "async-threaded"
             ? parallel::ExecutionMode::kAsyncThreaded
             : parallel::ExecutionMode::kSequentialSimulated;
}

std::unique_ptr<partition::OwnerPolicy> make_policy(const Args& args,
                                                    const char* fallback) {
  // --partitioner selects the algorithm behind the graph policy; an
  // explicit --policy hash|lubm|mdc still picks those owner functions,
  // which read neither partitioner option.
  const std::string name =
      args.choice("--policy", {"graph", "hash", "lubm", "mdc"},
                  args.option("--partitioner").empty() ? fallback : "graph");
  if (name != "graph" &&
      (args.flag("--partitioner") || args.flag("--balance-slack"))) {
    throw std::invalid_argument(
        "--partitioner and --balance-slack need --policy graph, not --policy " +
        name);
  }
  if (name == "hash") {
    return std::make_unique<partition::HashOwnerPolicy>();
  }
  if (name == "lubm") {
    return std::make_unique<partition::DomainOwnerPolicy>(
        &partition::lubm_university_key, "Dom sp. (LUBM)");
  }
  if (name == "mdc") {
    return std::make_unique<partition::DomainOwnerPolicy>(
        &gen::mdc_field_key, "Dom sp. (MDC)");
  }
  const partition::PartitionerOptions popts = partitioner_options_from(args);
  if (popts.kind != partition::PartitionerKind::kMultilevel) {
    return std::make_unique<partition::StreamingOwnerPolicy>(popts);
  }
  return std::make_unique<partition::GraphOwnerPolicy>(popts);
}

int cmd_gen(const Args& args) {
  const std::string kind = args.positional(0);
  const std::string out = args.option("-o");
  if (kind.empty() || out.empty()) {
    return usage();
  }
  const auto scale = args.count<unsigned>("--scale", 1);
  const auto seed = args.count<std::uint64_t>("--seed", 42);

  rdf::Dictionary dict;
  rdf::TripleStore store;
  gen::GenStats stats;
  if (kind == "lubm") {
    gen::LubmOptions o;
    o.universities = scale;
    o.seed = seed;
    stats = gen::generate_lubm(o, dict, store);
  } else if (kind == "uobm") {
    gen::UobmOptions o;
    o.base.universities = scale;
    o.base.seed = seed;
    o.hometowns = 10 * scale;
    stats = gen::generate_uobm(o, dict, store);
  } else if (kind == "mdc") {
    gen::MdcOptions o;
    o.fields = scale;
    o.seed = seed;
    stats = gen::generate_mdc(o, dict, store);
  } else if (kind == "sameas") {
    gen::SameAsOptions o;
    o.individuals = 200 * scale;
    o.max_clique_size = args.count<std::uint32_t>("--max-clique", 6);
    o.seed = seed;
    stats = gen::generate_sameas(o, dict, store);
  } else {
    return usage();
  }
  if (!save_kb(out, dict, store)) {
    return 1;
  }
  std::cout << "wrote " << out << ": " << stats.instance_triples
            << " instance + " << stats.schema_triples << " schema triples\n";
  return 0;
}

int cmd_info(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  if (path.empty() || !load_kb(path, dict, store, load_threads_of(args))) {
    return 1;
  }
  const rdf::GraphStats gs = rdf::compute_graph_stats(store, dict);
  ontology::Vocabulary vocab(dict);
  const ontology::Ontology onto = ontology::extract_ontology(store, vocab);

  std::cout << path << ":\n"
            << "  triples:          " << gs.triples << "\n"
            << "  resource nodes:   " << gs.nodes << "\n"
            << "  predicates:       " << gs.predicates << "\n"
            << "  literal objects:  " << gs.literal_objects << "\n"
            << "  avg node degree:  " << util::fmt_double(gs.avg_degree, 2)
            << " (max " << gs.max_degree << ")\n"
            << "  schema axioms:    " << onto.axiom_count() << "\n"
            << "  dictionary terms: " << dict.size() << "\n";
  return 0;
}

/// Parallel-ingest sweep: parse the same file with 1..max threads, report
/// the per-stage breakdown, verify bit-identity against the serial load,
/// and compare the codec footprint with the source text.
int cmd_load_bench(const Args& args) {
  const std::string path = args.positional(0);
  if (path.empty() || path.ends_with(".snap")) {
    return usage();
  }
  const auto max_threads = args.count<unsigned>("--max-threads", 8);

  util::Table table({"threads", "read(s)", "scan(s)", "parse(s)", "merge(s)",
                     "total(s)", "MB/s", "speedup", "identical"});
  std::string golden;       // serial snapshot bytes
  double serial_total = 0;  // serial wall-clock
  std::size_t input_bytes = 0;
  std::size_t codec_bytes = 0;
  std::size_t triples = 0;
  for (unsigned t = 1; t <= max_threads; t *= 2) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    rdf::IngestOptions opts;
    opts.threads = t;
    rdf::IngestStats stats;
    std::string error;
    util::Stopwatch watch;
    if (!rdf::ingest_file(path, dict, store, stats, opts, &error)) {
      std::cerr << "cannot load " << path << ": " << error << "\n";
      return 1;
    }
    const double total = watch.elapsed_seconds();

    std::ostringstream snap;
    const rdf::SnapshotStats ss = rdf::save_snapshot(snap, dict, store);
    if (t == 1) {
      golden = snap.str();
      serial_total = total;
      input_bytes = stats.bytes;
      codec_bytes = ss.bytes;
      triples = store.size();
    }
    const bool identical = snap.str() == golden;
    table.add_row(
        {std::to_string(stats.threads_used),
         util::fmt_double(stats.read_seconds, 3),
         util::fmt_double(stats.scan_seconds, 3),
         util::fmt_double(stats.parse_seconds, 3),
         util::fmt_double(stats.merge_seconds, 3),
         util::fmt_double(total, 3),
         util::fmt_double(static_cast<double>(stats.bytes) / 1e6 /
                              std::max(total, 1e-9),
                          1),
         util::fmt_double(serial_total / std::max(total, 1e-9), 2),
         identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "BUG: " << t
                << "-thread load differs from the serial load\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << triples << " triples; codec snapshot " << codec_bytes
            << " bytes vs " << input_bytes << " text bytes ("
            << util::fmt_double(100.0 * static_cast<double>(codec_bytes) /
                                    std::max<std::size_t>(input_bytes, 1),
                                1)
            << "% of input)\n";
  return 0;
}

int cmd_materialize(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  if (path.empty() || !load_kb(path, dict, store, load_threads_of(args))) {
    return 1;
  }
  ontology::Vocabulary vocab(dict);

  reason::MaterializeOptions opts;
  opts.strategy = local_strategy_of(args);
  opts.compile = !args.flag("--no-compile");
  opts.threads = args.count<unsigned>("--threads", 1);
  opts.obs = obs_options_from(args);
  reason::EqualityManager eq;
  const bool rewrite = equality_mode_from(args, opts, eq);

  const reason::MaterializeResult r =
      reason::materialize(store, dict, vocab, opts);
  std::cout << "base " << r.base_triples << " (+" << r.schema_triples
            << " schema) -> inferred " << r.inferred << " in "
            << util::format_seconds(r.reason_seconds) << " ("
            << r.compiled_rules << " rules, " << r.iterations
            << " iterations)\n";
  if (rewrite) {
    std::cout << "equality rewrite: " << r.eq_merges << " merges, "
              << r.eq_conflicts << " conflicts; representative-space closure "
              << store.size() << " triples\n";
  }

  // Optional user rule file applied on top of the OWL-Horst closure.
  const std::string rules_path = args.option("--rules");
  if (!rules_path.empty()) {
    std::ifstream rin(rules_path);
    if (!rin) {
      std::cerr << "cannot open rules file " << rules_path << "\n";
      return 1;
    }
    rules::RuleParser parser(dict);
    parser.add_prefix("ub", gen::kUnivBenchNs);
    parser.add_prefix("mdc", gen::kMdcNs);
    std::string error;
    const auto user_rules = parser.parse(rin, &error);
    if (!user_rules) {
      std::cerr << "rule parse error: " << error << "\n";
      return 1;
    }
    reason::ForwardOptions fopts;
    fopts.dict = &dict;
    fopts.threads = opts.threads;
    const reason::ForwardStats stats =
        reason::forward_closure(store, *user_rules, fopts);
    std::cout << "user rules (" << user_rules->size() << ") derived "
              << stats.derived << " additional triples\n";
  }

  const std::string out = args.option("-o");
  if (!out.empty()) {
    rdf::EqualityClassMap map;
    if (rewrite) {
      map = eq.export_map();
    }
    if (!save_kb(out, dict, store, rewrite ? &map : nullptr)) {
      return 1;
    }
  }
  return 0;
}

/// Incremental maintenance from the command line: the KB file is the
/// asserted base; the closure is materialized in memory, then one mixed
/// add/delete batch is maintained through reason::Maintainer (DRed)
/// instead of re-materializing from scratch.
int cmd_update(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  if (path.empty() || !load_kb(path, dict, store, load_threads_of(args))) {
    return path.empty() ? usage() : 1;
  }
  const std::string adds_path = args.option("--adds-file");
  const std::string dels_path = args.option("--deletes-file");
  if (adds_path.empty() && dels_path.empty()) {
    std::cerr << "update: need --adds-file and/or --deletes-file\n";
    return usage();
  }
  ontology::Vocabulary vocab(dict);
  reason::MaintainOptions opts;
  opts.threads = args.count<unsigned>("--threads", 1);
  opts.obs = obs_options_from(args);

  // The loaded KB is the asserted base; compute the closure it maintains.
  rdf::TripleSet base(store.triples());
  reason::MaterializeOptions mo;
  mo.threads = opts.threads;
  const reason::MaterializeResult mr =
      reason::materialize(store, dict, vocab, mo);
  std::cout << "closure: " << mr.base_triples << " base -> +" << mr.inferred
            << " inferred\n";

  std::vector<rdf::Triple> adds;
  std::vector<rdf::Triple> dels;
  if (!adds_path.empty() && !load_triples(adds_path, dict, adds)) {
    return 1;
  }
  if (!dels_path.empty() && !load_triples(dels_path, dict, dels)) {
    return 1;
  }

  const reason::Maintainer maintainer(dict, vocab, opts);
  const reason::MaintainResult r = maintainer.apply(store, base, adds, dels);
  if (r.schema_changed) {
    std::cerr << "update rejected: the batch touches schema triples — "
                 "re-materialize instead\n";
    return 1;
  }
  std::cout << "base: -" << r.base_deleted << " +" << r.base_added
            << "\noverdelete: " << r.overdeleted << " condemned in "
            << r.overdelete_iterations << " iterations, "
            << util::format_seconds(r.overdelete_seconds)
            << "\nrederive: " << r.rederived << " re-proven one-step, "
            << r.inferred << " total new log entries in "
            << r.rederive_iterations << " iterations, "
            << util::format_seconds(r.rederive_seconds)
            << "\nnet removed " << r.removed << "; closure now "
            << store.size() << " triples ("
            << util::format_seconds(r.total_seconds) << " total)\n";

  const std::string out = args.option("-o");
  if (!out.empty() && !save_kb(out, dict, store)) {
    return 1;
  }
  return 0;
}

/// Shared by query, serve-bench and serve-dist: under --reason, materialize
/// the KB first.  Returns the frozen class map of a rewrite closure — from
/// materializing under --equality-mode rewrite, or else from a v3 snapshot
/// — as the shared_ptr the serving layers hold, or null.
std::shared_ptr<const reason::EqualityManager> equality_of(
    const Args& args, rdf::Dictionary& dict,
    const ontology::Vocabulary& vocab, rdf::TripleStore& store,
    const rdf::EqualityClassMap& loaded_map) {
  if (args.flag("--reason")) {
    reason::MaterializeOptions mopts;
    auto em = std::make_shared<reason::EqualityManager>();
    const bool rewrite = equality_mode_from(args, mopts, *em);
    const reason::MaterializeResult r =
        reason::materialize(store, dict, vocab, mopts);
    std::cout << "materialized: +" << r.inferred << " triples";
    if (rewrite) {
      std::cout << " (rewrite: " << r.eq_merges << " merges)\n";
      return em;
    }
    std::cout << "\n";
  }
  if (!loaded_map.empty()) {
    return std::make_shared<reason::EqualityManager>(
        reason::EqualityManager::import_map(loaded_map));
  }
  return nullptr;
}

int cmd_query(const Args& args) {
  const std::string path = args.positional(0);
  const std::string queries_file = args.option("--queries-file");
  const std::string text = args.positional(1);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::EqualityClassMap eqmap;  // non-empty after loading a v3 snapshot
  if (path.empty() || (text.empty() && queries_file.empty()) ||
      !load_kb(path, dict, store, load_threads_of(args), &eqmap)) {
    return path.empty() || (text.empty() && queries_file.empty()) ? usage()
                                                                  : 1;
  }
  ontology::Vocabulary vocab(dict);
  const std::shared_ptr<const reason::EqualityManager> eq =
      equality_of(args, dict, vocab, store, eqmap);
  // Answers from a representative-space closure are expanded through the
  // class map; unsupported shapes are reported, never silently wrong.
  const auto run_query =
      [&](const query::SelectQuery& q,
          std::string* why) -> std::optional<query::ResultSet> {
    if (!eq) {
      return query::evaluate(store, q);
    }
    query::EqualityEvalResult r =
        query::evaluate_with_equality(store, q, *eq, vocab.owl_same_as);
    if (r.unsupported) {
      *why = std::move(r.message);
      return std::nullopt;
    }
    return std::move(r.results);
  };
  query::SparqlParser parser(dict);
  parser.add_prefix("ub", gen::kUnivBenchNs);
  parser.add_prefix("mdc", gen::kMdcNs);
  parser.add_prefix("id", gen::kSameAsNs);

  // Batch mode: one query per line (the workload driver's file format).
  if (!queries_file.empty()) {
    std::ifstream in(queries_file);
    if (!in) {
      std::cerr << "cannot open " << queries_file << "\n";
      return 1;
    }
    const std::vector<std::string> queries = serve::load_query_lines(in);
    if (queries.empty()) {
      std::cerr << queries_file << ": no queries\n";
      return 1;
    }
    util::Table table({"#", "results", "time", "query"});
    int failures = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::string error;
      const auto q = parser.parse(queries[i], &error);
      if (!q) {
        std::cerr << "query " << i + 1 << ": " << error << "\n";
        ++failures;
        continue;
      }
      util::Stopwatch watch;
      std::string why;
      const auto results = run_query(*q, &why);
      if (!results) {
        std::cerr << "query " << i + 1 << ": unsupported under equality "
                  << "rewriting: " << why << "\n";
        ++failures;
        continue;
      }
      const std::string& full = queries[i];
      table.add_row({std::to_string(i + 1), std::to_string(results->size()),
                     util::format_seconds(watch.elapsed_seconds()),
                     full.size() > 60 ? full.substr(0, 57) + "..." : full});
    }
    table.print(std::cout);
    return failures == 0 ? 0 : 1;
  }

  std::string error;
  const auto q = parser.parse(text, &error);
  if (!q) {
    std::cerr << "query error: " << error << "\n";
    return 1;
  }
  util::Stopwatch watch;
  std::string why;
  const auto results = run_query(*q, &why);
  if (!results) {
    std::cerr << "unsupported under equality rewriting: " << why << "\n";
    return 1;
  }
  std::cout << query::to_text(*results, dict) << results->size()
            << " result(s) in " << util::format_seconds(watch.elapsed_seconds())
            << "\n";
  return 0;
}

/// The query mix of serve-bench and serve-dist: a file of one-per-line
/// queries (--queries-file), or the LUBM-14 mix.
std::vector<std::string> query_mix_of(const Args& args) {
  const std::string path = args.option("--queries-file");
  std::vector<std::string> queries;
  if (path.empty()) {
    for (const gen::LubmQuery& q : gen::lubm_queries()) {
      queries.push_back(q.sparql);
    }
  } else {
    std::ifstream in(path);
    if (!in) {
      throw std::runtime_error("cannot open " + path);
    }
    queries = serve::load_query_lines(in);
  }
  if (queries.empty()) {
    throw std::runtime_error("no queries to serve");
  }
  return queries;
}

/// The client workload of serve-bench and serve-dist.
serve::WorkloadOptions workload_options_from(const Args& args) {
  serve::WorkloadOptions w;
  w.mode = args.choice("--mode", {"open", "closed"}, "closed") == "open"
               ? serve::WorkloadMode::kOpenLoop
               : serve::WorkloadMode::kClosedLoop;
  w.total_requests = args.count<std::size_t>("--requests", 1000);
  w.seed = args.count<std::uint64_t>("--seed", 42);
  w.arrival_rate_qps = args.real("--rate", 1000);
  w.clients = args.count<std::size_t>("--clients", 4);
  w.think_seconds = args.real("--think", 0);
  return w;
}

/// The knobs serve::ServiceOptions and dist::DistOptions share.
void read_service_options(const Args& args, serve::FrontendOptions& o) {
  o.threads = args.count<std::size_t>("--threads", 2);
  o.queue_capacity = args.count<std::size_t>("--queue", 64);
  o.cache_enabled = !args.flag("--no-cache");
  o.default_deadline_seconds = args.real("--deadline", 0);
  o.prefixes = {{"ub", std::string(gen::kUnivBenchNs)},
                {"mdc", std::string(gen::kMdcNs)},
                {"id", std::string(gen::kSameAsNs)}};
  o.obs = obs_options_from(args);
}

int cmd_serve_bench(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::EqualityClassMap eqmap;
  if (path.empty() ||
      !load_kb(path, dict, store, load_threads_of(args), &eqmap)) {
    return path.empty() ? usage() : 1;
  }
  ontology::Vocabulary vocab(dict);
  const std::shared_ptr<const reason::EqualityManager> equality =
      equality_of(args, dict, vocab, store, eqmap);

  const std::vector<std::string> queries = query_mix_of(args);

  serve::ServiceOptions sopts;
  read_service_options(args, sopts);
  serve::QueryService service(dict, vocab, std::move(store), sopts, {},
                              equality);

  const serve::WorkloadOptions wopts = workload_options_from(args);

  const auto update_batches = args.count<std::size_t>("--update-batches", 0);
  const auto update_size = args.count<std::size_t>("--update-size", 10);
  const double delete_ratio = args.real("--delete-ratio", 0);

  // Optional concurrent writer: periodic instance batches (new students
  // joining Department0), exercising invalidation under live traffic.
  // With --delete-ratio > 0 each batch is mixed: it retracts a slice of the
  // previously added students (incremental maintenance path) alongside the
  // new additions.
  std::thread updater;
  std::atomic<bool> stop_updater{false};
  std::atomic<std::uint64_t> deletes_applied{0};
  if (update_batches > 0) {
    updater = std::thread([&] {
      const auto type = dict.find_iri(
          "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
      const auto grad = dict.find_iri(std::string(gen::kUnivBenchNs) +
                                      "GraduateStudent");
      std::size_t next_id = 0;
      std::vector<rdf::Triple> live;  // added and not yet retracted
      const auto deletes_per_batch = static_cast<std::size_t>(
          delete_ratio * static_cast<double>(update_size));
      for (std::size_t b = 0; b < update_batches && !stop_updater; ++b) {
        std::vector<rdf::Triple> batch;
        service.with_dict_exclusive([&](rdf::Dictionary& d) {
          for (std::size_t i = 0; i < update_size; ++i) {
            const auto stu = d.intern_iri(
                "http://www.Department0.Univ0.edu/ServeBenchStudent" +
                std::to_string(next_id++));
            batch.push_back({stu, type, grad});
          }
          return 0;
        });
        std::vector<rdf::Triple> dels;
        const std::size_t d = std::min(deletes_per_batch, live.size());
        dels.assign(live.end() - static_cast<std::ptrdiff_t>(d), live.end());
        live.resize(live.size() - d);
        const serve::UpdateOutcome outcome = service.apply_update(batch, dels);
        deletes_applied += outcome.maintain.base_deleted;
        live.insert(live.end(), batch.begin(), batch.end());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (outcome.result.schema_changed) {
          break;
        }
      }
    });
  }

  const serve::WorkloadReport report =
      serve::run_workload(service, queries, wopts);
  stop_updater = true;
  if (updater.joinable()) {
    updater.join();
  }
  service.drain();

  std::cout << "\n--- client view (" << (wopts.mode == serve::WorkloadMode::kOpenLoop
                                             ? "open loop"
                                             : "closed loop")
            << ", " << sopts.threads << " threads, cache "
            << (sopts.cache_enabled ? "on" : "off") << ") ---\n";
  report.print(std::cout);
  std::cout << "\n--- service stats ---\n";
  serve::print(service.stats(), std::cout);
  if (delete_ratio > 0 && update_batches > 0) {
    std::cout << "mixed stream: " << deletes_applied.load()
              << " base triples retracted\n";
  }
  std::cout << "throughput " << util::fmt_double(report.throughput_qps(), 1)
            << " q/s\n";
  return 0;
}

int cmd_explain(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore base;
  if (path.empty() || !load_kb(path, dict, base, load_threads_of(args))) {
    return 1;
  }
  const rdf::TermId s = dict.find_iri(args.positional(1));
  const rdf::TermId p = dict.find_iri(args.positional(2));
  const rdf::TermId o = dict.find_iri(args.positional(3));
  if (s == rdf::kAnyTerm || p == rdf::kAnyTerm || o == rdf::kAnyTerm) {
    std::cerr << "one or more terms are not in the knowledge base\n";
    return 1;
  }

  ontology::Vocabulary vocab(dict);
  const rules::CompiledRules compiled =
      reason::compile_ontology(base, vocab);
  rdf::TripleStore materialized;
  materialized.insert_all(base.triples());
  materialized.insert_all(compiled.ground_facts);
  base.insert_all(compiled.ground_facts);  // schema closure is asserted
  reason::ForwardOptions fopts;
  fopts.dict = &dict;
  reason::ForwardEngine(materialized, compiled.rules, fopts).run(0);

  const reason::Explainer explainer(materialized, base, compiled.rules);
  const auto proof = explainer.explain({s, p, o});
  if (!proof) {
    std::cout << "triple is not entailed by the knowledge base\n";
    return 1;
  }
  std::cout << explainer.to_text(*proof, dict);
  return 0;
}

int cmd_partition(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  if (path.empty() || !load_kb(path, dict, store, load_threads_of(args))) {
    return 1;
  }
  const auto k = args.count<std::uint32_t>("-k", 4, 1);
  const auto policy = make_policy(args, "graph");

  ontology::Vocabulary vocab(dict);
  const partition::DataPartitioning dp =
      partition::partition_data(store, dict, vocab, *policy, k);
  const partition::PartitionMetrics m =
      partition::compute_partition_metrics(dp, dict);

  util::Table table({"partition", "triples", "nodes"});
  for (std::uint32_t p = 0; p < k; ++p) {
    table.add_row({std::to_string(p), std::to_string(dp.parts[p].size()),
                   std::to_string(m.nodes_per_partition[p])});
  }
  table.print(std::cout);
  std::cout << "policy " << policy->name() << " [" << dp.algorithm
            << "]: bal=" << util::fmt_double(m.bal, 1)
            << " IR=" << util::fmt_double(m.input_replication, 3)
            << " RF=" << util::fmt_double(m.replication_factor, 3)
            << " plan.cut=" << dp.plan_metrics.edge_cut
            << " part.time=" << util::format_seconds(dp.partition_seconds)
            << "\n";
  return 0;
}

/// Parse "--faults seed=7,drop=0.05,dup=0.02,corrupt=0.01,delay=0.02,
/// reorder=0.1" into a FaultSpec.  A malformed entry, an unknown key, an
/// unparsable value or a probability outside [0, 1] is an error.
parallel::FaultSpec parse_fault_spec(const std::string& text) {
  parallel::FaultSpec spec;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--faults: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const std::string what = "--faults " + key;
    const auto probability = [&] {
      return parse_number(what, value, 0.0, 1.0);
    };
    if (key == "seed") {
      spec.seed = parse_number<std::uint64_t>(what, value);
    } else if (key == "drop") {
      spec.drop = probability();
    } else if (key == "dup" || key == "duplicate") {
      spec.duplicate = probability();
    } else if (key == "corrupt") {
      spec.corrupt = probability();
    } else if (key == "delay") {
      spec.delay = probability();
    } else if (key == "reorder") {
      spec.reorder = probability();
    } else if (key == "max-delay-rounds") {
      spec.max_delay_rounds = parse_number<std::uint32_t>(what, value);
    } else if (key == "max-faulty-attempts") {
      spec.max_faulty_attempts = parse_number<std::uint32_t>(what, value);
    } else {
      throw std::invalid_argument(
          "--faults: unknown key '" + key +
          "' (expected seed|drop|dup|duplicate|corrupt|delay|reorder|"
          "max-delay-rounds|max-faulty-attempts)");
    }
  }
  return spec;
}

/// serve-dist: the distributed serving tier.  Shards the (optionally
/// freshly materialized) closure over `--partitions` partitions with
/// `--replicas` replicas each, then drives dist::DistService with the same
/// workload knobs serve-bench takes.  `--faults` wraps the in-memory
/// transport in the seeded FaultyTransport so replica failover and
/// retransmission show up in the stats.
int cmd_serve_dist(const Args& args) {
  const std::string path = args.positional(0);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::EqualityClassMap eqmap;
  if (path.empty() ||
      !load_kb(path, dict, store, load_threads_of(args), &eqmap)) {
    return path.empty() ? usage() : 1;
  }
  ontology::Vocabulary vocab(dict);
  const std::shared_ptr<const reason::EqualityManager> equality =
      equality_of(args, dict, vocab, store, eqmap);

  const std::vector<std::string> queries = query_mix_of(args);

  const auto k = args.count<std::uint32_t>(
      "--partitions", args.count<std::uint32_t>("-k", 4, 1), 1);
  const auto replicas = args.count<std::uint32_t>("--replicas", 1, 1);
  const auto policy = make_policy(args, "hash");
  partition::OwnerTable owners =
      partition::partition_data(store, dict, vocab, *policy, k).owners;

  const dist::NodeLayout layout{k, replicas};
  parallel::MemoryTransport inner(layout.num_nodes());
  std::unique_ptr<parallel::FaultyTransport> faulty;
  const std::string faults_arg = args.option("--faults");
  if (!faults_arg.empty()) {
    faulty = std::make_unique<parallel::FaultyTransport>(
        inner, parse_fault_spec(faults_arg));
  }
  parallel::Transport& transport =
      faulty ? static_cast<parallel::Transport&>(*faulty) : inner;

  dist::DistOptions dopts;
  read_service_options(args, dopts);
  dopts.replicas = replicas;
  dopts.equality = equality;
  dopts.same_as = vocab.owl_same_as;
  dist::DistService service(dict, store, std::move(owners), k, transport,
                            dopts);

  const serve::WorkloadOptions wopts = workload_options_from(args);

  const serve::WorkloadReport report =
      serve::run_workload(service, queries, wopts);
  service.drain();

  std::cout << "\n--- client view ("
            << (wopts.mode == serve::WorkloadMode::kOpenLoop ? "open loop"
                                                             : "closed loop")
            << ", " << k << " partitions x " << replicas << " replicas, cache "
            << (dopts.cache_enabled ? "on" : "off") << ") ---\n";
  report.print(std::cout);
  std::cout << "\n--- dist service stats ---\n";
  serve::print(service.stats(), std::cout);
  if (faulty) {
    const parallel::FaultLog inj = faulty->injected_faults();
    std::cout << "faults: injected " << inj.total() << " (drop " << inj.drops
              << ", dup " << inj.duplicates << ", corrupt " << inj.corruptions
              << ", delay " << inj.delays << ", reorder " << inj.reorders
              << ")\n";
  }
  std::cout << "throughput " << util::fmt_double(report.throughput_qps(), 1)
            << " q/s\n";
  return 0;
}

int cmd_cluster(const Args& args) {
  const std::string path = args.positional(0);
  if (path.empty()) {
    return usage();
  }
  rdf::Dictionary dict;
  rdf::TripleStore store;
  const auto partitions = args.count<std::uint32_t>(
      "-k", args.count<std::uint32_t>("--partitions", 4, 1), 1);

  // Streaming bootstrap: with a streaming --partitioner the owner table is
  // built *during* load — the reader's chunk_sink feeds each merged chunk
  // to the partitioner, so the full resource graph is never materialized.
  // The resulting plan replays into Algorithm 1 via FixedOwnerPolicy.
  partition::PartitionerOptions popts = partitioner_options_from(args);
  const bool streaming_bootstrap =
      popts.kind != partition::PartitionerKind::kMultilevel &&
      args.option("--policy").empty();
  std::unique_ptr<partition::Partitioner> bootstrap;
  std::function<void(std::span<const rdf::Triple>)> sink;
  if (streaming_bootstrap) {
    // Intern the vocabulary up front so rdf:type triples can be routed
    // subject-only before the ontology pass exists (class IRIs in object
    // position would otherwise become giant hubs).
    const ontology::Vocabulary pre(dict);
    popts.type_predicate = pre.rdf_type;
    bootstrap = partition::make_partitioner(popts, dict, partitions);
    sink = [&bootstrap](std::span<const rdf::Triple> chunk) {
      bootstrap->ingest(chunk);
    };
  }
  if (!load_kb(path, dict, store, load_threads_of(args), nullptr,
               std::move(sink))) {
    return 1;
  }
  ontology::Vocabulary vocab(dict);

  parallel::ParallelOptions opts;
  opts.partitions = partitions;
  opts.obs = obs_options_from(args);
  opts.rule_partitions = args.count<std::uint32_t>("--rule-parts", 2);
  const std::string approach =
      args.choice("--approach", {"data", "rule", "hybrid"}, "data");
  opts.approach = approach == "rule"     ? parallel::Approach::kRulePartition
                  : approach == "hybrid" ? parallel::Approach::kHybrid
                                         : parallel::Approach::kDataPartition;
  opts.mode = exec_mode_of(args);
  opts.async.steal = !args.flag("--no-steal");
  opts.async.steal_batch = args.count<std::size_t>("--steal-batch", 256);
  opts.async.chunk = args.count<std::size_t>("--chunk", 256, 1);
  opts.local_strategy = local_strategy_of(args);
  std::unique_ptr<partition::OwnerPolicy> policy;
  if (bootstrap) {
    partition::PartitionPlan plan = bootstrap->finalize();
    std::cout << "streamed partitioner " << plan.algorithm << ": "
              << plan.triples_ingested << " triples, RF="
              << util::fmt_double(plan.metrics.replication_factor, 3)
              << " cut=" << plan.metrics.edge_cut << " peak state "
              << plan.peak_state_entries << " entries, "
              << util::format_seconds(plan.partition_seconds) << "\n";
    policy = std::make_unique<partition::FixedOwnerPolicy>(
        std::move(plan.owners), plan.algorithm);
  } else {
    policy = make_policy(args, "graph");
  }
  opts.policy = policy.get();
  opts.build_merged = false;

  parallel::FaultSpec faults;
  const std::string faults_arg = args.option("--faults");
  if (!faults_arg.empty()) {
    faults = parse_fault_spec(faults_arg);
    opts.faults = &faults;
  }
  opts.checkpoint_dir = args.option("--checkpoint-dir");

  const parallel::ParallelResult r =
      parallel::parallel_materialize(store, dict, vocab, opts);
  std::cout << "inferred " << r.inferred << " triples with "
            << r.cluster.results_per_partition.size() << " workers\n"
            << "simulated parallel time: "
            << util::format_seconds(r.cluster.simulated_seconds) << "\n";
  std::cout << "rounds: " << r.cluster.rounds
            << "  (reason " << util::format_seconds(r.cluster.reason_seconds)
            << ", io " << util::format_seconds(r.cluster.io_seconds)
            << ", sync " << util::format_seconds(r.cluster.sync_seconds)
            << ")\n";
  if (opts.mode == parallel::ExecutionMode::kAsync ||
      opts.mode == parallel::ExecutionMode::kAsyncThreaded) {
    const parallel::AsyncStats& st = r.cluster.async_stats;
    std::cout << "async: " << st.activations << " activations, "
              << st.steals << " steals (" << st.stolen_tuples
              << " tuples, " << st.steal_derivations << " derived), "
              << st.token_epochs << " token epochs, "
              << st.token_passes << " passes, idle "
              << util::format_seconds(st.idle_seconds) << "\n";
  }
  std::size_t exchanged = 0;
  std::size_t received_new = 0;
  for (const parallel::RoundBreakdown& rb : r.cluster.breakdown) {
    exchanged += rb.tuples_exchanged;
    received_new += rb.received_new;
  }
  std::cout << "exchanged " << exchanged << ", new at receiver "
            << received_new << "\n";
  if (r.metrics) {
    std::cout << "IR=" << util::fmt_double(r.metrics->input_replication, 3)
              << " OR=" << util::fmt_double(r.output_replication, 3) << "\n";
  }
  if (!faults_arg.empty() || !opts.checkpoint_dir.empty()) {
    const parallel::RunReport& rep = r.cluster.report;
    std::cout << "faults: injected " << rep.injected.total() << " (drop "
              << rep.injected.drops << ", dup " << rep.injected.duplicates
              << ", corrupt " << rep.injected.corruptions << ", delay "
              << rep.injected.delays << ", reorder "
              << rep.injected.reorders << ")\n"
              << "delivery: " << rep.batches_sent << " batches, "
              << rep.retransmissions << " retransmissions, "
              << rep.redeliveries << " redeliveries, "
              << rep.checksum_failures << " checksum failures, backoff "
              << util::format_seconds(rep.backoff_seconds) << "\n"
              << "checkpoints: " << rep.checkpoints_written << " written";
    if (rep.recovered) {
      std::cout << ", recovered from round " << rep.recovered_from_round;
    }
    std::cout << "\n";
  }
  return 0;
}

/// The command table: name, Command bit (which flags it reads), handler.
struct CommandSpec {
  std::string_view name;
  unsigned bit;
  int (*run)(const Args&);
};
constexpr CommandSpec kCommands[] = {
    {"gen", kGen, cmd_gen},
    {"info", kInfo, cmd_info},
    {"load-bench", kLoadBench, cmd_load_bench},
    {"materialize", kMaterialize, cmd_materialize},
    {"update", kUpdate, cmd_update},
    {"query", kQuery, cmd_query},
    {"explain", kExplain, cmd_explain},
    {"partition", kPartition, cmd_partition},
    {"cluster", kCluster, cmd_cluster},
    {"run", kCluster, cmd_cluster},
    {"serve-bench", kServeBench, cmd_serve_bench},
    {"serve-dist", kServeDist, cmd_serve_dist}};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  // Any failure — a bad flag value, unreadable input, a cluster delivery
  // failure — ends in a message and a non-zero status, never an abort.
  const std::string_view command = argv[1];
  const auto* spec = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [command](const CommandSpec& c) { return c.name == command; });
  if (spec == std::end(kCommands)) {
    return usage();
  }
  try {
    const Args args(argc, argv, 2, spec->name, spec->bit);
    // One RAII session covers every command: configure the sinks up front,
    // flush the trace/metrics files on the way out.
    const obs::Session obs_session(obs_options_from(args));
    return spec->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
