// lubm-serve-rw and lubm-serve-dist: serving the materialized LUBM(kScale)
// closure.
//
// Both load the closure from a snapshot written at set-up and read the same
// Zipf-skewed LUBM query stream (query_mix.hpp):
//   * an open-loop phase: one generator thread sends at a fixed rate, and
//     each request is timed from when it was due;
//   * a closed-loop phase: kClients clients, no think time, for read_qps.
// Every answer is checked against a reference digest computed at set-up by
// query::evaluate on the static closure.
//
// lubm-serve-rw runs serve::QueryService (2 executors, cache on, DRed) given
// the asserted base, with one writer applying a mixed batch every 500 ms.
// Answers must equal the reference once rows naming the writer's fresh
// students are dropped, and the final snapshot must equal a from-scratch
// closure of the final base.
//
// lubm-serve-dist runs dist::DistService over kShards HDRF shards x 1
// replica on a MemoryTransport, read-only, cache off.

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "query_mix.hpp"

namespace perfbench {
namespace {

using parowl::rdf::TermId;
using parowl::rdf::Triple;

constexpr std::uint32_t kScale = 50;  // LUBM universities
constexpr std::size_t kExecutors = 2;
constexpr std::size_t kQueueCapacity = 1024;
constexpr int kClients = 2;
// Set-ups per run (setup_s is their median wall time).  A dist set-up is
// ~3x the QueryService one.
constexpr int kRwSetupReps = 15;
constexpr int kDistSetupReps = 9;
constexpr std::uint32_t kShards = 4;

// Open-loop send rates (requests per second), about a fifth of what each
// service sustains closed-loop on a 4-core host.  Near saturation the
// queue amplifies every scheduling hiccup and the median stops being
// repeatable (seen while sizing at 200 q/s and 60 q/s respectively).
constexpr double kRwRate = 100.0;
constexpr double kDistRate = 30.0;

// Share of the run spent in the open-loop phase; the rest is closed loop.
// A traced run adds a traced open-loop phase of kTracedShare.
constexpr double kOpenShare = 0.7;
constexpr double kTracedShare = 0.3;

// Latency is timed from each request's due time, so a late send still
// counts against the service.  But a generator whose p99 send is later
// than this no longer offers the stated rate: such a run is marked
// invalid.  (Wake-up jitter of the sleeping generator on a busy shared
// 4-vCPU host reaches 25 ms at p99.)
constexpr double kMaxGeneratorLag = 0.1;

// Writer: one mixed batch per interval, kBatchStudents fresh students with
// two triples each (50 triples), retracting the kBatchRetracts oldest of
// its own earlier additions.  A batch takes ~100 ms at LUBM(50) and holds
// the dictionary lock that every cache-miss parse needs, so at a 100 ms
// interval the writer never lets go and reads starve (seen while sizing:
// open-loop reads waited ~10 s); 500 ms keeps the writer busy ~20% of the
// time.
constexpr auto kWriteInterval = std::chrono::milliseconds(500);
constexpr std::size_t kBatchStudents = 25;
constexpr std::size_t kBatchRetracts = 25;

constexpr const char* kUb = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

// ---------------------------------------------------------------------------
// Set-up shared by both workloads.

struct KbFile {
  std::string path;
  std::size_t base_triples = 0;  // the log prefix that is asserted
};

KbFile write_closure_snapshot(const RunConfig& config) {
  parowl::rdf::Dictionary dict;
  parowl::rdf::TripleStore store;
  parowl::gen::LubmOptions options;
  options.universities = kScale;
  options.seed = config.seed;
  parowl::gen::generate_lubm(options, dict, store);
  parowl::ontology::Vocabulary vocab(dict);
  parowl::reason::MaterializeOptions mopts;
  mopts.threads = 4;
  const parowl::reason::MaterializeResult r =
      parowl::reason::materialize(store, dict, vocab, mopts);
  KbFile kb{config.work_dir + "/lubm-serve.snap", r.base_triples};
  std::ofstream out(kb.path, std::ios::binary | std::ios::trunc);
  parowl::rdf::save_snapshot(out, dict, store);
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write " + kb.path);
  }
  return kb;
}

void load_kb(const std::string& path, parowl::rdf::Dictionary& dict,
             parowl::rdf::TripleStore& store) {
  parowl::obs::Span span("rdf.call.load_snapshot");
  std::ifstream in(path, std::ios::binary);
  std::string error;
  if (!in || !parowl::rdf::load_snapshot(in, dict, store, &error)) {
    throw std::runtime_error("cannot load " + path + ": " + error);
  }
}

/// Pre-drawn requests plus the reference answer digest of every distinct
/// text, computed once on the static closure.
struct Stream {
  std::vector<QueryRequest> open;
  std::vector<QueryRequest> traced;
  std::vector<QueryRequest> closed;  // cycled by the closed-loop clients
  std::unordered_map<std::string, RowDigest> reference;
};

Stream make_stream(const RunConfig& config, double rate,
                   const parowl::rdf::TripleStore& closure,
                   parowl::rdf::Dictionary& dict) {
  Stream s;
  QueryMix mix(kScale, config.seed);
  const auto draw = [&mix](std::vector<QueryRequest>& out, std::size_t n) {
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(mix.next());
    }
  };
  draw(s.open,
       static_cast<std::size_t>(rate * config.seconds * kOpenShare) + 1);
  if (config.trace) {
    draw(s.traced,
         static_cast<std::size_t>(rate * config.seconds * kTracedShare) + 1);
  }
  draw(s.closed, 4096);

  parowl::query::SparqlParser parser(dict);
  for (const auto* list : {&s.open, &s.traced, &s.closed}) {
    for (const QueryRequest& q : *list) {
      if (s.reference.count(q.text) != 0) {
        continue;
      }
      std::string error;
      const auto parsed = parser.parse(q.text, &error);
      if (!parsed) {
        throw std::runtime_error("reference parse failed: " + error);
      }
      s.reference.emplace(
          q.text, digest_rows(parowl::query::evaluate(closure, *parsed)));
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Request records and the two load generators.

struct Record {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  parowl::serve::RequestStatus status = parowl::serve::RequestStatus::kOk;
  bool cache_hit = false;
  RowDigest digest;
};

/// Check every record against the reference; count attempts and failures.
void check_records(const std::vector<Record>& records,
                   const std::vector<QueryRequest>& requests,
                   const Stream& stream, Result& result) {
  std::size_t bad_status = 0;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ++result.attempted;
    if (records[i].status != parowl::serve::RequestStatus::kOk) {
      ++bad_status;
    } else if (!(records[i].digest ==
                 stream.reference.at(requests[i].text))) {
      ++wrong;
    }
  }
  if (bad_status > 0) {
    result.fail(std::to_string(bad_status) + " requests not answered",
                bad_status);
  }
  if (wrong > 0) {
    result.fail(std::to_string(wrong) + " wrong answers", wrong);
  }
}

/// Open loop: request i is due at start + i / rate.  The calling thread is
/// the generator; it sleeps until each due time and then submits.
template <typename Service>
std::vector<Record> open_loop(Service& service,
                              const std::vector<QueryRequest>& requests,
                              double rate, Clock::time_point start,
                              TermId skip_lo, TermId skip_hi,
                              const char* submit_span) {
  std::vector<Record> records(requests.size());
  std::atomic<std::size_t> completed{0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Record& rec = records[i];
    rec.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / rate));
    std::this_thread::sleep_until(rec.due);
    rec.sent = Clock::now();
    parowl::obs::Span span(submit_span);
    service.submit(requests[i].text,
                   [&rec, &completed, skip_lo, skip_hi](
                       const parowl::serve::Response& response) {
                     rec.done = Clock::now();
                     rec.status = response.status;
                     rec.cache_hit = response.cache_hit;
                     rec.digest =
                         digest_rows(response.results, skip_lo, skip_hi);
                     completed.fetch_add(1, std::memory_order_release);
                   });
  }
  service.drain();
  while (completed.load(std::memory_order_acquire) < requests.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return records;
}

/// Closed loop: kClients threads, each submitting its next request as soon
/// as the previous one is answered, until `seconds` have passed.  Checks
/// every answer and returns the completed requests per second.
template <typename Service>
double closed_loop(Service& service, const Stream& stream, double seconds,
                   TermId skip_lo, TermId skip_hi, Result& result) {
  std::atomic<std::size_t> next{0};
  std::mutex merge_mutex;
  std::vector<Record> all;
  std::vector<QueryRequest> all_requests;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client = [&]() {
    std::vector<Record> mine;
    std::vector<QueryRequest> my_requests;
    while (Clock::now() < stop) {
      const QueryRequest& q =
          stream.closed[next.fetch_add(1) % stream.closed.size()];
      Record rec;
      rec.sent = rec.due = Clock::now();
      std::promise<void> answered;
      service.submit(q.text, [&rec, &answered, skip_lo, skip_hi](
                                 const parowl::serve::Response& response) {
        rec.done = Clock::now();
        rec.status = response.status;
        rec.cache_hit = response.cache_hit;
        rec.digest = digest_rows(response.results, skip_lo, skip_hi);
        answered.set_value();
      });
      answered.get_future().wait();
      mine.push_back(rec);
      my_requests.push_back(q);
    }
    const std::lock_guard lock(merge_mutex);
    all.insert(all.end(), mine.begin(), mine.end());
    all_requests.insert(all_requests.end(), my_requests.begin(),
                        my_requests.end());
  };
  std::vector<std::jthread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client);
  }
  clients.clear();  // joins
  const double elapsed = seconds_between(start, Clock::now());
  check_records(all, all_requests, stream, result);
  return static_cast<double>(all.size()) / elapsed;
}

struct Latency {
  std::vector<double> latency;  // done - due
  std::vector<double> lag;      // sent - due
};

Latency latencies(const std::vector<Record>& records) {
  Latency l;
  for (const Record& r : records) {
    l.latency.push_back(seconds_between(r.due, r.done));
    l.lag.push_back(seconds_between(r.due, r.sent));
  }
  return l;
}

/// Set-up times of one serving workload, one entry per set-up.
struct Setups {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> load;  // the snapshot load alone
  // Over all set-ups: one is too short for /proc/stat's 10 ms ticks.
  double stolen = 0.0;
};

/// The end-to-end read metrics common to both serving workloads.
/// `open_cpu` and `open_stolen` are the process CPU time and the stolen
/// share of the open-loop phase.
void add_read_metrics(const Latency& open, double open_cpu,
                      double open_stolen, double qps, const Setups& setup,
                      Result& result) {
  const double lag = quantile(open.lag, 0.99);
  result.add("read_p50_s", quantile(open.latency, 0.5), "s");
  result.add("host.stolen_share", open_stolen, "ratio");
  result.add("read_p99_s", quantile(open.latency, 0.99), "s");
  result.add("read_qps", qps, "1/s");
  result.add("cpu_per_op_s",
             open_cpu / static_cast<double>(open.latency.size()), "s");
  result.add("setup_s", net_of_steal(median(setup.wall), setup.stolen), "s");
  result.add("setup_wall_s", median(setup.wall), "s");
  result.add("setup_cpu_s", median(setup.cpu), "s");
  result.add("rdf.snapshot_load_s", median(setup.load), "s");
  result.add("bench.samples", static_cast<double>(open.latency.size()),
             "count");
  result.add("bench.generator_lag_p99_s", lag, "s");
  if (lag > kMaxGeneratorLag) {
    result.invalidate("generator fell behind: p99 lag " +
                      std::to_string(lag) + " s");
  }
}

/// The traced open-loop phase's wall time, and its read p50 against the
/// untraced one.
void add_trace_metrics(const std::vector<Record>& traced,
                       const Latency& untraced, Result& result) {
  result.add("trace.wall_s",
             seconds_between(traced.front().due, traced.back().done), "s");
  result.add("trace.overhead_s",
             quantile(latencies(traced).latency, 0.5) -
                 quantile(untraced.latency, 0.5),
             "s");
}

// ---------------------------------------------------------------------------
// lubm-serve-rw

struct RwService {
  std::unique_ptr<parowl::rdf::Dictionary> dict;
  std::unique_ptr<parowl::ontology::Vocabulary> vocab;
  std::vector<Triple> base;
  std::unique_ptr<parowl::serve::QueryService> service;  // destroyed first
};

/// The concurrent writer: fresh students join Zipf-drawn departments.
class Writer {
 public:
  Writer(parowl::serve::QueryService& service, std::uint64_t seed,
         std::size_t batches)
      : service_(service) {
    std::mt19937_64 rng(seed ^ 0x777ULL);
    const Zipf universities(kScale);
    const Zipf departments(
        parowl::gen::LubmOptions{}.departments_per_university);
    const std::size_t students = batches * kBatchStudents;
    service.with_dict_exclusive([&](parowl::rdf::Dictionary& d) {
      type_ = d.find_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
      grad_ = d.find_iri(std::string(kUb) + "GraduateStudent");
      member_of_ = d.find_iri(std::string(kUb) + "memberOf");
      fresh_lo_ = static_cast<TermId>(d.size() + 1);
      for (std::size_t i = 0; i < students; ++i) {
        const std::uint32_t u = universities.draw(rng);
        const std::uint32_t dep = departments.draw(rng);
        const std::string univ = "Univ" + std::to_string(u) + ".edu";
        const TermId student = d.intern_iri(
            "http://www.Department" + std::to_string(dep) + "." + univ +
            "/PerfbenchStudent" + std::to_string(i));
        const TermId dept = d.find_iri("http://www." + univ + "/Department" +
                                       std::to_string(dep));
        pending_.push_back({student, type_, grad_});
        pending_.push_back({student, member_of_, dept});
      }
      fresh_hi_ = static_cast<TermId>(d.size() + 1);
      return 0;
    });
    if (type_ == 0 || grad_ == 0 || member_of_ == 0 ||
        fresh_hi_ - fresh_lo_ != students) {
      throw std::runtime_error("writer set-up: unexpected dictionary state");
    }
  }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { stop(); }

  /// Batch k is due at epoch + k * kWriteInterval.  The open-loop
  /// generator runs on the same epoch, so reads and updates interleave the
  /// same way in every run of a seed.
  void start(Clock::time_point epoch) {
    thread_ = std::jthread(
        [this, epoch](std::stop_token token) { loop(token, epoch); });
  }
  void stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] TermId fresh_lo() const { return fresh_lo_; }
  [[nodiscard]] TermId fresh_hi() const { return fresh_hi_; }

  // Valid after stop().
  std::vector<double> latency;
  std::vector<double> stolen;  // stolen_share during each update
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
  std::vector<parowl::serve::UpdateOutcome> outcomes;
  std::deque<Triple> live;  // added and not yet retracted
  std::size_t failures = 0;
  std::string failure;

 private:
  void loop(const std::stop_token& token, Clock::time_point next) {
    while (true) {
      std::this_thread::sleep_until(next);
      if (token.stop_requested()) {
        return;
      }
      next += kWriteInterval;
      if (cursor_ + 2 * kBatchStudents > pending_.size()) {
        failure = "writer ran out of fresh students";
        ++failures;
        return;
      }
      const std::vector<Triple> adds(
          pending_.begin() + static_cast<std::ptrdiff_t>(cursor_),
          pending_.begin() +
              static_cast<std::ptrdiff_t>(cursor_ + 2 * kBatchStudents));
      cursor_ += adds.size();
      std::vector<Triple> dels;
      if (live.size() >= kBatchRetracts) {
        dels.assign(live.begin(),
                    live.begin() + static_cast<std::ptrdiff_t>(kBatchRetracts));
      }
      const Clock::time_point t0 = Clock::now();
      const CpuTicks k0 = cpu_ticks();
      parowl::serve::UpdateOutcome outcome;
      {
        parowl::obs::Span span("serve.call.apply_update");
        outcome = service_.apply_update(adds, dels);
      }
      const Clock::time_point t1 = Clock::now();
      latency.push_back(seconds_between(t0, t1));
      stolen.push_back(stolen_share(k0, cpu_ticks()));
      intervals.emplace_back(t0, t1);
      if (outcome.version == 0 || outcome.result.schema_changed ||
          outcome.maintain.equality_rejected ||
          outcome.maintain.base_deleted != dels.size()) {
        failure = "update batch was not applied as sent";
        ++failures;
      }
      outcomes.push_back(std::move(outcome));
      live.erase(live.begin(),
                 live.begin() + static_cast<std::ptrdiff_t>(dels.size()));
      live.insert(live.end(), adds.begin(), adds.end());
    }
  }

  parowl::serve::QueryService& service_;
  TermId type_ = 0;
  TermId grad_ = 0;
  TermId member_of_ = 0;
  TermId fresh_lo_ = 0;
  TermId fresh_hi_ = 0;
  std::vector<Triple> pending_;
  std::size_t cursor_ = 0;
  std::jthread thread_;  // last: joins before the members above go away
};

bool overlaps_update(
    const Record& r,
    const std::vector<std::pair<Clock::time_point, Clock::time_point>>& iv) {
  return std::any_of(iv.begin(), iv.end(), [&r](const auto& w) {
    return w.first < r.done && r.sent < w.second;
  });
}

}  // namespace

Result run_lubm_serve_rw(const RunConfig& config) {
  Result result;
  const KbFile kb = write_closure_snapshot(config);

  // Set-up: snapshot load plus service construction (several times; the
  // last service is kept).
  Setups setup;
  RwService rw;
  const CpuTicks setup_k0 = cpu_ticks();
  for (int i = 0; i < kRwSetupReps; ++i) {
    rw.service.reset();  // before the dictionary it refers to
    rw = RwService{};
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    rw.dict = std::make_unique<parowl::rdf::Dictionary>();
    parowl::rdf::TripleStore store;
    load_kb(kb.path, *rw.dict, store);
    const Clock::time_point t1 = Clock::now();
    rw.vocab = std::make_unique<parowl::ontology::Vocabulary>(*rw.dict);
    rw.base.assign(store.triples().begin(),
                   store.triples().begin() +
                       static_cast<std::ptrdiff_t>(kb.base_triples));
    parowl::serve::ServiceOptions options;
    options.threads = kExecutors;
    options.queue_capacity = kQueueCapacity;
    options.cache_enabled = true;
    options.maintain_strategy = parowl::reason::MaintainStrategy::kDRed;
    rw.service = std::make_unique<parowl::serve::QueryService>(
        *rw.dict, *rw.vocab, std::move(store), options, rw.base);
    const Clock::time_point t2 = Clock::now();
    setup.cpu.push_back(cpu_seconds() - c0);
    setup.load.push_back(seconds_between(t0, t1));
    setup.wall.push_back(seconds_between(t0, t2));
  }
  setup.stolen = stolen_share(setup_k0, cpu_ticks());
  parowl::serve::QueryService& service = *rw.service;

  const Stream stream = make_stream(config, kRwRate,
                                    service.snapshot()->store, *rw.dict);
  const double run_seconds =
      config.seconds * (1.0 + (config.trace ? kTracedShare : 0.0));
  const auto batches = static_cast<std::size_t>(
      run_seconds * 1000.0 /
          static_cast<double>(kWriteInterval.count()) * 1.5 +
      20);
  Writer writer(service, config.seed, batches);
  const TermId lo = writer.fresh_lo();
  const TermId hi = writer.fresh_hi();

  const Clock::time_point epoch = Clock::now();
  writer.start(epoch);
  const double open_c0 = cpu_seconds();
  const CpuTicks open_k0 = cpu_ticks();
  const std::vector<Record> open = open_loop(
      service, stream.open, kRwRate, epoch, lo, hi, "serve.call.submit");
  const double open_cpu = cpu_seconds() - open_c0;
  const double open_stolen = stolen_share(open_k0, cpu_ticks());
  check_records(open, stream.open, stream, result);
  const double qps = closed_loop(service, stream,
                                 config.seconds * (1.0 - kOpenShare), lo, hi,
                                 result);
  const parowl::serve::ServiceStats stats = service.stats();
  const Clock::time_point untraced_end = Clock::now();

  std::vector<Record> traced;
  if (config.trace) {
    start_tracing();
    {
      parowl::obs::Span timed("bench.timed");
      traced = open_loop(service, stream.traced, kRwRate, Clock::now(), lo,
                         hi, "serve.call.submit");
    }
    stop_tracing(config, result);
    check_records(traced, stream.traced, stream, result);
  }
  writer.stop();
  service.drain();

  // Updates.
  result.attempted += writer.latency.size();
  if (writer.failures > 0) {
    result.fail(writer.failure, writer.failures);
  }
  // Final state: the served closure equals a from-scratch closure of the
  // final asserted base.
  {
    ++result.attempted;
    parowl::rdf::TripleStore scratch;
    scratch.insert_all(rw.base);
    for (const Triple& t : writer.live) {
      scratch.insert(t);
    }
    parowl::reason::MaterializeOptions mopts;
    mopts.threads = 4;
    (void)parowl::reason::materialize(scratch, *rw.dict, *rw.vocab, mopts);
    if (!same_triples(scratch, service.snapshot()->store)) {
      result.fail("final snapshot differs from a from-scratch closure (" +
                  std::to_string(service.snapshot()->store.size()) + " vs " +
                  std::to_string(scratch.size()) + " triples)");
    }
  }

  const Latency open_lat = latencies(open);
  add_read_metrics(open_lat, open_cpu, open_stolen, qps, setup, result);

  // Updates that started before the traced phase.
  std::vector<double> update_latency, update_net, copy, overdelete_s,
      rederive_s, invalidated, overdeleted, rederived;
  for (std::size_t i = 0; i < writer.intervals.size() &&
                          writer.intervals[i].first < untraced_end;
       ++i) {
    const parowl::serve::UpdateOutcome& o = writer.outcomes[i];
    update_latency.push_back(writer.latency[i]);
    update_net.push_back(net_of_steal(writer.latency[i], writer.stolen[i]));
    copy.push_back(o.copy_seconds);
    overdelete_s.push_back(o.maintain.overdelete_seconds);
    rederive_s.push_back(o.maintain.rederive_seconds);
    invalidated.push_back(static_cast<double>(o.invalidated));
    overdeleted.push_back(static_cast<double>(o.maintain.overdeleted));
    rederived.push_back(static_cast<double>(o.maintain.rederived));
  }
  // The bounded wall figure here is the update, not the read: the read p50
  // depends on how many reads meet an update in flight, which grows with
  // the stolen share faster than the share itself (see README.md).
  result.add("op_wall_s", median(update_net), "s");
  result.add("update_p50_s", quantile(update_latency, 0.5), "s");
  result.add("update_p90_s", quantile(update_latency, 0.9), "s");
  result.add("update_samples",
             static_cast<double>(update_latency.size()), "count");
  result.add("serve.update_copy_s", median(copy), "s");
  result.add("serve.update_invalidated", median(invalidated), "count");
  result.add("reason.maintain.overdelete_s", median(overdelete_s), "s");
  result.add("reason.maintain.rederive_s", median(rederive_s), "s");
  result.add("reason.maintain.overdeleted", median(overdeleted), "count");
  result.add("reason.maintain.rederived", median(rederived), "count");

  result.add("serve.cache_hit_rate", stats.cache.hit_rate(), "ratio");
  result.add("serve.cache_evictions",
             static_cast<double>(stats.cache.evictions), "count");
  result.add("serve.cache_invalidations",
             static_cast<double>(stats.cache.invalidations), "count");
  result.add("serve.cache_rejected", static_cast<double>(stats.cache.rejected),
             "count");
  std::vector<double> miss_busy, miss_idle;
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (open[i].cache_hit) {
      continue;
    }
    (overlaps_update(open[i], writer.intervals) ? miss_busy : miss_idle)
        .push_back(open_lat.latency[i]);
  }
  result.add("serve.miss_p50_during_update_s", median(miss_busy), "s");
  result.add("serve.miss_p50_idle_s", median(miss_idle), "s");

  if (config.trace) {
    add_trace_metrics(traced, open_lat, result);
    const parowl::serve::SnapshotPtr snap = service.snapshot();
    add_query_eval_metrics(snap->store, *rw.dict, kScale, result);
  }
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

// ---------------------------------------------------------------------------
// lubm-serve-dist

namespace {

struct DistSetup {
  std::unique_ptr<parowl::rdf::Dictionary> dict;
  std::unique_ptr<parowl::rdf::TripleStore> closure;
  std::unique_ptr<parowl::parallel::MemoryTransport> transport;
  parowl::partition::PartitionMetrics plan_metrics;
  double plan_seconds = 0.0;
  std::unique_ptr<parowl::dist::DistService> service;  // destroyed first
};

}  // namespace

Result run_lubm_serve_dist(const RunConfig& config) {
  Result result;
  const KbFile kb = write_closure_snapshot(config);

  Setups setup;
  DistSetup ds;
  const CpuTicks setup_k0 = cpu_ticks();
  for (int i = 0; i < kDistSetupReps; ++i) {
    ds.service.reset();  // before the dictionary and transport it uses
    ds = DistSetup{};
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpu_seconds();
    ds.dict = std::make_unique<parowl::rdf::Dictionary>();
    ds.closure = std::make_unique<parowl::rdf::TripleStore>();
    load_kb(kb.path, *ds.dict, *ds.closure);
    const Clock::time_point t1 = Clock::now();
    parowl::partition::OwnerTable owners;
    {
      parowl::obs::Span span("partition.call.partition_data");
      const parowl::ontology::Vocabulary vocab(*ds.dict);
      parowl::partition::PartitionerOptions popts;
      popts.kind = parowl::partition::PartitionerKind::kHdrf;
      const parowl::partition::StreamingOwnerPolicy policy(popts);
      parowl::partition::DataPartitioning dp =
          parowl::partition::partition_data(*ds.closure, *ds.dict, vocab,
                                            policy, kShards);
      owners = std::move(dp.owners);
      ds.plan_metrics = dp.plan_metrics;
      ds.plan_seconds = dp.partition_seconds;
    }
    const parowl::dist::NodeLayout layout{kShards, 1};
    ds.transport =
        std::make_unique<parowl::parallel::MemoryTransport>(layout.num_nodes());
    parowl::dist::DistOptions options;
    options.threads = kExecutors;
    options.queue_capacity = kQueueCapacity;
    options.cache_enabled = false;
    options.replicas = 1;
    {
      parowl::obs::Span span("dist.call.construct");
      ds.service = std::make_unique<parowl::dist::DistService>(
          *ds.dict, *ds.closure, std::move(owners), kShards, *ds.transport,
          options);
    }
    const Clock::time_point t2 = Clock::now();
    setup.cpu.push_back(cpu_seconds() - c0);
    setup.load.push_back(seconds_between(t0, t1));
    setup.wall.push_back(seconds_between(t0, t2));
  }
  setup.stolen = stolen_share(setup_k0, cpu_ticks());
  parowl::dist::DistService& service = *ds.service;

  // The catalog build inside construction, timed on its own.
  double catalog_s = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    const parowl::dist::ShardCatalog catalog(
        *ds.closure, service.catalog().owners(), kShards);
    catalog_s = seconds_between(t0, Clock::now());
  }

  const Stream stream = make_stream(config, kDistRate, *ds.closure, *ds.dict);
  const double open_c0 = cpu_seconds();
  const CpuTicks open_k0 = cpu_ticks();
  const std::vector<Record> open =
      open_loop(service, stream.open, kDistRate, Clock::now(), 0, 0,
                "dist.call.submit");
  const double open_cpu = cpu_seconds() - open_c0;
  const double open_stolen = stolen_share(open_k0, cpu_ticks());
  check_records(open, stream.open, stream, result);
  const parowl::dist::DistStats open_stats = service.stats();
  const double qps = closed_loop(service, stream,
                                 config.seconds * (1.0 - kOpenShare), 0, 0,
                                 result);

  std::vector<Record> traced;
  if (config.trace) {
    start_tracing();
    {
      parowl::obs::Span timed("bench.timed");
      traced = open_loop(service, stream.traced, kDistRate, Clock::now(), 0,
                         0, "dist.call.submit");
    }
    stop_tracing(config, result);
    check_records(traced, stream.traced, stream, result);
  }
  service.drain();

  const Latency open_lat = latencies(open);
  add_read_metrics(open_lat, open_cpu, open_stolen, qps, setup, result);
  result.add("op_wall_s",
             net_of_steal(quantile(open_lat.latency, 0.5), open_stolen), "s");

  std::uint64_t rows = 0;
  for (const QueryRequest& q : stream.open) {
    rows += stream.reference.at(q.text).rows;
  }
  const auto completed = static_cast<double>(open_stats.completed);
  const auto gathered = static_cast<double>(open_stats.gathered_triples);
  result.add("dist.catalog_build_s", catalog_s, "s");
  result.add("dist.shard_bytes_shipped",
             static_cast<double>(open_stats.shard_bytes_shipped), "bytes");
  result.add("dist.scans_per_query",
             static_cast<double>(open_stats.scans_sent) / completed, "count");
  result.add("dist.gathered_triples_per_query", gathered / completed,
             "count");
  result.add("dist.rows_per_gathered_triple",
             gathered > 0 ? static_cast<double>(rows) / gathered : 0.0,
             "ratio");
  result.add("dist.retransmissions",
             static_cast<double>(open_stats.retransmissions), "count");
  result.add("dist.failovers", static_cast<double>(open_stats.failovers),
             "count");
  const std::vector<double> weights(
      ds.plan_metrics.partition_weights.begin(),
      ds.plan_metrics.partition_weights.end());
  result.add("partition.plan_s", ds.plan_seconds, "s");
  result.add("partition.replication_factor",
             ds.plan_metrics.replication_factor, "ratio");
  result.add("partition.edge_cut",
             static_cast<double>(ds.plan_metrics.edge_cut), "count");
  result.add("partition.balance", max_over_mean(weights), "ratio");

  if (config.trace) {
    add_trace_metrics(traced, open_lat, result);
    add_query_eval_metrics(*ds.closure, *ds.dict, kScale, result);
  }
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
