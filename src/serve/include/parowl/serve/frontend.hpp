#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "parowl/obs/metrics.hpp"
#include "parowl/obs/options.hpp"
#include "parowl/obs/trace.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/serve/executor.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/stats.hpp"

namespace parowl::serve {

/// One answered request.
struct Response {
  RequestStatus status = RequestStatus::kOk;
  query::ResultSet results;
  bool cache_hit = false;
  std::uint64_t snapshot_version = 0;
  double latency_seconds = 0.0;  // admission -> completion
  std::string error;  // diagnostic when kParseError / kUnsupported
};

/// Request outcomes tallied by status, plus their latency.  Safe to record
/// from any thread; the front end and the workload driver both count
/// through it.
class RequestCounters {
 public:
  void record(const Response& response);

  /// The tallies so far; `cache` is left zero (the ResultCache keeps it).
  [[nodiscard]] RequestStats stats() const;
  /// kOk responses answered from the cache.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> unsupported_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  LatencyHistogram latency_;
};

/// The knobs both serving tiers take (ServiceOptions, dist::DistOptions).
struct FrontendOptions {
  std::size_t threads = 2;
  std::size_t queue_capacity = 64;
  bool cache_enabled = true;

  /// Per-request deadline applied at admission; <= 0 means none.  Requests
  /// still queued when it expires are answered kDeadlineExceeded.
  double default_deadline_seconds = 0.0;

  /// Namespace prefixes pre-registered with the SPARQL parser.
  std::vector<std::pair<std::string, std::string>> prefixes;

  /// Observability sinks/sampling (docs/architecture.md "Observability").
  /// `sample_every` strides the per-request spans.
  obs::ObsOptions obs;
};

/// The request front end both serving tiers share: admission control
/// (bounded executor, shed-at-admission, deadlines), the result cache, the
/// SPARQL parser with the dictionary lock that guards it, and the status
/// counters and latency histogram.
///
/// A request runs  normalize -> pin -> cache lookup -> (miss) parse under
/// the exclusive dictionary lock -> Pin::answer -> cache fill.  A tier
/// supplies only what differs: the state a request is pinned to (its
/// version, and what ties a cached answer to it) and how a miss is answered
/// at that state.
///
/// The dictionary is the one shared mutable structure: query parsing interns
/// terms and so takes the exclusive lock; everything that only reads lexical
/// forms takes the shared lock.
class Frontend {
 public:
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Asynchronous path: admit `query_text` to the executor.  `done` is
  /// invoked exactly once, inline when the request is shed (kOverloaded) at
  /// admission.  Returns false iff shed.
  bool submit(std::string query_text,
              std::function<void(const Response&)> done);

  /// Synchronous path: answer on the caller's thread (no queue, no
  /// admission control).  Shares the cache and counters.
  Response execute(const std::string& query_text);

  /// Block until the request queue is drained.
  void drain();

  /// Render a result set to aligned text (takes the shared dict lock).
  [[nodiscard]] std::string render(const query::ResultSet& results) const;

  /// Run `fn(dict)` holding the exclusive dictionary lock (interning).
  template <typename Fn>
  auto with_dict_exclusive(Fn&& fn) {
    const std::unique_lock lock(dict_mutex_);
    return fn(dict_);
  }

  /// Run `fn(const dict)` holding the shared dictionary lock (rendering).
  template <typename Fn>
  auto with_dict_shared(Fn&& fn) const {
    const std::shared_lock lock(dict_mutex_);
    return fn(static_cast<const rdf::Dictionary&>(dict_));
  }

  [[nodiscard]] Executor& executor() { return *executor_; }

 protected:
  /// One request's hold on the tier's state, taken before the cache lookup
  /// so that a hit and a miss answer for the same state.
  class Pin {
   public:
    virtual ~Pin() = default;

    /// Answer a cache miss for `query` at the pinned state: fill
    /// `response.results`, or set a non-kOk status and its error.  Returns
    /// whether the rows may be cached under the pin's key.  `request_span`
    /// is the sampled request span, or null.
    virtual bool answer(const query::SelectQuery& query, Response& response,
                        obs::Span* request_span) = 0;

    /// Stamped on the response; a cache hit stamps the newer of this and
    /// the version its rows came from.
    std::uint64_t version = 0;
    /// Appended to the normalized text to form the cache key.
    std::string key_suffix;
  };

  /// `tier` names the spans and the request counter: "<tier>.request",
  /// "<tier>.parse" and "<tier>.requests".
  Frontend(std::string_view tier, rdf::Dictionary& dict,
           const FrontendOptions& options);
  virtual ~Frontend();

  /// Pin the state the next request is answered at.
  [[nodiscard]] virtual std::unique_ptr<Pin> pin() = 0;

  /// The version stamped on a request shed or expired before it was pinned.
  [[nodiscard]] virtual std::uint64_t version() const = 0;

  /// Complete pending requests and join the workers.  A tier's destructor
  /// calls this first: the workers call back into pin().
  void stop();

  /// The shared counters, cache counters and latency histogram.
  [[nodiscard]] RequestStats request_stats() const;

  [[nodiscard]] ResultCache& cache() { return cache_; }

 private:
  Response answer(const std::string& query_text);

  const double deadline_seconds_;
  const std::string request_span_;
  const std::string parse_span_;
  obs::Counter& requests_;
  rdf::Dictionary& dict_;
  mutable std::shared_mutex dict_mutex_;
  ResultCache cache_;
  query::SparqlParser parser_;  // guarded by dict_mutex_ (exclusive)
  std::unique_ptr<Executor> executor_;

  RequestCounters counters_;
  std::atomic<std::uint64_t> request_seq_{0};  // obs sampling stride counter
};

}  // namespace parowl::serve
