#pragma once

// The serving workloads' query stream: the repository's LUBM templates
// (gen::lubm_queries) with their university / department / professor
// constants redrawn per request from Zipf distributions, so a few entities
// are hot while the number of distinct query texts far exceeds the result
// cache.  Q9 is left out (see perfbench/README.md).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace perfbench {

struct QueryRequest {
  int template_no = 0;  // LUBM query number (1..14)
  std::string text;     // PREFIX line, newline, SELECT body
};

/// Zipf(s = 1) over ranks 0..n-1: rank r has weight 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(std::uint32_t n);
  std::uint32_t draw(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

class QueryMix {
 public:
  /// `universities` is the generated LUBM scale; constants never name an
  /// entity the generator did not emit.
  QueryMix(std::uint32_t universities, std::uint64_t seed);

  /// Next request of the stream.
  QueryRequest next();

  /// Template numbers in the mix, ascending.
  [[nodiscard]] std::vector<int> templates() const;

  /// Template `q` with the constants of university u, department d and
  /// faculty member f.
  [[nodiscard]] std::string instantiate(int q, std::uint32_t u,
                                        std::uint32_t d,
                                        std::uint32_t f) const;

  /// True for the templates without constants (full scans of a class or a
  /// join), which the stream sends at a small fixed share.
  [[nodiscard]] static bool is_scan(int q);

 private:
  struct Template {
    int number = 0;
    std::string text;  // constants replaced by {U}, {D}, {P}
  };

  std::vector<Template> templates_;
  std::vector<int> scans_;
  std::vector<int> points_;
  std::vector<int> round_;  // point templates left in the current round
  std::uint64_t count_ = 0;
  std::mt19937_64 rng_;
  Zipf universities_;
  Zipf departments_;
  Zipf faculty_;
};

struct Result;

/// Time query::evaluate directly on `store` for every template of the mix
/// (a few instantiations each) and add query.<qN>.eval_s (median) plus
/// query.rows_per_answer to `result`.  `dict` must be the store's
/// dictionary; parsing interns nothing new for constants the generator
/// emitted.
void add_query_eval_metrics(const parowl::rdf::TripleStore& store,
                            parowl::rdf::Dictionary& dict,
                            std::uint32_t universities, Result& result);

}  // namespace perfbench
