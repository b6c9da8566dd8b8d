// Ablations for the reasoning-engine design choices called out in
// DESIGN.md:
//   1. semi-naive vs naive forward evaluation,
//   2. single-join rule compilation (§II) vs running the generic pD* rules.

#include "bench_common.hpp"
#include "parowl/util/timer.hpp"

using namespace parowl;
using namespace parowl::bench;

int main() {
  const unsigned s = scale_factor();
  print_header("Ablation: reasoning engine design choices (LUBM)");

  util::Table table({"configuration", "dataset", "reason(s)", "inferred",
                     "iterations"});

  for (const unsigned n : {4u, 8u}) {
    // 1. Semi-naive vs naive.
    for (const bool semi : {true, false}) {
      Universe u;
      make_lubm(u, n * s);
      reason::MaterializeOptions opts;
      opts.semi_naive = semi;
      const auto r = reason::materialize(u.store, u.dict, *u.vocab, opts);
      table.add_row({semi ? "forward semi-naive" : "forward naive", u.name,
                     util::fmt_double(r.reason_seconds, 3),
                     std::to_string(r.inferred),
                     std::to_string(r.iterations)});
    }

    // 2. Compiled single-join rules vs generic pD*.
    for (const bool compile : {true, false}) {
      Universe u;
      make_lubm(u, n * s);
      reason::MaterializeOptions opts;
      opts.compile = compile;
      const auto r = reason::materialize(u.store, u.dict, *u.vocab, opts);
      table.add_row({compile ? "compiled (single-join)" : "generic pD*",
                     u.name, util::fmt_double(r.reason_seconds, 3),
                     std::to_string(r.inferred),
                     std::to_string(r.iterations)});
    }
  }

  table.print(std::cout);
  std::cout << "\nExpected: semi-naive and compilation each speed the "
               "forward engine.\n";
  return 0;
}
