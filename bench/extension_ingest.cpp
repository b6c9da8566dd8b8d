// Ingest + codec micro-benchmarks: the data-plane fast path.
//
// BM_IngestNtriples/T and BM_IngestTurtle/T sweep the parallel ingest
// pipeline's thread count over a LUBM-derived document (bit-identical
// output at every T — ingest_equivalence_test proves it; this measures
// it).  BM_IngestFile/T times the whole file path — open, map, parse,
// merge — on LUBM(20) N-Triples written to a temp file once.
// BM_CodecEncode/Decode measure raw triple-block throughput, and
// the bytes_per_triple counter tracks the wire-format footprint that the
// snapshot / file-transport / checkpoint byte counts inherit.
//
// Note: on a single-core host the thread sweep cannot show a speedup —
// the parse stage serializes — so compare T>1 rows against T=1 only on
// multi-core machines (see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "parowl/gen/lubm.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/codec.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/snapshot.hpp"

namespace {

using namespace parowl;

const std::string& lubm_text() {
  static const std::string text = [] {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    gen::LubmOptions opts;
    opts.universities = 2;
    gen::generate_lubm(opts, dict, store);
    std::ostringstream out;
    rdf::write_ntriples(out, store, dict);
    return out.str();
  }();
  return text;
}

/// The same KB as Turtle-shaped input: prefixed names + directives, so the
/// Turtle scanner/env machinery is actually exercised.
const std::string& turtle_text() {
  static const std::string text = [] {
    std::string out = "@prefix ub: <http://swat.cse.lehigh.edu/onto/"
                      "univ-bench.owl#> .\n";
    rdf::Dictionary dict;
    rdf::TripleStore store;
    gen::LubmOptions opts;
    opts.universities = 1;
    gen::generate_lubm(opts, dict, store);
    std::ostringstream nt;
    rdf::write_ntriples(nt, store, dict);
    out += nt.str();  // N-Triples is a Turtle subset
    return out;
  }();
  return text;
}

void BM_IngestNtriples(benchmark::State& state) {
  const std::string& text = lubm_text();
  rdf::IngestOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    benchmark::DoNotOptimize(rdf::ingest_ntriples(text, dict, store, opts));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IngestNtriples)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IngestTurtle(benchmark::State& state) {
  const std::string& text = turtle_text();
  rdf::IngestOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    benchmark::DoNotOptimize(rdf::ingest_turtle(text, dict, store, opts));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IngestTurtle)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

const std::string& lubm20_text() {
  static const std::string text = [] {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    gen::LubmOptions opts;
    opts.universities = 20;
    gen::generate_lubm(opts, dict, store);
    std::ostringstream out;
    rdf::write_ntriples(out, store, dict);
    return out.str();
  }();
  return text;
}

/// ingest_file on LUBM(20) N-Triples, written to a temp file (pid in the
/// name) before the timed loop and removed after it.
void BM_IngestFile(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("parowl_bench_" + std::to_string(::getpid()) + "_lubm20.nt"))
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << lubm20_text();
  }
  rdf::IngestOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    rdf::IngestStats stats;
    std::string error;
    if (!rdf::ingest_file(path, dict, store, stats, opts, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(stats);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(lubm20_text().size()));
}
BENCHMARK(BM_IngestFile)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Serial-parser baseline the ingest rows compare against.
void BM_SerialParseNtriples(benchmark::State& state) {
  const std::string& text = lubm_text();
  for (auto _ : state) {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    std::istringstream in(text);
    benchmark::DoNotOptimize(rdf::parse_ntriples(in, dict, store));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SerialParseNtriples);

const std::vector<rdf::Triple>& lubm_triples() {
  static const std::vector<rdf::Triple> triples = [] {
    rdf::Dictionary dict;
    rdf::TripleStore store;
    gen::LubmOptions opts;
    opts.universities = 2;
    gen::generate_lubm(opts, dict, store);
    return store.triples();
  }();
  return triples;
}

void BM_CodecEncode(benchmark::State& state) {
  const std::vector<rdf::Triple>& ts = lubm_triples();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    bytes = rdf::codec::write_blocks(out, ts);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ts.size()));
  state.counters["bytes_per_triple"] =
      static_cast<double>(bytes) / static_cast<double>(ts.size());
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const std::vector<rdf::Triple>& ts = lubm_triples();
  std::ostringstream encoded;
  rdf::codec::write_blocks(encoded, ts);
  const std::string bytes = encoded.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    std::size_t n = 0;
    const bool ok = rdf::codec::read_blocks(
        in, ts.size(), [&n](const rdf::Triple&) { ++n; });
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ts.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CodecDecode);

void BM_SnapshotSave(benchmark::State& state) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    bytes = rdf::save_snapshot(out, dict, store).bytes;
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotLoad(benchmark::State& state) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  gen::LubmOptions opts;
  opts.universities = 1;
  gen::generate_lubm(opts, dict, store);
  std::ostringstream out;
  rdf::save_snapshot(out, dict, store);
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    rdf::Dictionary d2;
    rdf::TripleStore s2;
    benchmark::DoNotOptimize(rdf::load_snapshot(in, d2, s2));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotLoad);

}  // namespace
