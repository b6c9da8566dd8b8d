// perfbench: runs one workload of the end-to-end benchmark and
// prints its measurements as one JSON line (the last line of stdout).
//
//   perfbench --workload lubm-build --seed 1 --seconds 10 --trace 0
//             --work-dir DIR [--trace-out FILE]
//
// perfbench/run.py builds this binary, runs it, turns a traced run's span
// file into the per-layer table, and prints the benchmark's result line.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

void print_json_string(const std::string& s) {
  std::cout << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::cout << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::cout << ' ';
    } else {
      std::cout << c;
    }
  }
  std::cout << '"';
}

void print_result(const Result& r) {
  std::cout << "{\"valid\": " << (r.valid ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ");
    print_json_string(r.problems[i]);
  }
  std::cout << "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    std::cout << (i == 0 ? "" : ", ");
    print_json_string(m.name);
    std::cout << ": {\"value\": " << value << ", \"unit\": ";
    print_json_string(m.unit);
    std::cout << '}';
  }
  std::cout << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload "
               "lubm-build|uobm-cluster|lubm-serve-rw|lubm-serve-dist "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (workload.empty() || config.work_dir.empty() || config.seconds <= 0 ||
      (config.trace && config.trace_out.empty())) {
    return usage();
  }
  std::filesystem::create_directories(config.work_dir);

  try {
    Result result;
    if (workload == "lubm-build") {
      result = perfbench::run_lubm_build(config);
    } else if (workload == "uobm-cluster") {
      result = perfbench::run_uobm_cluster(config);
    } else if (workload == "lubm-serve-rw") {
      result = perfbench::run_lubm_serve_rw(config);
    } else if (workload == "lubm-serve-dist") {
      result = perfbench::run_lubm_serve_dist(config);
    } else {
      return usage();
    }
    print_result(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
