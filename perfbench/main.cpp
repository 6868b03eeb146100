/// \file main.cpp
/// \brief Benchmark harness entry point.
///
///   perfbench --workload <paper-sweep|eval-stream|power-sweep> --seed <n>
///             --seconds <s> --trace <0|1> [--reference FILE] [--record]
///
/// Prints one JSON object as the last line of stdout:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
/// traced run (--trace 1).  Correctness-gate failures go to stderr and
/// make the exit code 1.  --record prints reference.txt lines instead.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference FILE] [--record]\n";
  return 2;
}

void print_json(const Report& rep) {
  std::cout << "{\"correct\": " << (rep.correct() ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (flag == "--reference") {
        args.reference = value();
      } else if (flag == "--record") {
        args.record = true;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  // One client thread: the whole library runs on a one-lane pool.
  tacos::ThreadPool::set_global_threads(1);
  try {
    const Report rep = run_workload(args);
    for (const std::string& e : rep.errors)
      std::cerr << "perfbench: correctness: " << e << "\n";
    if (args.record) return rep.correct() ? 0 : 1;
    print_json(rep);
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
