#pragma once
/// \file bench.hpp
/// \brief Shared types of the benchmark harness: command-line arguments,
///        reported metrics, and the fixed-work "unit" a traced run repeats.
///
/// The harness calls only the public tacos library API.  Every workload
/// runs single-threaded (global ThreadPool of one lane) in its own process,
/// so the set-up time, the peak RSS and the caches belong to one workload.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool record = false;     ///< print reference lines instead of measuring
  std::string reference;   ///< reference file (see reference.txt)
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness-gate failures (stderr)

  bool correct() const { return failed == 0 && errors.empty(); }
  void fail(const std::string& why) { errors.push_back(why); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Everything one pass of a workload leaves behind: wall times measured by
/// the harness around public calls, the library's own counters, and
/// (traced passes only) the obs metrics snapshot.
struct UnitPass {
  std::vector<double> request_s;  ///< per-request wall times
  tacos::EvalStats stats;         ///< merged evaluator counters
  bool searched = false;          ///< the optimizer layer ran (paper-sweep)
  std::size_t combos_tried = 0;   ///< optimizer: combinations walked
  double task_s_max = 0.0;        ///< optimizer: slowest task
  double refine_gain_c = 0.0;     ///< refine: summed grid − refined peak
  tacos::obs::MetricsSnapshot snap;
};

/// Layouts and thermal configuration the per-layer probe builds models for.
struct ProbeSpec {
  tacos::ThermalConfig thermal;
  std::vector<tacos::Organization> orgs;
};

/// Per-layer metrics from four passes of the unit in ABBA order —
/// untraced, traced, traced, untraced — so a linear drift in machine speed
/// cancels out of the tracing overhead (layers.cpp).  Adds an error to
/// `report` when the traced passes' work counts differ.
void add_layer_metrics(const UnitPass& untraced_1, const UnitPass& traced_a,
                       const UnitPass& traced_b, const UnitPass& untraced_2,
                       const ProbeSpec& probe, Report& report);

/// Median and linear-interpolated quantile of a sample (copied, sorted).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process (MB).
double peak_rss_mb();

/// Monotonic seconds.
double now_s();

}  // namespace perfbench
