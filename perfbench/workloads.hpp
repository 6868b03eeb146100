#pragma once
/// \file workloads.hpp
/// \brief The three closed-loop workloads (one client thread each):
///
///   * paper-sweep — optimize_greedy_batch over the eight benchmarks at
///     α=1, β=0, 85 °C, grid 24, 1 mm step, fidelity auto, refine on;
///     one request is one whole sweep;
///   * eval-stream — one Evaluator::thermal_eval per request on a fresh
///     random organization at grid 48 (layout churn);
///   * power-sweep — eight layouts built once, then every
///     (layout × benchmark × f × p) power map in seeded order, without
///     replacement (layout reuse).
///
/// See README.md beside this file for why each exists.

#include "bench.hpp"

namespace perfbench {

/// Run `args.workload` (measure, or record references with --record).
/// Throws std::invalid_argument for an unknown workload.
Report run_workload(const Args& args);

}  // namespace perfbench
