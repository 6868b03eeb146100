#pragma once
/// \file leakage.hpp
/// \brief Temperature-dependent leakage fixed point (paper §IV).
///
/// The paper: "We adjust the leakage power of each core based on its
/// initial temperature obtained from HotSpot, and re-run HotSpot to update
/// the thermal profile until the temperature converges."  This module
/// computes that converged state for an arbitrary tiled layout, so both
/// the Evaluator (4/16-chiplet organizations, 2D baseline) and the Fig. 5
/// sweep (64/256-chiplet layouts) share one implementation.
///
/// Folding: inside its [0, 150] °C clamp the leakage model is affine in
/// tile temperature (core_leakage_affine), and the power map rasterizes
/// each tile's power onto exactly the cells and weights its temperature
/// averages.  The fixed point is therefore the single SPD system
/// (K − Wᵀ D W) T = q₀ — D the per-tile leakage slopes, q₀ the power at
/// the intercepts — which run_leakage_fixed_point solves directly
/// (ThermalModel::solve with a TileFeedback): one solve per evaluation,
/// exact rather than within a tolerance.  A tile that lands outside the
/// clamp range is frozen at its clamped leakage and dropped from D, and
/// the system re-solved until that set is stable.
///
/// The paper's loop survives as run_leakage_iterated: the tests' oracle,
/// the FaultPlan::leak_force_nonconverge path, and the fallback when the
/// folded solve cannot finish (its PCG ladder fails — e.g. a breakdown
/// pᵀAp ≤ 0 from thermal runaway — or the clamp set keeps changing).
/// With the linear leakage model the iteration is a linear fixed point
/// with spectral radius ≈ λ · leak_share · R_thermal · P, far below 1 for
/// every configuration in this design space.

#include <vector>

#include "floorplan/layout.hpp"
#include "perf/benchmark.hpp"
#include "power/power_model.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {

/// Converged result of the power ↔ temperature loop.
struct LeakageResult {
  double peak_c = 0.0;         ///< converged peak silicon temperature (°C)
  double total_power_w = 0.0;  ///< converged total power (W)
  int iterations = 0;          ///< thermal solves used
  bool converged = false;
  /// The model's field solves K T = q(T) itself (the folded path).  The
  /// iterated loop's last solve used the previous iterate's power, so a
  /// consumer needing a consistent (q, T) pair must re-solve.
  bool exact = false;
};

/// The leakage fixed point for `bench` at DVFS level `lvl` with the given
/// active tiles on `model` (which must be built for `layout`), solved by
/// folding (see the file comment).  `iterations` counts the folded solves
/// (1 unless the clamp engages) and `converged` is true.  `tol_c` and
/// `max_iters` govern the iterated oracle; `max_iters` also caps the
/// clamp re-solves.  A fallback to the oracle is counted by the obs
/// counter `leakage.fold_fallbacks`, and its solves are added to
/// `iterations`.  `fault_nonconverge` (FaultPlan::leak_force_nonconverge)
/// runs the oracle with its convergence test disabled.
LeakageResult run_leakage_fixed_point(ThermalModel& model,
                                      const ChipletLayout& layout,
                                      const BenchmarkProfile& bench,
                                      const DvfsLevel& lvl,
                                      const std::vector<int>& active,
                                      const PowerModelParams& params,
                                      double tol_c = 0.05,
                                      int max_iters = 12,
                                      bool fault_nonconverge = false);

/// The paper's loop: solve, re-estimate every tile's leakage from its
/// temperature, re-solve.  `tol_c` bounds the max-norm of the
/// tile-temperature change between consecutive iterations — the whole
/// field must settle, not just the peak (a clamped peak goes quiet while
/// secondary hotspots still drift).  Running out of iterations is not an
/// error: the last state is returned with `converged == false` and
/// `total_power_w` recomputed from the final temperatures (self-consistent
/// with `peak_c`), and callers (Evaluator) surface it through
/// ThermalEval::leak_converged and RunHealth instead of hiding it.
/// `fault_nonconverge` skips the convergence test so the non-convergence
/// path is testable on demand.
LeakageResult run_leakage_iterated(ThermalModel& model,
                                   const ChipletLayout& layout,
                                   const BenchmarkProfile& bench,
                                   const DvfsLevel& lvl,
                                   const std::vector<int>& active,
                                   const PowerModelParams& params,
                                   double tol_c = 0.05, int max_iters = 12,
                                   bool fault_nonconverge = false);

}  // namespace tacos
