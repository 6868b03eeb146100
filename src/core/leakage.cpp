#include "core/leakage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tacos {

namespace {

obs::SpanSite& leak_site() {
  static obs::SpanSite site("eval.leakage", "eval");
  return site;
}
obs::SpanSite& iter_site() {
  static obs::SpanSite site("leakage.iter", "eval");
  return site;
}
obs::SpanSite& pmap_site() {
  static obs::SpanSite site("power.build_map", "eval");
  return site;
}

void record(const LeakageResult& r, obs::TraceSpan& span) {
  span.arg("iters", static_cast<std::int64_t>(r.iterations));
  if (!r.converged) span.arg("converged", "false");
  if (!obs::metrics_enabled()) return;
  static obs::Histogram iters = obs::MetricsRegistry::global().histogram(
      "leakage.iterations", obs::pow2_edges(1, 64));
  iters.observe(static_cast<double>(r.iterations));
}

PowerMap power_map(const ChipletLayout& layout, const BenchmarkProfile& bench,
                   const DvfsLevel& lvl, const std::vector<int>& active,
                   const std::optional<std::vector<double>>& temps,
                   const PowerModelParams& params) {
  obs::TraceSpan pmap_span(pmap_site());
  return build_power_map(layout, bench, lvl, active, temps, params);
}

/// The iterated loop, without the outer span and metrics.
LeakageResult iterate(ThermalModel& model, const ChipletLayout& layout,
                      const BenchmarkProfile& bench, const DvfsLevel& lvl,
                      const std::vector<int>& active,
                      const PowerModelParams& params, double tol_c,
                      int max_iters, bool fault_nonconverge) {
  LeakageResult out;
  std::optional<std::vector<double>> temps;  // first pass at T_ref
  for (int it = 0; it < max_iters; ++it) {
    obs::TraceSpan iter_span(iter_site());
    iter_span.arg("iter", static_cast<std::int64_t>(it));
    const PowerMap pmap = power_map(layout, bench, lvl, active, temps, params);
    const ThermalResult res = model.solve(pmap);
    out.peak_c = res.peak_c;
    out.total_power_w = pmap.total();
    out.iterations = it + 1;
    // The leakage clamp (power_model.cpp) bounds the fixed point, so any
    // finite temperature is a valid answer — grossly infeasible designs
    // simply report a very high peak.  Non-finite values indicate a
    // genuine modeling bug.
    TACOS_CHECK(std::isfinite(res.peak_c),
                "leakage fixed point produced a non-finite temperature");
    // Convergence is judged on the *whole* tile-temperature field, not
    // just the peak: when the leakage clamp saturates the hottest tiles
    // their temperatures settle immediately while cooler secondary
    // hotspots are still drifting, and a peak-only test declares victory
    // with the off-peak field (and hence total power) still moving.
    std::vector<double> new_temps = model.tile_temperatures();
    double delta_c = std::numeric_limits<double>::infinity();
    if (temps) {
      delta_c = 0.0;
      for (std::size_t i = 0; i < new_temps.size(); ++i)
        delta_c = std::max(delta_c, std::abs(new_temps[i] - (*temps)[i]));
    }
    temps = std::move(new_temps);
    if (!fault_nonconverge && delta_c < tol_c) {
      out.converged = true;
      return out;
    }
  }
  // Ran out of iterations: report the last state, flagged unconverged.
  // The power map the loop last solved with was built from the *previous*
  // iterate's temperatures; rebuild it from the final field so peak_c and
  // total_power_w describe the same state.
  out.converged = false;
  out.total_power_w =
      power_map(layout, bench, lvl, active, temps, params).total();
  return out;
}

/// The folded solve with its clamp active set; std::nullopt when it
/// cannot finish and the oracle must answer.  `solves` receives the
/// folded solves spent either way.
std::optional<LeakageResult> fold(ThermalModel& model,
                                  const ChipletLayout& layout,
                                  const BenchmarkProfile& bench,
                                  const DvfsLevel& lvl,
                                  const std::vector<int>& active,
                                  const PowerModelParams& params,
                                  int max_iters, int* solves) {
  const LeakageAffine aff = core_leakage_affine(bench, lvl, params);
  // The temperature each tile's power-map leakage is evaluated at: the
  // low end of the affine range for tiles whose slope is folded into the
  // operator (their intercept, when that end is 0 °C), the clamp value
  // for frozen tiles.
  std::vector<double> anchor(
      static_cast<std::size_t>(layout.spec().core_count()), aff.t_lo_c);
  std::vector<char> frozen(anchor.size(), 0);
  TileFeedback fb;
  fb.slope_w_per_k = aff.b;
  fb.anchor_c = aff.t_lo_c;
  for (int it = 0; it < max_iters; ++it) {
    obs::TraceSpan iter_span(iter_site());
    iter_span.arg("iter", static_cast<std::int64_t>(it));
    fb.tiles.clear();
    for (int id : active)
      if (!frozen[static_cast<std::size_t>(id)]) fb.tiles.push_back(id);
    const PowerMap q0 = power_map(layout, bench, lvl, active, anchor, params);
    const ThermalResult res = model.solve(q0, &fb);
    *solves = it + 1;
    if (!res.solve_info.converged) return std::nullopt;  // ladder hand-over
    TACOS_CHECK(std::isfinite(res.peak_c),
                "leakage fixed point produced a non-finite temperature");
    const std::vector<double> temps = model.tile_temperatures();
    bool stable = true;
    for (int id : active) {
      const auto i = static_cast<std::size_t>(id);
      const double t = std::clamp(temps[i], aff.t_lo_c, aff.t_hi_c);
      const char out_of_range = t != temps[i];
      const double a = out_of_range ? t : aff.t_lo_c;
      if (out_of_range != frozen[i] || a != anchor[i]) stable = false;
      frozen[i] = out_of_range;
      anchor[i] = a;
    }
    if (stable) {
      LeakageResult out;
      out.peak_c = res.peak_c;
      out.total_power_w =
          power_map(layout, bench, lvl, active, temps, params).total();
      out.iterations = it + 1;
      out.converged = true;
      out.exact = true;
      return out;
    }
  }
  return std::nullopt;  // the clamp set never settled within the cap
}

}  // namespace

LeakageResult run_leakage_fixed_point(ThermalModel& model,
                                      const ChipletLayout& layout,
                                      const BenchmarkProfile& bench,
                                      const DvfsLevel& lvl,
                                      const std::vector<int>& active,
                                      const PowerModelParams& params,
                                      double tol_c, int max_iters,
                                      bool fault_nonconverge) {
  TACOS_CHECK(max_iters >= 1, "need at least one iteration");
  obs::TraceSpan span(leak_site());
  LeakageResult out;
  int solves = 0;
  if (!fault_nonconverge) {
    if (auto folded = fold(model, layout, bench, lvl, active, params,
                           max_iters, &solves)) {
      record(*folded, span);
      return *folded;
    }
    if (obs::metrics_enabled()) {
      static obs::Counter fallbacks =
          obs::MetricsRegistry::global().counter("leakage.fold_fallbacks");
      fallbacks.add();
    }
    span.arg("fallback", "true");
  }
  out = iterate(model, layout, bench, lvl, active, params, tol_c, max_iters,
                fault_nonconverge);
  out.iterations += solves;
  record(out, span);
  return out;
}

LeakageResult run_leakage_iterated(ThermalModel& model,
                                   const ChipletLayout& layout,
                                   const BenchmarkProfile& bench,
                                   const DvfsLevel& lvl,
                                   const std::vector<int>& active,
                                   const PowerModelParams& params,
                                   double tol_c, int max_iters,
                                   bool fault_nonconverge) {
  TACOS_CHECK(max_iters >= 1, "need at least one iteration");
  obs::TraceSpan span(leak_site());
  const LeakageResult out = iterate(model, layout, bench, lvl, active, params,
                                    tol_c, max_iters, fault_nonconverge);
  record(out, span);
  return out;
}

}  // namespace tacos
