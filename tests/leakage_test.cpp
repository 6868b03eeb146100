#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <ostream>

#include "core/leakage.hpp"
#include "core/organization.hpp"
#include "materials/stack.hpp"
#include "obs/metrics.hpp"

namespace tacos {
namespace {

std::vector<int> all_tiles() {
  std::vector<int> v(256);
  for (int i = 0; i < 256; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

ThermalConfig coarse(std::size_t n = 16) {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = n;
  return c;
}

/// Oracle settings: the iterated loop converged far below the folded
/// solve's own error.
constexpr double kOracleTolC = 1e-9;
constexpr int kOracleIters = 200;

// Iteration behaviour of the paper's loop: the oracle.
TEST(LeakageLoop, ConvergesForNominalWorkload) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalModel model(l, make_25d_stack(), coarse(24));
  const LeakageResult r = run_leakage_iterated(
      model, l, benchmark_by_name("cholesky"), kDvfsLevels[0], all_tiles(),
      PowerModelParams{});
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 1);   // leakage feedback requires >1 pass
  EXPECT_LT(r.iterations, 12);  // but converges quickly
  EXPECT_GT(r.peak_c, 45.0);
}

TEST(LeakageLoop, HotterThanTemperatureIndependentModel) {
  // With the fixed point, silicon above the 60 °C reference leaks more
  // than the first-pass estimate, so the converged peak must be higher
  // than the single-solve peak.
  const ChipletLayout l = make_uniform_layout(4, 2.0);
  const BenchmarkProfile& bench = benchmark_by_name("shock");
  ThermalModel model(l, make_25d_stack(), coarse(24));
  const PowerMap first = build_power_map(l, bench, kDvfsLevels[0],
                                         all_tiles(), std::nullopt);
  const double single_pass = model.solve(first).peak_c;
  const LeakageResult r = run_leakage_fixed_point(
      model, l, bench, kDvfsLevels[0], all_tiles(), PowerModelParams{});
  EXPECT_GT(r.peak_c, single_pass);
  EXPECT_GT(r.total_power_w, first.total());
}

TEST(LeakageLoop, ColdSystemsLeakLessThanReference) {
  // A lightly loaded system sits below 60 °C, so converged power is below
  // the reference-temperature estimate.
  const ChipletLayout l = make_uniform_layout(4, 8.0);
  const BenchmarkProfile& bench = benchmark_by_name("lu.cont");
  const std::vector<int> few = active_tiles(AllocPolicy::kMinTemp, 32);
  ThermalModel model(l, make_25d_stack(), coarse(24));
  const PowerMap ref =
      build_power_map(l, bench, kDvfsLevels[4], few, std::nullopt);
  const LeakageResult r = run_leakage_fixed_point(
      model, l, bench, kDvfsLevels[4], few, PowerModelParams{});
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.total_power_w, ref.total());
}

TEST(LeakageLoop, SaturatesInsteadOfDiverging) {
  // An absurdly hot configuration (packed chiplets, max power, tiny sink)
  // must saturate at the clamped leakage rather than run away — on the
  // folded path (clamp active set) and on the iterated oracle alike.
  ThermalConfig cfg = coarse(16);
  cfg.package.h_convection = 250.0;  // deliberately poor cooling
  const ChipletLayout l = make_uniform_layout(4, 0.0);
  ThermalModel folded_model(l, make_25d_stack(), cfg);
  ThermalModel oracle_model(l, make_25d_stack(), cfg);
  const LeakageResult folded = run_leakage_fixed_point(
      folded_model, l, benchmark_by_name("shock"), kDvfsLevels[0],
      all_tiles(), PowerModelParams{});
  const LeakageResult oracle = run_leakage_iterated(
      oracle_model, l, benchmark_by_name("shock"), kDvfsLevels[0],
      all_tiles(), PowerModelParams{});
  for (const LeakageResult& r : {folded, oracle}) {
    EXPECT_GT(r.peak_c, 150.0);   // grossly infeasible, as expected
    EXPECT_LT(r.peak_c, 1000.0);  // but bounded by the leakage clamp
    EXPECT_TRUE(std::isfinite(r.peak_c));
  }
  // Linear leakage runs away under this cooling (the folded operator is
  // indefinite), so the fold hands over and the clamped oracle answers.
  EXPECT_FALSE(folded.exact);
  EXPECT_EQ(folded.peak_c, oracle.peak_c);
  EXPECT_TRUE(folded_model.health().clean())
      << folded_model.health().summary();
}

// Iteration behaviour of the paper's loop: the oracle.
TEST(LeakageLoop, ToleranceControlsIterationCount) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const BenchmarkProfile& bench = benchmark_by_name("hpccg");
  ThermalModel m1(l, make_25d_stack(), coarse(16));
  ThermalModel m2(l, make_25d_stack(), coarse(16));
  const LeakageResult loose = run_leakage_iterated(
      m1, l, bench, kDvfsLevels[0], all_tiles(), PowerModelParams{}, 1.0);
  const LeakageResult tight = run_leakage_iterated(
      m2, l, bench, kDvfsLevels[0], all_tiles(), PowerModelParams{}, 0.001);
  EXPECT_LE(loose.iterations, tight.iterations);
  EXPECT_NEAR(loose.peak_c, tight.peak_c, 1.5);
}

TEST(LeakageLoop, ConvergenceTracksWholeFieldNotJustPeak) {
  // Regression for the peak-only convergence bug: a dense cluster pushed
  // past the 150 °C leakage clamp goes quiet immediately (clamped leakage
  // no longer responds to temperature), while a sparse cooler cluster is
  // still drifting.  Judging convergence on the peak alone stops while
  // the off-peak field — and hence total power — is still moving.
  ThermalConfig cfg = coarse(16);
  cfg.package.h_convection = 250.0;  // poor cooling → clamped hot cluster
  const ChipletLayout l = make_uniform_layout(4, 0.0);
  const BenchmarkProfile& bench = benchmark_by_name("shock");
  const DvfsLevel& lvl = kDvfsLevels[0];
  // Dense 8×8 tile block in one corner plus a sparse 4×4-spaced set in
  // the opposite corner.
  std::vector<int> active;
  for (int ty = 0; ty < 8; ++ty)
    for (int tx = 0; tx < 8; ++tx) active.push_back(ty * 16 + tx);
  for (int ty = 8; ty < 16; ty += 4)
    for (int tx = 8; tx < 16; tx += 4) active.push_back(ty * 16 + tx);
  const double tol_c = 0.05;

  // Replay the fixed point by hand, recording when the peak alone would
  // have declared convergence vs. when the whole tile field settles.
  ThermalModel probe(l, make_25d_stack(), cfg);
  std::optional<std::vector<double>> temps;
  double prev_peak = std::numeric_limits<double>::infinity();
  int peak_settled_at = 0, field_settled_at = 0;
  for (int it = 1; it <= 12 && field_settled_at == 0; ++it) {
    const PowerMap pmap = build_power_map(l, bench, lvl, active, temps);
    const double peak = probe.solve(pmap).peak_c;
    std::vector<double> now = probe.tile_temperatures();
    double field_delta = std::numeric_limits<double>::infinity();
    if (temps) {
      field_delta = 0.0;
      for (std::size_t i = 0; i < now.size(); ++i)
        field_delta = std::max(field_delta, std::abs(now[i] - (*temps)[i]));
    }
    if (peak_settled_at == 0 && std::abs(peak - prev_peak) < tol_c)
      peak_settled_at = it;
    if (field_settled_at == 0 && field_delta < tol_c) field_settled_at = it;
    prev_peak = peak;
    temps = std::move(now);
  }
  ASSERT_GT(peak_settled_at, 0) << "scenario never clamps the peak";
  ASSERT_GT(field_settled_at, 0);
  // The scenario separates the two criteria: the clamped peak settles
  // while secondary hotspots are still moving by more than tol_c.
  EXPECT_GT(field_settled_at, peak_settled_at);

  // The iterated loop must use the whole-field criterion.
  ThermalModel model(l, make_25d_stack(), cfg);
  const LeakageResult r = run_leakage_iterated(
      model, l, bench, lvl, active, PowerModelParams{}, tol_c);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, field_settled_at);
  EXPECT_GT(r.iterations, peak_settled_at);

  // The folded path has no per-iteration tolerance: it lands on the
  // whole-field fixed point itself, clamped cluster included.
  ThermalModel folded_model(l, make_25d_stack(), cfg);
  const LeakageResult folded = run_leakage_fixed_point(
      folded_model, l, bench, lvl, active, PowerModelParams{}, tol_c);
  ThermalModel oracle_model(l, make_25d_stack(), cfg);
  const LeakageResult oracle =
      run_leakage_iterated(oracle_model, l, bench, lvl, active,
                           PowerModelParams{}, kOracleTolC, kOracleIters);
  EXPECT_TRUE(folded.converged);
  EXPECT_TRUE(oracle.converged);
  // The clamp engaged, so the active set took more than one folded solve
  // and still landed on an exact fixed point.
  EXPECT_TRUE(folded.exact);
  EXPECT_GT(folded.iterations, 1);
  EXPECT_NEAR(folded.peak_c, oracle.peak_c, 1e-4);
  EXPECT_NEAR(folded.total_power_w, oracle.total_power_w,
              1e-6 * oracle.total_power_w);
  const std::vector<double> ft = folded_model.tile_temperatures();
  const std::vector<double> ot = oracle_model.tile_temperatures();
  for (std::size_t i = 0; i < ft.size(); ++i)
    EXPECT_NEAR(ft[i], ot[i], 1e-4) << "tile " << i;
}

TEST(LeakageLoop, UnconvergedReturnIsSelfConsistent) {
  // When the iteration budget runs out, the reported total power must be
  // rebuilt from the *final* temperature field — not the stale map built
  // from the previous iterate that the last solve consumed.
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const BenchmarkProfile& bench = benchmark_by_name("cholesky");
  ThermalModel model(l, make_25d_stack(), coarse(16));
  const LeakageResult r = run_leakage_fixed_point(
      model, l, bench, kDvfsLevels[0], all_tiles(), PowerModelParams{},
      0.05, 4, /*fault_nonconverge=*/true);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 4);
  const PowerMap from_final = build_power_map(
      l, bench, kDvfsLevels[0], all_tiles(), model.tile_temperatures());
  EXPECT_DOUBLE_EQ(r.total_power_w, from_final.total());
}

TEST(LeakageLoop, RejectsBadIterationBudget) {
  const ChipletLayout l = make_uniform_layout(2, 1.0);
  ThermalModel model(l, make_25d_stack(), coarse(8));
  EXPECT_THROW(run_leakage_fixed_point(model, l, benchmark_by_name("shock"),
                                       kDvfsLevels[0], all_tiles(),
                                       PowerModelParams{}, 0.05, 0),
               Error);
}

// --- Folded solve against the iterated oracle. ---------------------------

TEST(LeakageFold, OneExactSolvePerEvaluation) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalModel model(l, make_25d_stack(), coarse(24));
  const BenchmarkProfile& bench = benchmark_by_name("cholesky");
  const LeakageResult r = run_leakage_fixed_point(
      model, l, bench, kDvfsLevels[0], all_tiles(), PowerModelParams{});
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.iterations, 1);  // no tile reaches the clamp
  EXPECT_GT(r.peak_c, 45.0);
  // The field solves K T = q(T) for the power rebuilt from its own tile
  // temperatures: energy balances to solver tolerance, as for any solve.
  const PowerMap final_map = build_power_map(
      l, bench, kDvfsLevels[0], all_tiles(), model.tile_temperatures());
  EXPECT_DOUBLE_EQ(r.total_power_w, final_map.total());
  EXPECT_LT(model.energy_balance_error(final_map), 1e-5);
}

TEST(LeakageFold, SteepSlopeFoldsAboveTheZeroCrossing) {
  // λ·t_ref > 1 puts the leakage model's zero crossing inside the clamp
  // range (here 60 − 1/0.024 ≈ 18 °C); the affine range starts there and
  // the fold still matches the oracle.
  PowerModelParams params;
  params.lambda_per_k = 0.024;
  const LeakageAffine aff = core_leakage_affine(
      benchmark_by_name("shock"), kDvfsLevels[0], params);
  EXPECT_NEAR(aff.t_lo_c, 60.0 - 1.0 / 0.024, 1e-12);
  EXPECT_LT(aff.a, 0.0);
  const ChipletLayout l = make_uniform_layout(4, 3.0);
  ThermalModel fm(l, make_25d_stack(), coarse(16));
  ThermalModel om(l, make_25d_stack(), coarse(16));
  const LeakageResult folded = run_leakage_fixed_point(
      fm, l, benchmark_by_name("shock"), kDvfsLevels[0], all_tiles(), params);
  const LeakageResult oracle =
      run_leakage_iterated(om, l, benchmark_by_name("shock"), kDvfsLevels[0],
                           all_tiles(), params, kOracleTolC, kOracleIters);
  EXPECT_TRUE(folded.exact);
  EXPECT_NEAR(folded.peak_c, oracle.peak_c, 1e-4);
  EXPECT_NEAR(folded.total_power_w, oracle.total_power_w,
              1e-6 * oracle.total_power_w);
}

TEST(LeakageFold, RunawayOperatorFallsBackToTheOracle) {
  // A leakage slope far past thermal runaway makes K − Wᵀ D W indefinite:
  // CG breaks down, the solve hands over at once, and the iterated loop
  // (which the clamp bounds) answers.  The fallback is counted, but not
  // as a solver recovery: nothing was wrong with the solver.
  PowerModelParams params;
  params.lambda_per_k = 2.0;
  const ChipletLayout l = make_uniform_layout(4, 0.0);
  const BenchmarkProfile& bench = benchmark_by_name("shock");
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  ThermalModel fm(l, make_25d_stack(), coarse(12));
  const LeakageResult folded = run_leakage_fixed_point(
      fm, l, bench, kDvfsLevels[0], all_tiles(), params);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  obs::set_metrics_enabled(false);
  double fallbacks = 0.0;
  for (const auto& [name, v] : snap.counters)
    if (name == "leakage.fold_fallbacks") fallbacks = v;
  EXPECT_EQ(fallbacks, 1.0);
  EXPECT_FALSE(folded.exact);
  EXPECT_TRUE(fm.health().clean()) << fm.health().summary();

  ThermalModel om(l, make_25d_stack(), coarse(12));
  const LeakageResult oracle =
      run_leakage_iterated(om, l, bench, kDvfsLevels[0], all_tiles(), params);
  EXPECT_EQ(folded.converged, oracle.converged);
  EXPECT_EQ(folded.peak_c, oracle.peak_c);
  EXPECT_EQ(folded.total_power_w, oracle.total_power_w);
  EXPECT_EQ(folded.iterations, oracle.iterations + 1);  // + the folded try
}

/// One oracle case: organization size, grid (preconditioner follows from
/// the grid: Jacobi at 12/24, multigrid at 48).
struct FoldCase {
  int n_chiplets;
  std::size_t grid;
};

void PrintTo(const FoldCase& c, std::ostream* os) {
  *os << "n=" << c.n_chiplets << " grid=" << c.grid;
}

class LeakageFoldOracle : public ::testing::TestWithParam<FoldCase> {};

TEST_P(LeakageFoldOracle, MatchesIteratedLoopOnEveryBenchmark) {
  const FoldCase c = GetParam();
  const Organization org{c.n_chiplets, Spacing{1.0, 0.5, 2.0}, 0, 256};
  const ChipletLayout l = layout_for(org);
  const LayerStack stack =
      c.n_chiplets == 1 ? make_2d_stack() : make_25d_stack();
  ThermalConfig cfg = coarse(c.grid);
  cfg.solve.precond =
      c.grid >= 48 ? PrecondKind::kMultigrid : PrecondKind::kJacobi;
  ThermalModel fm(l, stack, cfg);
  ThermalModel om(l, stack, cfg);
  const PowerModelParams params;
  const std::pair<std::size_t, int> fps[] = {{0, 256}, {2, 128}, {4, 64}};
  for (const BenchmarkProfile& bench : benchmarks()) {
    for (const auto& [f, p] : fps) {
      const std::vector<int> active = active_tiles(AllocPolicy::kMinTemp, p);
      const LeakageResult folded = run_leakage_fixed_point(
          fm, l, bench, kDvfsLevels[f], active, params);
      const LeakageResult oracle =
          run_leakage_iterated(om, l, bench, kDvfsLevels[f], active, params,
                               kOracleTolC, kOracleIters);
      SCOPED_TRACE(std::string(bench.name) + " f=" + std::to_string(f) +
                   " p=" + std::to_string(p));
      ASSERT_TRUE(oracle.converged);
      EXPECT_TRUE(folded.converged);
      EXPECT_TRUE(folded.exact);
      EXPECT_NEAR(folded.peak_c, oracle.peak_c, 1e-4);
      EXPECT_NEAR(folded.total_power_w, oracle.total_power_w,
                  1e-6 * oracle.total_power_w);
      const PowerMap final_map = build_power_map(
          l, bench, kDvfsLevels[f], active, fm.tile_temperatures(), params);
      EXPECT_LT(fm.energy_balance_error(final_map), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LeakageFoldOracle,
    ::testing::Values(FoldCase{1, 12}, FoldCase{4, 12}, FoldCase{16, 12},
                      FoldCase{1, 24}, FoldCase{4, 24}, FoldCase{16, 24},
                      FoldCase{1, 48}, FoldCase{4, 48}, FoldCase{16, 48}),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return "n" + std::to_string(info.param.n_chiplets) + "_grid" +
             std::to_string(info.param.grid);
    });

// Property: the fixed point converges for every benchmark at every DVFS
// level on a representative layout.
class LeakageConvergenceProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeakageConvergenceProperty, AllLevelsConverge) {
  const BenchmarkProfile& bench = benchmarks()[GetParam()];
  const ChipletLayout l = make_uniform_layout(4, 3.0);
  ThermalModel model(l, make_25d_stack(), coarse(16));
  for (std::size_t f = 0; f < kDvfsLevelCount; ++f) {
    const LeakageResult r = run_leakage_fixed_point(
        model, l, bench, kDvfsLevels[f], all_tiles(), PowerModelParams{});
    EXPECT_TRUE(r.converged) << bench.name << " level " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, LeakageConvergenceProperty,
                         ::testing::Range<std::size_t>(0, kBenchmarkCount));

}  // namespace
}  // namespace tacos
