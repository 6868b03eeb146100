#pragma once
/// \file power_model.hpp
/// \brief Core power model — the repository's McPAT substitute — with the
///        paper's temperature-dependent leakage model (§IV).
///
/// Each benchmark defines its total chip power P256 with all 256 cores
/// active at the nominal DVFS level and the leakage reference temperature
/// (60 °C).  Per the paper, 30% of that power is leakage at 60 °C.  An
/// active core at DVFS level (f, V) and temperature T dissipates
///
///   P_core(f, V, T) = q_dyn * (V/V0)^2 * (f/f0)
///                   + q_leak * (V/V0) * (1 + lambda * (T - 60°C))
///
/// where q_dyn = 0.7 * P256/256 and q_leak = 0.3 * P256/256.  The linear
/// temperature coefficient lambda is extracted from published 22nm
/// power/temperature data [20].  Idle cores enter sleep mode and dissipate
/// ~0 W (paper §IV).
///
/// build_power_map() combines per-core power with the mesh network power
/// (spread uniformly over the chiplet silicon) into the heat-source map
/// the thermal solver consumes.  Passing per-tile temperatures lets the
/// caller iterate the leakage fixed point (power → temperature → leakage).

#include <optional>
#include <vector>

#include "alloc/policy.hpp"
#include "floorplan/layout.hpp"
#include "noc/mesh.hpp"
#include "perf/benchmark.hpp"
#include "power/dvfs.hpp"
#include "thermal/power_map.hpp"

namespace tacos {

/// Parameters of the leakage model.
struct PowerModelParams {
  double leakage_fraction = 0.30;  ///< leakage share of power at T_ref
  double t_ref_c = 60.0;           ///< leakage reference temperature
  double lambda_per_k = 0.012;     ///< linear leakage slope (1/K) [20]
  MeshParams mesh;                 ///< network power parameters
  /// Total power of the 8 memory controllers distributed along two
  /// opposite edges of the system (paper §III-A).  Off (0 W) by default:
  /// the benchmark power calibration folds MC power into the core
  /// budget; enable to study MC hot spots explicitly.
  double mc_power_total_w = 0.0;
};

/// Logical tile positions of the 8 memory controllers: four along the
/// left edge and four along the right edge of the tile grid (§III-A).
std::vector<int> memory_controller_tiles(const SystemSpec& spec = {});

/// Dynamic power of one active core (W) at DVFS level `lvl`.
double core_dynamic_power_w(const BenchmarkProfile& bench,
                            const DvfsLevel& lvl,
                            const PowerModelParams& p = {});

/// Leakage power of one active core (W) at level `lvl`, temperature `t_c`.
double core_leakage_power_w(const BenchmarkProfile& bench,
                            const DvfsLevel& lvl, double t_c,
                            const PowerModelParams& p = {});

/// Leakage of one active core as an affine function of its temperature:
/// core_leakage_power_w(T) == a + b·clamp(T, t_lo_c, t_hi_c) exactly, for
/// every T.  [t_lo_c, t_hi_c] is the clamp range [0, 150] °C, raised at
/// the low end to the zero crossing when a steep slope (λ·t_ref > 1)
/// would otherwise drive the linear model negative.  The thermal solve
/// folds `b` into its operator (core/leakage.hpp); the intercept `a` is
/// what build_power_map emits at T = t_lo_c when t_lo_c = 0.
struct LeakageAffine {
  double a = 0.0;       ///< intercept (W)
  double b = 0.0;       ///< slope (W/K)
  double t_lo_c = 0.0;  ///< lower end of the affine range (°C)
  double t_hi_c = 0.0;  ///< upper end of the affine range (°C)
};

/// The affine form of core_leakage_power_w for `bench` at level `lvl`.
LeakageAffine core_leakage_affine(const BenchmarkProfile& bench,
                                  const DvfsLevel& lvl,
                                  const PowerModelParams& p = {});

/// Total chip power (W) if all cores run at `lvl` and temperature `t_c`
/// (excluding network) — convenience for synthetic studies and tests.
double chip_power_w(const BenchmarkProfile& bench, const DvfsLevel& lvl,
                    double t_c, int active_cores,
                    const PowerModelParams& p = {});

/// Build the heat-source map for `bench` running on `layout` at DVFS level
/// `lvl` with the given active tile set.  `tile_temps_c` supplies the
/// temperature used for each tile's leakage (size 256, logical tile order);
/// pass std::nullopt for the first leakage iteration (uses t_ref).
/// Network power is computed from the layout's mesh structure and spread
/// uniformly over the chiplets.
/// `dyn_activity` scales dynamic (switching) power and NoC traffic to
/// model execution phases (perf/phases.hpp); leakage is unaffected by
/// pipeline stalls.
/// `source_chiplet`, when non-null, receives one entry per emitted heat
/// source: the index (layout chiplet order) of the chiplet the source
/// rect rides on.  The adjoint spacing gradient uses this to translate
/// sources rigidly with their chiplet (frozen watts) when spacings move.
PowerMap build_power_map(const ChipletLayout& layout,
                         const BenchmarkProfile& bench, const DvfsLevel& lvl,
                         const std::vector<int>& active_tiles,
                         const std::optional<std::vector<double>>& tile_temps_c,
                         const PowerModelParams& p = {},
                         double dyn_activity = 1.0,
                         std::vector<int>* source_chiplet = nullptr);

/// Network power for this layout/benchmark/level (W) — exposed separately
/// for reporting (paper §III-A: ≈3.9 W single chip, up to ≈8.4 W 2.5D).
double mesh_power_w(const ChipletLayout& layout, const BenchmarkProfile& bench,
                    const DvfsLevel& lvl, const PowerModelParams& p = {});

}  // namespace tacos
