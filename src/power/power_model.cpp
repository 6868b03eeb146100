#include "power/power_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "perf/ips_model.hpp"

namespace tacos {

double core_dynamic_power_w(const BenchmarkProfile& bench,
                            const DvfsLevel& lvl, const PowerModelParams& p) {
  const double q = bench.power_256_w / 256.0;
  const double v = lvl.vdd / kNominalLevel.vdd;
  const double f = lvl.freq_mhz / kNominalLevel.freq_mhz;
  return q * (1.0 - p.leakage_fraction) * v * v * f;
}

namespace {

// The linear leakage model is extracted from 22nm data in the normal
// operating range [20]; the temperature is clamped so grossly infeasible
// configurations (which the optimizer probes routinely) saturate instead
// of producing an unphysical runaway.  150 °C is far above every
// threshold studied, so the clamp never affects feasible designs.
constexpr double kLeakClampLoC = 0.0;
constexpr double kLeakClampHiC = 150.0;

}  // namespace

double core_leakage_power_w(const BenchmarkProfile& bench,
                            const DvfsLevel& lvl, double t_c,
                            const PowerModelParams& p) {
  const double q = bench.power_256_w / 256.0;
  const double v = lvl.vdd / kNominalLevel.vdd;
  const double t = std::clamp(t_c, kLeakClampLoC, kLeakClampHiC);
  const double scale = 1.0 + p.lambda_per_k * (t - p.t_ref_c);
  // Leakage cannot go negative even for very cold (sub-reference) parts.
  return q * p.leakage_fraction * v * std::max(0.0, scale);
}

LeakageAffine core_leakage_affine(const BenchmarkProfile& bench,
                                  const DvfsLevel& lvl,
                                  const PowerModelParams& p) {
  TACOS_CHECK(p.lambda_per_k >= 0.0,
              "leakage slope must be non-negative, got " << p.lambda_per_k);
  const double q = bench.power_256_w / 256.0;
  const double v = lvl.vdd / kNominalLevel.vdd;
  const double c = q * p.leakage_fraction * v;
  LeakageAffine out;
  out.a = c * (1.0 - p.lambda_per_k * p.t_ref_c);
  out.b = c * p.lambda_per_k;
  out.t_hi_c = kLeakClampHiC;
  // Below the zero crossing the max(0, ·) floor holds leakage at 0, which
  // equals the affine value at the crossing: clamping T there is exact.
  out.t_lo_c = out.a >= 0.0
                   ? kLeakClampLoC
                   : std::min(kLeakClampHiC,
                              p.t_ref_c - 1.0 / p.lambda_per_k);
  return out;
}

double chip_power_w(const BenchmarkProfile& bench, const DvfsLevel& lvl,
                    double t_c, int active_cores, const PowerModelParams& p) {
  TACOS_CHECK(active_cores >= 0 && active_cores <= 256,
              "active core count out of range");
  return active_cores * (core_dynamic_power_w(bench, lvl, p) +
                         core_leakage_power_w(bench, lvl, t_c, p));
}

double mesh_power_w(const ChipletLayout& layout, const BenchmarkProfile& bench,
                    const DvfsLevel& lvl, const PowerModelParams& p) {
  return network_power_w(layout, bench, lvl.freq_mhz, lvl.vdd, p.mesh);
}

PowerMap build_power_map(const ChipletLayout& layout,
                         const BenchmarkProfile& bench, const DvfsLevel& lvl,
                         const std::vector<int>& active,
                         const std::optional<std::vector<double>>& tile_temps_c,
                         const PowerModelParams& p, double dyn_activity,
                         std::vector<int>* source_chiplet) {
  TACOS_CHECK(layout.has_tiles(), "power map needs a tiled layout");
  TACOS_CHECK(dyn_activity >= 0.0 && dyn_activity <= 1.0,
              "activity must be in [0, 1], got " << dyn_activity);
  const int n = layout.spec().tiles_per_side;
  if (tile_temps_c) {
    TACOS_CHECK(tile_temps_c->size() ==
                    static_cast<std::size_t>(layout.spec().core_count()),
                "tile temperature vector has wrong size");
  }

  PowerMap map;
  if (source_chiplet) source_chiplet->clear();
  // Entries stay parallel to map.sources: one owner record per add().
  const auto owner = [&](std::size_t chiplet_idx) {
    if (source_chiplet)
      source_chiplet->push_back(static_cast<int>(chiplet_idx));
  };
  const double p_dyn = dyn_activity * core_dynamic_power_w(bench, lvl, p);
  for (int id : active) {
    TACOS_CHECK(id >= 0 && id < layout.spec().core_count(),
                "active tile id " << id << " out of range");
    const int tx = id % n, ty = id / n;
    const double t = tile_temps_c ? (*tile_temps_c)[id] : p.t_ref_c;
    const double watts = p_dyn + core_leakage_power_w(bench, lvl, t, p);
    map.add(layout.tile_rect(tx, ty), watts);
    owner(layout.chiplet_of_tile(tx, ty));
  }

  // Network power: uniform over the chiplet silicon (routers and links are
  // distributed across every tile).
  const double p_net = dyn_activity * mesh_power_w(layout, bench, lvl, p);
  const double total_area = layout.total_chiplet_area();
  for (std::size_t ci = 0; ci < layout.chiplets().size(); ++ci) {
    const auto& c = layout.chiplets()[ci];
    map.add(c.rect, p_net * c.rect.area() / total_area);
    owner(ci);
  }

  // Optional explicit memory-controller sources along the system edges.
  if (p.mc_power_total_w > 0) {
    const std::vector<int> mcs = memory_controller_tiles(layout.spec());
    for (int id : mcs) {
      map.add(layout.tile_rect(id % n, id / n),
              p.mc_power_total_w / static_cast<double>(mcs.size()));
      owner(layout.chiplet_of_tile(id % n, id / n));
    }
  }
  return map;
}

std::vector<int> memory_controller_tiles(const SystemSpec& spec) {
  const int n = spec.tiles_per_side;
  TACOS_CHECK(n >= 4, "tile grid too small for 8 memory controllers");
  // Four per edge, evenly spread: rows at ~1/8, 3/8, 5/8, 7/8 of the edge.
  std::vector<int> out;
  for (int k = 0; k < 4; ++k) {
    const int row = (2 * k + 1) * n / 8;
    out.push_back(row * n + 0);        // left edge
    out.push_back(row * n + (n - 1));  // right edge
  }
  return out;
}

}  // namespace tacos
