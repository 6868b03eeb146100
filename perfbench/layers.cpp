/// \file layers.cpp
/// \brief Per-layer metrics of a traced run.
///
/// Sources, in order of preference: the library's own obs metrics (span
/// self/total times and counters, switched on through the public
/// obs::set_metrics_enabled), the public counter structs (EvalStats with
/// its LadderStats / RefineStats / RunHealth), harness timers around
/// public calls, and a probe that times the public ThermalModel
/// constructor on the workload's own layouts.  README.md maps each metric
/// to the end-to-end metric it should move.

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "materials/stack.hpp"
#include "thermal/grid_model.hpp"

namespace perfbench {
namespace {

using tacos::obs::MetricsSnapshot;

double counter(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0.0;
}

/// Mean observed value of a histogram (0 when empty).
double hist_mean(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms)
    if (n == name) return h.count ? h.sum / static_cast<double>(h.count) : 0.0;
  return 0.0;
}

double hist_sum(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms)
    if (n == name) return h.sum;
  return 0.0;
}

double span_total(const MetricsSnapshot& s, const std::string& site) {
  return counter(s, "span." + site + ".total_s");
}

double span_calls(const MetricsSnapshot& s, const std::string& site) {
  return counter(s, "span." + site + ".calls");
}

/// Summed exclusive time of a layer's spans.
double self_s(const MetricsSnapshot& s, std::initializer_list<const char*> sites) {
  double t = 0.0;
  for (const char* site : sites) t += counter(s, std::string("span.") + site + ".self_s");
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool is_time(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends("_s") || ends("_ms") || ends("_us");
}

/// Every work count a pass produced: the counter structs and every
/// non-time obs counter and histogram.  These must repeat exactly.
std::vector<std::pair<std::string, double>> work_counts(const UnitPass& p) {
  const tacos::EvalStats& st = p.stats;
  std::vector<std::pair<std::string, double>> c = {
      {"requests", static_cast<double>(p.request_s.size())},
      {"optimizer.combos_tried", static_cast<double>(p.combos_tried)},
      {"evals", static_cast<double>(st.evals)},
      {"solves", static_cast<double>(st.solves)},
      {"ladder.screened", static_cast<double>(st.ladder.screened)},
      {"ladder.rejected", static_cast<double>(st.ladder.rejected)},
      {"ladder.promoted", static_cast<double>(st.ladder.promoted)},
      {"ladder.coarse_solves", static_cast<double>(st.ladder.coarse_solves)},
      {"ladder.medium_solves", static_cast<double>(st.ladder.medium_solves)},
      {"refine.attempted", static_cast<double>(st.refine.attempted)},
      {"refine.steps", static_cast<double>(st.refine.steps)},
      {"refine.trials", static_cast<double>(st.refine.trials)},
      {"refine.adjoint_solves", static_cast<double>(st.refine.adjoint_solves)},
      {"health.retries", static_cast<double>(st.health.retries())},
      {"health.leak_nonconverged",
       static_cast<double>(st.health.leak_nonconverged)},
  };
  for (const auto& [n, v] : p.snap.counters)
    if (!is_time(n)) c.emplace_back(n, v);
  for (const auto& [n, h] : p.snap.histograms) {
    if (is_time(n)) continue;
    c.emplace_back(n + ".count", static_cast<double>(h.count));
    c.emplace_back(n + ".sum", h.sum);
  }
  return c;
}

struct Probe {
  double build_ms = 0.0;  ///< median ThermalModel constructor time
  double unknowns = 0.0;
  bool multigrid = false;  ///< steady solves use the MG preconditioner
};

/// Time the public ThermalModel constructor on the workload's layouts.
Probe run_probe(const ProbeSpec& spec) {
  Probe p;
  std::vector<double> ms;
  for (const tacos::Organization& org : spec.orgs) {
    const tacos::ChipletLayout layout = tacos::layout_for(org);
    const tacos::LayerStack stack = org.n_chiplets == 1
                                        ? tacos::make_2d_stack()
                                        : tacos::make_25d_stack();
    const double t0 = now_s();
    const tacos::ThermalModel model(layout, stack, spec.thermal);
    ms.push_back((now_s() - t0) * 1e3);
    p.unknowns = static_cast<double>(model.node_count());
    p.multigrid = model.steady_precond() == tacos::PrecondKind::kMultigrid;
  }
  if (!ms.empty()) p.build_ms = median(ms);
  return p;
}

}  // namespace

void add_layer_metrics(const UnitPass& untraced_1, const UnitPass& traced_a,
                       const UnitPass& traced_b, const UnitPass& untraced_2,
                       const ProbeSpec& probe_spec, Report& rep) {
  // Exact-count check: the two traced passes did identical work.
  const auto ca = work_counts(traced_a);
  const auto cb = work_counts(traced_b);
  if (ca != cb) {
    for (std::size_t i = 0; i < std::max(ca.size(), cb.size()); ++i) {
      if (i < ca.size() && i < cb.size() && ca[i] == cb[i]) continue;
      std::ostringstream os;
      os << "work count differs between two traced passes: ";
      if (i < ca.size()) os << ca[i].first << "=" << ca[i].second;
      os << " vs ";
      if (i < cb.size()) os << cb[i].first << "=" << cb[i].second;
      rep.fail(os.str());
      break;
    }
  }

  const tacos::EvalStats& st = traced_a.stats;
  const MetricsSnapshot& a = traced_a.snap;
  const MetricsSnapshot& b = traced_b.snap;
  // Times: mean of the two traced passes.  Counts: pass a (== pass b).
  const auto both = [&](auto f) { return 0.5 * (f(a) + f(b)); };
  const auto cnt = [](std::size_t v) { return static_cast<double>(v); };

  // core/optimizer
  const bool opt = traced_a.searched;
  rep.add("optimizer.combos_tried", cnt(traced_a.combos_tried), "count");
  rep.add("optimizer.evals", opt ? cnt(st.evals) : 0.0, "count");
  rep.add("optimizer.solves", opt ? cnt(st.solves) : 0.0, "count");
  rep.add("optimizer.task_s_max",
          0.5 * (traced_a.task_s_max + traced_b.task_s_max), "s");

  // core/evaluator: the fidelity ladder
  rep.add("evaluator.ladder.screened", cnt(st.ladder.screened), "count");
  rep.add("evaluator.ladder.rejected", cnt(st.ladder.rejected), "count");
  rep.add("evaluator.ladder.reject_ratio",
          ratio(cnt(st.ladder.rejected), cnt(st.ladder.screened)), "ratio");
  rep.add("evaluator.ladder.coarse_solves", cnt(st.ladder.coarse_solves),
          "count");
  rep.add("evaluator.ladder.medium_solves", cnt(st.ladder.medium_solves),
          "count");
  rep.add("evaluator.ladder.self_s", both([](const MetricsSnapshot& s) {
            return self_s(s, {"eval.rung0", "eval.rung1", "eval.rung2",
                              "surrogate.fit", "surrogate.score",
                              "thermal.coarse"});
          }),
          "s");

  // core/leakage
  rep.add("leakage.solves_per_eval", hist_mean(a, "leakage.iterations"),
          "solves/eval");
  rep.add("leakage.nonconverged", cnt(st.health.leak_nonconverged), "count");
  rep.add("leakage.self_s", both([](const MetricsSnapshot& s) {
            return self_s(s, {"eval.leakage", "leakage.iter"});
          }),
          "s");

  // core/refine + thermal/adjoint
  rep.add("refine.attempted", cnt(st.refine.attempted), "count");
  rep.add("refine.steps", cnt(st.refine.steps), "count");
  rep.add("refine.trials", cnt(st.refine.trials), "count");
  rep.add("refine.accept_ratio",
          ratio(cnt(st.refine.steps), cnt(st.refine.trials)), "ratio");
  rep.add("refine.adjoint_solves", cnt(st.refine.adjoint_solves), "count");
  rep.add("refine.gain_c", traced_a.refine_gain_c, "C");
  rep.add("refine.self_s", both([](const MetricsSnapshot& s) {
            return self_s(s, {"refine.descent", "refine.gradient",
                              "thermal.adjoint"});
          }),
          "s");

  // thermal/grid_model
  const Probe probe = run_probe(probe_spec);
  rep.add("thermal.build_ms", probe.build_ms, "ms");
  rep.add("thermal.solve_ms", both([](const MetricsSnapshot& s) {
            return ratio(span_total(s, "thermal.solve"),
                         span_calls(s, "thermal.solve")) * 1e3;
          }),
          "ms");
  rep.add("thermal.solves", counter(a, "thermal.solves"), "count");
  rep.add("thermal.recoveries", cnt(st.health.retries()), "count");

  // linalg.  The MG hierarchy of a multigrid-preconditioned model is built
  // inside its first solve; that build is not CG iteration time.
  rep.add("linalg.unknowns", probe.unknowns, "count");
  rep.add("linalg.cg_iters_per_solve", hist_mean(a, "thermal.cg_iterations"),
          "iters/solve");
  rep.add("linalg.ns_per_iter", both([&](const MetricsSnapshot& s) {
            const double build = probe.multigrid ? span_total(s, "thermal.mg.build")
                                                 : 0.0;
            return ratio(span_total(s, "thermal.solve") - build,
                         hist_sum(s, "thermal.cg_iterations")) * 1e9;
          }),
          "ns");
  rep.add("linalg.mg.build_ms", both([](const MetricsSnapshot& s) {
            return ratio(span_total(s, "thermal.mg.build"),
                         span_calls(s, "thermal.mg.build")) * 1e3;
          }),
          "ms");
  rep.add("linalg.mg.cycles", counter(a, "thermal.mg.cycles"), "count");
  rep.add("linalg.mg.coarse_s", both([](const MetricsSnapshot& s) {
            return span_total(s, "thermal.mg.coarse");
          }),
          "s");

  // power/perf/cost
  rep.add("power.build_map_s", both([](const MetricsSnapshot& s) {
            return span_total(s, "power.build_map");
          }),
          "s");

  // obs: traced against untraced median request time of the same unit.
  const double base =
      0.5 * (median(untraced_1.request_s) + median(untraced_2.request_s));
  const double traced =
      0.5 * (median(traced_a.request_s) + median(traced_b.request_s));
  rep.add("trace.overhead_pct", ratio(traced - base, base) * 100.0, "%");
}

}  // namespace perfbench
