#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "perf/benchmark.hpp"
#include "power/dvfs.hpp"

namespace perfbench {
namespace {

using tacos::BenchmarkProfile;
using tacos::EvalConfig;
using tacos::Evaluator;
using tacos::Organization;
using tacos::Spacing;

constexpr double kThresholdC = 85.0;
constexpr std::size_t kPaperGrid = 24;
constexpr double kPaperStepMm = 1.0;
constexpr std::size_t kStreamGrid = 48;
constexpr double kStreamStepMm = 0.5;

/// Set-ups per measured run (the streams report their median setup_s).
constexpr int kSetups = 5;
constexpr std::size_t kPowerLayouts = 8;
/// Requests in one "sweep" of the two streams (sweep_s).
constexpr std::size_t kSweepRequests = 32;
/// Requests in the fixed unit a traced run repeats.
constexpr std::size_t kEvalUnit = 96;
constexpr std::size_t kPowerUnit = 96;
/// Recorded reference peaks per seed, and oracle re-evaluations per run.
constexpr std::size_t kRecorded = 16;
constexpr std::size_t kOracleChecks = 4;
/// Peak tolerance against references (no tighter than 0.05 °C, so an exact
/// leakage fold — which moves peaks by up to the fixed-point tolerance —
/// still passes).
constexpr double kPeakTolC = 0.1;

double elapsed_since(double t0) { return now_s() - t0; }

// --- Recorded references (reference.txt) --------------------------------

/// `winner <bench> <n> <s1> <s2> <s3> <f> <p>` — the paper-sweep grid
/// winners of a one-off full-fidelity sweep; `deviation <bench> <n> <s1>
/// <s2> <s3> <f> <p>` — a known ladder grid winner that differs from the
/// full-fidelity one in its placement only; `peak <workload> <seed> <i>
/// <peak_c>` — the first requests of a recorded seed.
struct Reference {
  std::map<std::string, Organization> winners;
  std::map<std::string, Organization> deviations;
  std::map<std::pair<std::string, std::uint64_t>, std::map<std::size_t, double>>
      peaks;
};

Reference load_reference(const std::string& path) {
  Reference ref;
  if (path.empty()) return ref;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    if (kind == "winner" || kind == "deviation") {
      std::string bench;
      Organization org;
      if (ls >> bench >> org.n_chiplets >> org.spacing.s1 >> org.spacing.s2 >>
          org.spacing.s3 >> org.dvfs_idx >> org.active_cores)
        (kind == "winner" ? ref.winners : ref.deviations)[bench] = org;
      else
        throw std::runtime_error("bad reference line: " + line);
    } else if (kind == "peak") {
      std::string wl;
      std::uint64_t seed = 0;
      std::size_t i = 0;
      double peak = 0.0;
      if (ls >> wl >> seed >> i >> peak)
        ref.peaks[{wl, seed}][i] = peak;
      else
        throw std::runtime_error("bad reference line: " + line);
    }
  }
  // A deviation may only move the placement: the combination (n, f, p),
  // and with it the objective, must be the full-fidelity winner's.
  for (const auto& [bench, dev] : ref.deviations) {
    const auto w = ref.winners.find(bench);
    if (w == ref.winners.end() || w->second.n_chiplets != dev.n_chiplets ||
        w->second.dvfs_idx != dev.dvfs_idx ||
        w->second.active_cores != dev.active_cores)
      throw std::runtime_error("deviation for " + bench +
                               " does not keep the full-fidelity combination");
  }
  return ref;
}

std::string org_string(const Organization& o) {
  std::ostringstream os;
  os.precision(17);
  os << o.n_chiplets << ' ' << o.spacing.s1 << ' ' << o.spacing.s2 << ' '
     << o.spacing.s3 << ' ' << o.dvfs_idx << ' ' << o.active_cores;
  return os.str();
}

bool same_org(const Organization& a, const Organization& b) {
  const auto near = [](double x, double y) { return std::abs(x - y) < 1e-9; };
  return a.n_chiplets == b.n_chiplets && a.dvfs_idx == b.dvfs_idx &&
         a.active_cores == b.active_cores &&
         near(a.spacing.s1, b.spacing.s1) && near(a.spacing.s2, b.spacing.s2) &&
         near(a.spacing.s3, b.spacing.s3);
}

// --- Request generation --------------------------------------------------

/// Seeded draw of distinct 4- and 16-chiplet layouts, uniform over the
/// points of the Eq. 9 manifold at 0.5 mm: every interposer edge from the
/// packed minimum to the Eq. 7 bound, with one placement for n = 4 and
/// every (s1, s2) grid point (s3 = B − 2 s1) for n = 16.  One shuffled
/// pool, so each layout is drawn at most once and the n = 4 share (61 of
/// about 21,000 points) does not change along the stream.
class LayoutDraw {
 public:
  explicit LayoutDraw(std::uint64_t seed) {
    const tacos::SystemSpec spec;
    const double max_budget =
        spec.max_interposer_mm - spec.chip_edge_mm() - 2 * spec.guard_band_mm;
    const long kmax = std::lround(max_budget / kStreamStepMm);
    const auto add = [&](int n, long i1, long i2, long i3) {
      Organization org;
      org.n_chiplets = n;
      org.spacing = Spacing{static_cast<double>(i1) * kStreamStepMm,
                            static_cast<double>(i2) * kStreamStepMm,
                            static_cast<double>(i3) * kStreamStepMm};
      pool_.push_back(org);
    };
    for (long k = 0; k <= kmax; ++k) {
      add(4, 0, 0, k);
      const long g = tacos::spacing_grid_max(
          static_cast<double>(k) * kStreamStepMm, kStreamStepMm);
      for (long i1 = 0; i1 <= g; ++i1)
        for (long i2 = 0; i2 <= g; ++i2) add(16, i1, i2, k - 2 * i1);
    }
    tacos::Rng rng(seed);
    std::shuffle(pool_.begin(), pool_.end(), rng.engine());
  }

  /// Next unused layout (n and spacing; f and p left at their defaults).
  Organization next() {
    if (next_ >= pool_.size())
      throw std::runtime_error("layout manifold exhausted");
    return pool_[next_++];
  }

 private:
  std::vector<Organization> pool_;
  std::size_t next_ = 0;
};

/// Layout identity in 0.5 mm units (for the distinctness assertions).
std::tuple<int, long, long, long> layout_id(const Organization& o) {
  const auto u = [](double mm) { return std::lround(mm / kStreamStepMm); };
  return {o.n_chiplets, u(o.spacing.s1), u(o.spacing.s2), u(o.spacing.s3)};
}

struct Request {
  Organization org;
  const BenchmarkProfile* bench = nullptr;
};

EvalConfig stream_config(tacos::PrecondKind precond) {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = kStreamGrid;
  c.thermal.solve.precond = precond;
  return c;
}

/// Per-request output checks shared by the two streams.
bool eval_ok(const tacos::ThermalEval& te, std::size_t i, Report& rep) {
  if (std::isfinite(te.peak_c) && te.leak_converged) return true;
  std::ostringstream os;
  os << "request " << i << ": peak " << te.peak_c
     << (te.leak_converged ? "" : " (leakage fixed point did not converge)");
  rep.fail(os.str());
  return false;
}

// --- Workload interface ---------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Start a pass: forget which requests were served.
  virtual void begin_pass() {}
  /// Build a fresh serving state (timed as set-up).
  virtual void setup() = 0;
  /// Serve request `i` of the seeded sequence, counting attempted/failed
  /// operations into `rep`.  False when the sequence is exhausted.
  virtual bool serve(std::size_t i, Report& rep) = 0;
  /// Counters of the serving state since the last setup().
  virtual void collect(UnitPass& pass) = 0;
  /// Correctness checks that need the whole run (references, oracle).
  virtual void verify(const Args& args, const Reference& ref, Report& rep) = 0;
  /// Reference lines for reference.txt (after a pass of kRecorded requests).
  virtual void print_reference(const Args& args) const = 0;
  /// Unit size of a traced pass, in requests.
  virtual std::size_t unit_requests() const = 0;
  /// Models the per-layer probe builds.
  virtual ProbeSpec probe() const = 0;
  /// End-to-end metrics of an untraced measured pass.
  virtual void add_e2e_metrics(const UnitPass& pass, Report& rep) const = 0;
  /// The reported set-up time, given the timed setup() calls.
  virtual double setup_s(const std::vector<double>& timed) const {
    return median(timed);
  }
};

void add_stream_metrics(const UnitPass& pass, Report& rep) {
  if (pass.request_s.size() < 100)
    rep.fail("fewer than 100 requests: latency_p90_ms needs at least 100");
  // A sweep of kSweepRequests requests at the run's throughput.
  double busy_s = 0.0;
  for (double s : pass.request_s) busy_s += s;
  rep.add("sweep_s",
          busy_s / static_cast<double>(pass.request_s.size()) * kSweepRequests,
          "s");
  rep.add("latency_p50_ms", median(pass.request_s) * 1e3, "ms");
  rep.add("latency_p90_ms", quantile(pass.request_s, 0.9) * 1e3, "ms");
}

// --- paper-sweep ------------------------------------------------------------

/// The paper's E7/E8 sweep as `tacos_cli --fidelity=auto --refine batch 1 0
/// 85 24 1` runs it.  One request is one whole sweep: the eight benchmarks
/// in order, each on a fresh Evaluator — at one thread exactly what
/// optimize_greedy_batch does (its documented serial equivalent), but
/// split so the harness can time every task and the task's set-up.
class PaperSweep final : public Workload {
 public:
  /// `ref` (may be null when recording) outlives the workload.
  PaperSweep(tacos::FidelityMode mode, const Reference* ref) : ref_(ref) {
    config_.thermal.grid_nx = config_.thermal.grid_ny = kPaperGrid;
    config_.ladder.mode = mode;
    opts_.alpha = 1.0;
    opts_.beta = 0.0;
    opts_.threshold_c = kThresholdC;
    opts_.step_mm = kPaperStepMm;
    opts_.refine = true;
  }

  /// The sweep's set-up is paid inside every task (see serve()); there is
  /// no state shared between sweeps.
  void setup() override {
    stats_ = tacos::EvalStats{};
    combos_ = 0;
    refine_gain_c_ = 0.0;
    task_s_max_ = 0.0;
  }

  bool serve(std::size_t, Report& rep) override {
    std::map<std::string, tacos::OptResult> sweep;
    for (const BenchmarkProfile& bench : tacos::benchmarks()) {
      const std::string name(bench.name);
      ++rep.attempted;
      // Task set-up: the Evaluator shard and the 2D baseline (the IPS
      // normalizer of Eq. 5), which optimize_greedy then reads from the
      // Evaluator's cache.
      const double t0 = now_s();
      Evaluator eval(config_);
      tacos::OptResult r;
      try {
        eval.baseline_2d(bench, kThresholdC);
        setup_s_[name].push_back(elapsed_since(t0));
        r = tacos::optimize_greedy(eval, bench, opts_);
      } catch (const std::exception& e) {
        failed(name, e.what(), rep);
        continue;
      }
      const double dt = elapsed_since(t0);
      task_s_[name].push_back(dt);
      task_s_max_ = std::max(task_s_max_, dt);
      stats_ += eval.stats();
      combos_ += r.combos_tried;
      if (r.refined) refine_gain_c_ += r.peak_grid_c - r.peak_c;
      check(name, r, rep);
      sweep[name] = r;
    }
    last_sweep_ = std::move(sweep);
    return true;
  }

  void collect(UnitPass& pass) override {
    pass.stats = stats_;
    pass.combos_tried = combos_;
    pass.task_s_max = task_s_max_;
    pass.refine_gain_c = refine_gain_c_;
    pass.searched = true;
  }

  /// The last sweep's winners re-evaluated at full fidelity on a fresh
  /// Evaluator: each must be feasible with the peak the sweep reported, so
  /// a ladder winner that differs from the full-fidelity one (a listed
  /// deviation) is still an exactly verified organization.
  void verify(const Args&, const Reference& ref, Report& rep) override {
    if (ref.winners.size() != tacos::benchmarks().size())
      rep.fail("reference.txt lacks the full-fidelity paper-sweep winners");
    EvalConfig full;
    full.thermal = config_.thermal;
    Evaluator oracle(full);
    for (const auto& [name, r] : last_sweep_) {
      const BenchmarkProfile& bench = tacos::benchmark_by_name(name);
      Organization grid = r.org;
      if (r.refined) grid.spacing = r.grid_spacing;
      const auto recheck = [&](const Organization& org, double reported,
                               const char* which) {
        ++rep.attempted;
        try {
          const double peak = oracle.thermal_eval(org, bench).peak_c;
          if (peak <= kThresholdC && std::abs(peak - reported) <= kPeakTolC)
            return;
          std::ostringstream os;
          os << which << " winner " << org_string(org) << ": full-fidelity peak "
             << peak << " C vs reported " << reported << " C (threshold "
             << kThresholdC << ")";
          failed(name, os.str(), rep);
        } catch (const std::exception& e) {
          failed(name, std::string("full-fidelity re-check: ") + e.what(), rep);
        }
      };
      recheck(grid, r.refined ? r.peak_grid_c : r.peak_c, "grid");
      if (r.refined) recheck(r.org, r.peak_c, "refined");
    }
    for (const std::string& k : known_)
      std::cerr << "perfbench: known defect (not counted as failed): " << k
                << "\n";
  }

  void print_reference(const Args&) const override {
    for (const auto& [bench, org] : grid_winners_)
      std::cout << "winner " << bench << ' ' << org_string(org) << "\n";
  }

  std::size_t unit_requests() const override { return 1; }

  ProbeSpec probe() const override {
    ProbeSpec p;
    p.thermal = config_.thermal;
    for (const auto& [name, r] : last_sweep_) p.orgs.push_back(r.org);
    return p;
  }

  /// Task work is deterministic, so every statistic is taken per
  /// benchmark first (the median of its repetitions in this run) and then
  /// over the eight benchmarks: a slow stretch of machine time then has to
  /// cover half of a benchmark's repetitions to move the figure.
  void add_e2e_metrics(const UnitPass& pass, Report& rep) const override {
    std::cerr << "perfbench: paper-sweep: " << pass.request_s.size()
              << " sweep(s), s:";
    for (double t : pass.request_s) std::cerr << ' ' << t;
    std::cerr << "\n";
    std::vector<double> per_bench;
    for (const auto& [bench, times] : task_s_) per_bench.push_back(median(times));
    double sweep_s = 0.0;
    for (double t : per_bench) sweep_s += t;
    rep.add("sweep_s", sweep_s, "s");
    // The benchmarks' median task times are order statistics of eight
    // fixed tasks, not tail estimates over many requests.
    rep.add("latency_p50_ms", quantile(per_bench, 0.5) * 1e3, "ms");
    rep.add("latency_p90_ms", quantile(per_bench, 0.9) * 1e3, "ms");
  }

  /// The set-up a sweep pays: the sum of its tasks' set-ups (each the
  /// median of the benchmark's repetitions).
  double setup_s(const std::vector<double>&) const override {
    double s = 0.0;
    for (const auto& [bench, times] : setup_s_) s += median(times);
    return s;
  }

 private:
  /// Count one failed operation per distinct (benchmark, reason) in a
  /// run, so the count does not depend on how many sweeps fit in it.
  void failed(const std::string& name, const std::string& why, Report& rep) {
    if (!failures_.insert(name + ": " + why).second) return;
    ++rep.failed;
    rep.fail(name + ": " + why);
  }

  /// Gate on one task: found, not quarantined, refined never hotter than
  /// its grid winner, the grid winner identical in every sweep and equal
  /// to the full-fidelity reference — or, where reference.txt lists a
  /// known deviation, equal to exactly that placement.
  void check(const std::string& name, const tacos::OptResult& r, Report& rep) {
    if (!r.found || r.quarantined || r.interrupted) {
      failed(name, "no feasible organization (" + r.diagnostic + ")", rep);
      return;
    }
    Organization grid = r.org;
    if (r.refined) {
      grid.spacing = r.grid_spacing;
      if (!(r.peak_c <= r.peak_grid_c))
        failed(name, "refined peak above its grid peak", rep);
    }
    const auto [it, fresh] = grid_winners_.emplace(name, grid);
    if (!fresh && !same_org(it->second, grid))
      failed(name, "grid winner changed between sweeps", rep);
    if (ref_) {
      const auto want = ref_->winners.find(name);
      if (want != ref_->winners.end() && !same_org(want->second, grid)) {
        const std::string why = "grid winner " + org_string(grid) +
                                " != full-fidelity reference " +
                                org_string(want->second);
        const auto dev = ref_->deviations.find(name);
        if (dev != ref_->deviations.end() && same_org(dev->second, grid))
          known_.insert(name + ": " + why);
        else
          failed(name, why, rep);
      }
    }
  }

  const Reference* ref_;
  EvalConfig config_;
  tacos::OptimizerOptions opts_;
  tacos::EvalStats stats_;
  std::size_t combos_ = 0;
  double refine_gain_c_ = 0.0;
  double task_s_max_ = 0.0;
  std::map<std::string, std::vector<double>> task_s_;   ///< per benchmark
  std::map<std::string, std::vector<double>> setup_s_;  ///< per benchmark
  std::map<std::string, Organization> grid_winners_;
  std::set<std::string> failures_;
  std::set<std::string> known_;  ///< listed deviations seen in this run
  std::map<std::string, tacos::OptResult> last_sweep_;
};

// --- The two grid-48 streams ----------------------------------------------

/// Shared state of the streams: one Evaluator, the first requests' peaks
/// (reference and oracle checks) and the probe layouts.
class Stream : public Workload {
 public:
  void collect(UnitPass& pass) override {
    pass.stats = eval_->stats();
  }

  void verify(const Args& args, const Reference& ref, Report& rep) override {
    // The seed's recorded reference, when this seed has one.
    const auto it = ref.peaks.find({name(), args.seed});
    if (it != ref.peaks.end()) {
      for (const auto& [i, want] : it->second) {
        const auto got = peaks_.find(i);
        if (got != peaks_.end() && !(std::abs(got->second - want) <= kPeakTolC)) {
          ++rep.failed;
          rep.fail(near_msg("recorded reference", i, got->second, want));
        }
      }
    }
    // Every seed: the first requests re-evaluated from scratch with
    // Jacobi-preconditioned CG (the slower solver oracle).
    Evaluator oracle(stream_config(tacos::PrecondKind::kJacobi));
    for (std::size_t i = 0; i < kOracleChecks && i < first_.size(); ++i) {
      const auto got = peaks_.find(i);
      if (got == peaks_.end()) continue;  // the request itself failed
      try {
        const double want =
            oracle.thermal_eval(first_[i].org, *first_[i].bench).peak_c;
        if (!(std::abs(got->second - want) <= kPeakTolC)) {
          ++rep.failed;
          rep.fail(near_msg("Jacobi oracle", i, got->second, want));
        }
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.fail(std::string("Jacobi oracle failed: ") + e.what());
      }
    }
  }

  void print_reference(const Args& args) const override {
    char buf[64];
    for (const auto& [i, peak] : peaks_) {
      std::snprintf(buf, sizeof buf, "%.10f", peak);
      std::cout << "peak " << name() << ' ' << args.seed << ' ' << i << ' '
                << buf << "\n";
    }
  }

  ProbeSpec probe() const override {
    ProbeSpec p;
    p.thermal = stream_config(tacos::PrecondKind::kAuto).thermal;
    for (std::size_t i = 0; i < first_.size() && i < kPowerLayouts; ++i)
      p.orgs.push_back(first_[i].org);
    return p;
  }

  void add_e2e_metrics(const UnitPass& pass, Report& rep) const override {
    add_stream_metrics(pass, rep);
  }

 protected:
  virtual const char* name() const = 0;

  /// Evaluate request `i` on the current Evaluator and record it.
  void evaluate(std::size_t i, const Request& q, Report& rep) {
    ++rep.attempted;
    try {
      const tacos::ThermalEval& te = eval_->thermal_eval(q.org, *q.bench);
      if (!eval_ok(te, i, rep)) ++rep.failed;
      if (i < kRecorded) peaks_[i] = te.peak_c;
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.fail("request " + std::to_string(i) + ": " + e.what());
    }
    if (first_.size() < std::max(kOracleChecks, kPowerLayouts))
      first_.push_back(q);
  }

  std::string near_msg(const char* what, std::size_t i, double got,
                       double want) const {
    std::ostringstream os;
    os << name() << " request " << i << ": peak " << got << " vs " << what
       << " " << want << " (tolerance " << kPeakTolC << " C)";
    return os.str();
  }

  std::unique_ptr<Evaluator> eval_;
  std::map<std::size_t, double> peaks_;  ///< first kRecorded requests
  std::vector<Request> first_;           ///< oracle and probe inputs
};

/// Layout churn: every request is a fresh organization, so each one pays
/// model assembly, the multigrid hierarchy build and the full leakage
/// fixed point.
class EvalStream final : public Stream {
 public:
  explicit EvalStream(std::uint64_t seed)
      : layouts_(seed), ops_(seed * 0x9E3779B97F4A7C15ull + 1) {
    for (int r = 0; r < kSetups; ++r)
      warmups_.push_back(draw());
  }

  /// Set-up: a fresh Evaluator serving one warm-up organization (drawn
  /// ahead of the stream, so it is never requested again).
  void setup() override {
    eval_.reset();
    eval_ = std::make_unique<Evaluator>(
        stream_config(tacos::PrecondKind::kAuto));
    const Request& w = warmups_[setups_++ % warmups_.size()];
    eval_->thermal_eval(w.org, *w.bench);
    eval_->reset_stats();
  }

  void begin_pass() override { seen_.clear(); }

  bool serve(std::size_t i, Report& rep) override {
    while (requests_.size() <= i) requests_.push_back(draw());
    const Request& q = requests_[i];
    if (!seen_.insert(layout_id(q.org)).second)
      rep.fail("eval-stream repeated a layout at request " + std::to_string(i));
    evaluate(i, q, rep);
    return true;
  }

  std::size_t unit_requests() const override { return kEvalUnit; }

 private:
  static constexpr int kCoreChoices =
      static_cast<int>(tacos::kActiveCoreChoices.size());

  const char* name() const override { return "eval-stream"; }

  Request draw() {
    Request q;
    q.org = layouts_.next();
    q.org.dvfs_idx = static_cast<std::size_t>(
        ops_.uniform_int(0, static_cast<int>(tacos::kDvfsLevelCount) - 1));
    q.org.active_cores = tacos::kActiveCoreChoices[static_cast<std::size_t>(
        ops_.uniform_int(0, kCoreChoices - 1))];
    q.bench = &tacos::benchmarks()[static_cast<std::size_t>(
        ops_.uniform_int(0, static_cast<int>(tacos::kBenchmarkCount) - 1))];
    return q;
  }

  LayoutDraw layouts_;
  tacos::Rng ops_;
  std::vector<Request> warmups_;
  std::vector<Request> requests_;  ///< drawn so far (deterministic prefix)
  std::set<std::tuple<int, long, long, long>> seen_;
  std::size_t setups_ = 0;
};

/// Layout reuse: eight layouts built and warmed in set-up, then every
/// (layout × benchmark × f × p) power map in seeded order, each at most
/// once — the evaluation memo never hits, the model cache always does.
class PowerSweep final : public Stream {
 public:
  explicit PowerSweep(std::uint64_t seed) {
    LayoutDraw draw(seed);
    for (std::size_t j = 0; j < kPowerLayouts; ++j)
      layouts_.push_back(draw.next());
    const auto& benches = tacos::benchmarks();
    for (std::size_t j = 0; j < kPowerLayouts; ++j) {
      for (std::size_t b = 0; b < benches.size(); ++b) {
        for (std::size_t f = 0; f < tacos::kDvfsLevelCount; ++f) {
          for (int p : tacos::kActiveCoreChoices) {
            Request q{layouts_[j], &benches[b]};
            q.org.dvfs_idx = f;
            q.org.active_cores = p;
            // Layout j's warm-up operating point is served in set-up only.
            if (b == j % benches.size() && f == kWarmF && p == kWarmP)
              warmups_.push_back(q);
            else
              requests_.push_back(q);
          }
        }
      }
    }
    tacos::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
    std::shuffle(requests_.begin(), requests_.end(), rng.engine());
  }

  /// Set-up: a fresh Evaluator with all eight layouts built (model +
  /// multigrid hierarchy) and solved once.
  void setup() override {
    eval_.reset();
    eval_ = std::make_unique<Evaluator>(
        stream_config(tacos::PrecondKind::kAuto));
    for (const Request& w : warmups_) eval_->thermal_eval(w.org, *w.bench);
    eval_->reset_stats();
  }

  void begin_pass() override { served_.clear(); }

  bool serve(std::size_t i, Report& rep) override {
    if (i >= requests_.size()) return false;
    const Request& q = requests_[i];
    const auto key = std::make_tuple(layout_id(q.org), q.bench->name,
                                     q.org.dvfs_idx, q.org.active_cores);
    if (!served_.insert(key).second)
      rep.fail("power-sweep repeated a power map at request " +
               std::to_string(i));
    evaluate(i, q, rep);
    return true;
  }

  std::size_t unit_requests() const override { return kPowerUnit; }

  ProbeSpec probe() const override {
    ProbeSpec p = Stream::probe();
    p.orgs = layouts_;
    return p;
  }

 private:
  static constexpr std::size_t kWarmF = 2;
  static constexpr int kWarmP = 128;

  const char* name() const override { return "power-sweep"; }

  std::vector<Organization> layouts_;
  std::vector<Request> warmups_;
  std::vector<Request> requests_;
  std::set<std::tuple<std::tuple<int, long, long, long>, std::string_view,
                      std::size_t, int>>
      served_;
};

// --- Passes -----------------------------------------------------------------

/// One pass: requests until `max_requests` are served or `seconds` have
/// passed (a request starts only if half the previous request's time still
/// fits, so long requests neither overrun nor cut the pass short on
/// average), and `setups` timed
/// set-ups spread over the pass — set-up k runs before the first request
/// that starts after k/setups of `seconds`, so the reported median samples
/// the same stretch of machine time as the requests.  Traced passes take
/// one set-up and count only the requests.
UnitPass run_pass(Workload& w, int setups, std::size_t max_requests,
                  double seconds, bool traced, Report& rep,
                  std::vector<double>* setup_s = nullptr) {
  int done = 0;
  const auto setup_until = [&](int k) {
    for (; done < std::min(k, setups); ++done) {
      const double t0 = now_s();
      w.setup();
      if (setup_s) setup_s->push_back(elapsed_since(t0));
    }
  };
  w.begin_pass();
  const double start = now_s();
  setup_until(1);
  tacos::obs::set_metrics_enabled(traced);
  if (traced) tacos::obs::MetricsRegistry::global().reset_values();
  UnitPass pass;
  double last_s = 0.0;
  for (std::size_t i = 0;
       i < max_requests && elapsed_since(start) + 0.5 * last_s < seconds; ++i) {
    setup_until(1 + static_cast<int>(elapsed_since(start) / seconds * setups));
    const double t0 = now_s();
    if (!w.serve(i, rep)) break;
    last_s = elapsed_since(t0);
    pass.request_s.push_back(last_s);
  }
  setup_until(setups);
  w.collect(pass);
  if (traced) pass.snap = tacos::obs::MetricsRegistry::global().snapshot();
  tacos::obs::set_metrics_enabled(false);
  return pass;
}

std::unique_ptr<Workload> make_workload(const Args& args,
                                        tacos::FidelityMode mode,
                                        const Reference* ref) {
  if (args.workload == "paper-sweep")
    return std::make_unique<PaperSweep>(mode, ref);
  if (args.workload == "eval-stream")
    return std::make_unique<EvalStream>(args.seed);
  if (args.workload == "power-sweep")
    return std::make_unique<PowerSweep>(args.seed);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace

Report run_workload(const Args& args) {
  constexpr double kUnbounded = 1e300;
  Report rep;
  if (args.record) {
    // The paper-sweep reference is a one-off full-fidelity sweep.  The
    // mode is looked up by name so the harness keeps building if the
    // enumerator goes away.
    const std::optional<tacos::FidelityMode> full =
        tacos::parse_fidelity_mode("full");
    if (!full) throw std::runtime_error("no full-fidelity mode to record with");
    const auto w = make_workload(args, *full, nullptr);
    run_pass(*w, 1, args.workload == "paper-sweep" ? 1 : kRecorded,
             kUnbounded, false, rep);
    w->print_reference(args);
    return rep;
  }

  const Reference ref = load_reference(args.reference);
  const auto w = make_workload(args, tacos::FidelityMode::kAuto, &ref);
  if (!args.trace) {
    std::vector<double> setup_s;
    const UnitPass pass = run_pass(*w, kSetups, SIZE_MAX, args.seconds, false,
                                   rep, &setup_s);
    const double rss_mb = peak_rss_mb();  // before the oracle's models
    w->verify(args, ref, rep);
    rep.add("setup_s", w->setup_s(setup_s), "s");
    rep.add("peak_rss_mb", rss_mb, "MB");
    w->add_e2e_metrics(pass, rep);
    return rep;
  }

  // Traced run: the fixed unit untraced, twice with the library's obs
  // metrics on, and untraced again (ABBA: the untraced passes are the
  // overhead baseline).  The traced passes' work counts must repeat.
  const std::size_t n = w->unit_requests();
  const UnitPass base_1 = run_pass(*w, 1, n, kUnbounded, false, rep);
  const UnitPass a = run_pass(*w, 1, n, kUnbounded, true, rep);
  const UnitPass b = run_pass(*w, 1, n, kUnbounded, true, rep);
  const UnitPass base_2 = run_pass(*w, 1, n, kUnbounded, false, rep);
  w->verify(args, ref, rep);
  add_layer_metrics(base_1, a, b, base_2, w->probe(), rep);
  return rep;
}

}  // namespace perfbench
