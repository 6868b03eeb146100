#include "linalg/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/errors.hpp"
#include "linalg/chunked.hpp"
#include "obs/metrics.hpp"

namespace tacos {

double norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& A) {
  const std::vector<double> diag = A.diagonal();
  inv_diag_.resize(diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    if (diag[i] <= 0.0)
      throw SolverError("pcg", 0, 0.0,
                        "non-positive diagonal at row " + std::to_string(i) +
                            " — matrix not SPD-assembled");
    inv_diag_[i] = 1.0 / diag[i];
  }
}

double JacobiPreconditioner::apply_dot(const std::vector<double>& r,
                                       std::vector<double>& z) {
  const std::size_t n = inv_diag_.size();
  return reduce_chunks(n, chunk_pool(n), partials_,
                       [&](std::size_t lo, std::size_t hi) {
                         double acc = 0.0;
                         for (std::size_t i = lo; i < hi; ++i) {
                           z[i] = inv_diag_[i] * r[i];
                           acc += r[i] * z[i];
                         }
                         return acc;
                       });
}

double LowRankDowndate::apply(const std::vector<double>& x,
                              std::vector<double>& y) const {
  double quad = 0.0;
  for (std::size_t t = 0; t < coef.size(); ++t) {
    double s = 0.0;
    for (std::size_t k = start[t]; k < start[t + 1]; ++k)
      s += weight[k] * x[index[k]];
    quad += coef[t] * s * s;
    const double cs = coef[t] * s;
    for (std::size_t k = start[t]; k < start[t + 1]; ++k)
      y[index[k]] -= cs * weight[k];
  }
  return quad;
}

namespace {

/// One histogram across every PCG invocation: the preconditioner A/B
/// story (`--precond=jacobi|mg`) reads directly off this distribution.
void record_pcg_iterations(const SolveResult& res) {
  if (!obs::metrics_enabled()) return;
  static obs::Histogram iters = obs::MetricsRegistry::global().histogram(
      "pcg.iterations", obs::pow2_edges(1, 4096));
  iters.observe(static_cast<double>(res.iterations));
}

}  // namespace

SolveResult solve_pcg(const CsrMatrix& A, const std::vector<double>& b,
                      std::vector<double>& x, const SolveOptions& opts) {
  const std::size_t n = A.rows();
  if (b.size() != n || x.size() != n)
    throw SolverError("pcg", 0, 0.0, "dimension mismatch: matrix has " +
                                         std::to_string(n) + " rows, b " +
                                         std::to_string(b.size()) + ", x " +
                                         std::to_string(x.size()));

  ThreadPool* const par = chunk_pool(n);

  // The preconditioner: injected (ThermalModel's multigrid hierarchy) or
  // the built-in Jacobi fallback.  Jacobi reproduces the historical fused
  // D⁻¹-apply pass exactly, so existing results are bit-identical.
  std::unique_ptr<JacobiPreconditioner> own_jacobi;
  Preconditioner* precond = opts.preconditioner;
  if (!precond) {
    own_jacobi = std::make_unique<JacobiPreconditioner>(A);
    precond = own_jacobi.get();
  }

  std::vector<double> r(n), z(n), p(n), Ap(n);
  std::vector<double> partials;

  const LowRankDowndate* const dd = opts.downdate;
  const auto residual_from_Ap = [&](std::size_t lo, std::size_t hi) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      r[i] = b[i] - Ap[i];
      acc += r[i] * r[i];
    }
    return acc;
  };
  // r = b - A x, with ||r||^2 in the same pass.  A downdate is applied
  // serially between the SpMV and the residual pass.
  double rr;
  if (dd) {
    for_chunks(n, par, [&](std::size_t lo, std::size_t hi) {
      spmv_rows(A, x, Ap, lo, hi);
    });
    dd->apply(x, Ap);
    rr = reduce_chunks(n, par, partials, residual_from_Ap);
  } else {
    rr = reduce_chunks(n, par, partials, [&](std::size_t lo, std::size_t hi) {
      spmv_rows(A, x, Ap, lo, hi);
      return residual_from_Ap(lo, hi);
    });
  }

  const double b_norm = std::sqrt(reduce_chunks(
      n, par, partials, [&](std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += b[i] * b[i];
        return acc;
      }));
  const double threshold = opts.rel_tolerance * (b_norm > 0 ? b_norm : 1.0);

  SolveResult res;
  double r_norm = std::sqrt(rr);
  if (r_norm <= threshold) {
    res.converged = true;
    res.residual_norm = b_norm > 0 ? r_norm / b_norm : r_norm;
    record_pcg_iterations(res);
    return res;
  }

  // z = M^{-1} r with rz = r·z fused inside the preconditioner apply.
  double rz = precond->apply_dot(r, z);
  p = z;

  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    if (opts.cancel) opts.cancel->poll();
    // Ap = A p and pAp = p·Ap in one pass over the matrix; a downdate
    // then subtracts its (serial, term-ordered) share from both.
    double pAp =
        reduce_chunks(n, par, partials, [&](std::size_t lo, std::size_t hi) {
          spmv_rows(A, p, Ap, lo, hi);
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) acc += p[i] * Ap[i];
          return acc;
        });
    if (dd) pAp -= dd->apply(p, Ap);
    if (!(pAp > 0.0)) {
      std::ostringstream os;
      os << "matrix is not positive definite (pAp=" << pAp << ")";
      throw SolverError("pcg", it, b_norm > 0 ? r_norm / b_norm : r_norm,
                        os.str());
    }
    const double alpha = rz / pAp;

    // x += alpha p, r -= alpha Ap, and ||r||^2 fused into one pass.
    rr = reduce_chunks(n, par, partials,
                       [&](std::size_t lo, std::size_t hi) {
                         double acc = 0.0;
                         for (std::size_t i = lo; i < hi; ++i) {
                           x[i] += alpha * p[i];
                           r[i] -= alpha * Ap[i];
                           acc += r[i] * r[i];
                         }
                         return acc;
                       });
    r_norm = std::sqrt(rr);
    if (r_norm <= threshold) {
      res.converged = true;
      res.iterations = it;
      res.residual_norm = b_norm > 0 ? r_norm / b_norm : r_norm;
      record_pcg_iterations(res);
      return res;
    }

    // z = M^{-1} r with rz_new = r·z fused inside the preconditioner apply.
    const double rz_new = precond->apply_dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for_chunks(n, par, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  res.converged = false;
  res.iterations = opts.max_iterations;
  res.residual_norm = b_norm > 0 ? r_norm / b_norm : r_norm;
  record_pcg_iterations(res);
  return res;
}

SolveResult solve_gauss_seidel(const CsrMatrix& A, const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveOptions& opts) {
  const std::size_t n = A.rows();
  if (b.size() != n || x.size() != n)
    throw SolverError("gauss-seidel", 0, 0.0, "dimension mismatch");
  TACOS_CHECK(opts.residual_check_interval >= 1,
              "residual_check_interval must be >= 1");
  TACOS_CHECK(!opts.downdate, "Gauss-Seidel cannot apply a matrix-free "
                              "downdate (it needs explicit rows)");
  const auto& rp = A.row_ptr();
  const auto& ci = A.col_idx();
  const auto& v = A.values();

  const double b_norm = norm2(b);
  const double threshold = opts.rel_tolerance * (b_norm > 0 ? b_norm : 1.0);

  SolveResult res;
  std::vector<double> r(n);
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    if (opts.cancel) opts.cancel->poll();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[i];
      double diag = 0.0;
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (ci[k] == i)
          diag = v[k];
        else
          acc -= v[k] * x[ci[k]];
      }
      if (diag == 0.0)
        throw SolverError("gauss-seidel", it, 0.0,
                          "zero diagonal at row " + std::to_string(i));
      x[i] = acc / diag;
    }
    // GS is tests-only, but the full residual (an extra SpMV) every sweep
    // dominated its runtime; check it only every residual_check_interval
    // sweeps and on the final sweep.  Convergence may thus be detected up
    // to interval-1 sweeps late; the reported state is still converged.
    if (it % opts.residual_check_interval != 0 && it != opts.max_iterations)
      continue;
    A.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    const double r_norm = norm2(r);
    if (r_norm <= threshold) {
      res.converged = true;
      res.iterations = it;
      res.residual_norm = b_norm > 0 ? r_norm / b_norm : r_norm;
      return res;
    }
  }
  res.converged = false;
  res.iterations = opts.max_iterations;
  A.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  res.residual_norm = b_norm > 0 ? norm2(r) / b_norm : norm2(r);
  return res;
}

SolveResult solve_adjoint(const CsrMatrix& A, const std::vector<double>& b,
                          std::vector<double>& lambda,
                          const SolveOptions& opts) {
  // A is SPD (asserted structurally by the preconditioners): Aᵀ = A, so
  // the adjoint solve is a plain forward solve.
  return solve_pcg(A, b, lambda, opts);
}

}  // namespace tacos
