#pragma once
/// \file cg.hpp
/// Sparse conjugate-gradient mini-app — the sixth service workload.
///
/// Ginkgo's CUDA→HIP porting testimonial (arxiv 2006.14290) made the
/// sparse-solver motif — CSR SpMV inside a Krylov loop — a first-class
/// readiness story alongside the paper's five applications. This module
/// implements that motif for real: a 27-point-stencil CSR matrix on a
/// structured grid (strictly diagonally dominant, hence SPD), a
/// deterministic parallel SpMV, and a plain CG solve whose iteration
/// counts feed the same DeviceSim/fabric pricing pattern the LAMMPS QEq
/// driver uses. Both halves are bitwise deterministic at any EXA_THREADS.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/machine.hpp"
#include "net/fabric.hpp"

namespace exa::apps::sparse {

/// CSR symmetric positive-definite stencil matrix.
struct StencilMatrix {
  std::size_t n = 0;                 ///< rows (= grid points)
  std::vector<std::size_t> row_ptr;  ///< CSR row offsets, size n + 1
  std::vector<std::size_t> col;      ///< CSR column indices
  std::vector<double> val;           ///< CSR values

  /// Stored nonzeros.
  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// Builds the 27-point stencil operator on an nx × ny × nz grid:
/// every grid point couples to its full 3×3×3 neighborhood with weight
/// −1/‖offset‖², and the diagonal adds a unit dominance margin on top of
/// the absolute off-diagonal sum — strictly diagonally dominant and
/// symmetric, therefore SPD.
[[nodiscard]] StencilMatrix build_stencil_matrix(std::size_t nx,
                                                 std::size_t ny,
                                                 std::size_t nz);

/// y = A·x. Rows write disjoint outputs through a row-local accumulator,
/// so the parallel result is bitwise identical to the serial loop at any
/// EXA_THREADS.
void spmv(const StencilMatrix& a, std::span<const double> x,
          std::span<double> y);

/// Cost ledger of one CG solve (the quantities the perf model prices).
struct CgStats {
  int iterations = 0;              ///< loop trips
  std::uint64_t matrix_reads = 0;  ///< times the CSR arrays were streamed
  int allreduces = 0;              ///< dot-product reduction phases
  bool converged = false;          ///< hit tol before max_iter
};

/// What one CG solve produced.
struct CgResult {
  std::vector<double> x;  ///< the solution
  CgStats stats;          ///< solver cost ledger
};

/// Plain conjugate gradient on A·x = b from a zero initial guess.
/// Converges when ‖r‖ ≤ tol·‖b‖; stops (converged = false) at max_iter.
[[nodiscard]] CgResult cg_solve(const StencilMatrix& a,
                                std::span<const double> b, double tol,
                                int max_iter);

/// Simulated cost of one CG solve on `machine`: per matrix read, a device
/// CSR SpMV (priced via ml::spmv_profile through sim::kernel_timing) plus
/// a halo exchange of the direction vector; per reduction phase, one
/// fabric allreduce of the fused dot products. All times in seconds.
struct SolveModel {
  double spmv_s = 0.0;    ///< one device SpMV sweep
  double reduce_s = 0.0;  ///< one dot-product allreduce
  double halo_s = 0.0;    ///< one direction-vector halo exchange
  double total_s = 0.0;   ///< full solve wall time
  double fom = 0.0;       ///< DOF·iterations per second across the allocation
};

/// Prices `stats` on `machine` with `rows_per_rank` unknowns (27 stored
/// nonzeros each) on every rank. The default (quiet) `fabric` config prices
/// the calibrated LogGP closed forms, keeping the model golden-stable.
[[nodiscard]] SolveModel solve_model(const arch::Machine& machine, int nodes,
                                     std::size_t rows_per_rank,
                                     const CgStats& stats,
                                     const net::FabricConfig& fabric = {});

}  // namespace exa::apps::sparse
