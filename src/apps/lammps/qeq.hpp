#pragma once
/// \file qeq.hpp
/// Partial charge equilibration (QEq) for ReaxFF — §3.10.2's second
/// optimization. QEq solves two sparse SPD systems with the *same* matrix,
///     H s = -chi      and      H t = -1,
/// then forms charges q = s - (sum s / sum t) t. The historical code ran
/// two sequential CG solves; Aktulga et al.'s optimization iterates both
/// recurrences jointly so each loop trip reads the matrix once (halving
/// SpMV bandwidth) and each iteration's dot products share one allreduce
/// (halving the poorly-scaling communication).

#include <cstdint>
#include <span>
#include <vector>

#include "apps/lammps/system.hpp"
#include "arch/machine.hpp"
#include "net/fabric.hpp"

namespace exa::apps::lammps {

/// CSR symmetric positive-definite QEq matrix.
struct QeqMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;
  std::vector<std::size_t> col;
  std::vector<double> val;

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// Shielded-Coulomb interaction matrix over the neighbor list, made
/// strictly diagonally dominant (hence SPD) by the hardness diagonal.
[[nodiscard]] QeqMatrix build_qeq_matrix(const System& sys,
                                         const NeighborList& neigh,
                                         double cutoff);

void spmv(const QeqMatrix& a, std::span<const double> x, std::span<double> y);

/// Cost accounting for the solver comparison.
struct CgStats {
  int iterations = 0;           ///< loop trips
  std::uint64_t matrix_reads = 0;  ///< times the CSR arrays were streamed
  int allreduces = 0;           ///< communication phases
  bool converged = false;
};

/// Plain conjugate gradient on A x = b; x is the initial guess in, the
/// solution out. Converges when ||r|| <= tol * ||b||.
[[nodiscard]] CgStats cg_solve(const QeqMatrix& a, std::span<const double> b,
                               std::span<double> x, double tol, int max_iter);

/// Joint dual-RHS CG: both recurrences advance in one loop; each trip
/// streams the matrix once (a two-vector SpMV) and fuses the dot-product
/// reductions into a single allreduce.
[[nodiscard]] CgStats cg_solve_dual(const QeqMatrix& a,
                                    std::span<const double> b1,
                                    std::span<const double> b2,
                                    std::span<double> x1, std::span<double> x2,
                                    double tol, int max_iter);

struct QeqResult {
  std::vector<double> charges;  ///< sums to ~0
  CgStats stats;                ///< combined solver cost
};

/// Full charge equilibration via split (two sequential CGs) or fused
/// (joint dual CG) solver strategy. Both produce the same charges.
[[nodiscard]] QeqResult equilibrate(const System& sys, const QeqMatrix& h,
                                    bool fused, double tol = 1e-10,
                                    int max_iter = 2000);

/// Simulated per-equilibration wall time on `machine`: per loop trip, a
/// device SpMV (single- or dual-vector) plus the CG dot-product allreduce
/// across ranks. Collectives are issued through the topology-aware fabric;
/// the default `fabric` config prices the calibrated LogGP closed forms.
[[nodiscard]] double simulate_qeq_time(const arch::Machine& machine,
                                       std::size_t atoms_per_rank,
                                       std::size_t nnz_per_rank,
                                       const CgStats& stats, int vectors,
                                       int ranks,
                                       const net::FabricConfig& fabric = {});

}  // namespace exa::apps::lammps
