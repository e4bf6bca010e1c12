#pragma once
/// \file hacc.hpp
/// ExaSky/HACC (§3.4): particle-mesh cosmology with a short-range force
/// correction (P^3M-lite).
///
/// The functional pieces are real: cloud-in-cell deposit, FFT Poisson
/// solve, force interpolation, and the short-range pairwise kernel —
/// validated by momentum conservation and against direct summation. The
/// performance model carries the paper's observation that one of the six
/// gravity kernels was sensitive to the wavefront width (64 on AMD vs 32
/// on NVIDIA) because its interaction lists are built in 32-lane-friendly
/// chunks.

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "net/fabric.hpp"
#include "support/rng.hpp"

namespace exa::apps::exasky {

struct Particle {
  double x = 0.0, y = 0.0, z = 0.0;
  double vx = 0.0, vy = 0.0, vz = 0.0;
  double mass = 1.0;
};

/// Periodic unit-box particle set.
[[nodiscard]] std::vector<Particle> make_uniform_box(std::size_t count,
                                                     support::Rng& rng);

/// Direct O(n^2) periodic short-range forces with cutoff (reference).
void short_range_direct(const std::vector<Particle>& parts, double cutoff,
                        std::vector<std::array<double, 3>>& force);

/// Cell-list short-range forces (the production path); identical results.
void short_range_cells(const std::vector<Particle>& parts, double cutoff,
                       std::vector<std::array<double, 3>>& force);

/// Particle-mesh long-range step: CIC deposit onto an n^3 grid, k-space
/// Poisson solve (FFT), gradient, CIC force interpolation. Returns the
/// long-range force per particle.
void pm_long_range(const std::vector<Particle>& parts, std::size_t grid_n,
                   std::vector<std::array<double, 3>>& force);

/// CIC mass deposit only (exposed for conservation tests).
[[nodiscard]] std::vector<double> cic_deposit(
    const std::vector<Particle>& parts, std::size_t grid_n);

/// Kick-drift-kick leapfrog step under the short-range force (cell-list
/// path). Symplectic and exactly time-reversible (the test property).
void leapfrog_step(std::vector<Particle>& parts, double cutoff, double dt);

/// Kinetic + short-range potential energy (softened, within cutoff).
[[nodiscard]] double total_energy(const std::vector<Particle>& parts,
                                  double cutoff);

// --- performance model ----------------------------------------------------

/// The six gravity kernels of the HACC short/long-range pipeline.
struct GravityKernelTime {
  std::string name;
  double seconds = 0.0;
};

struct StepModel {
  std::vector<GravityKernelTime> kernels;
  double comm_s = 0.0;
  double total_s = 0.0;
  double fom = 0.0;  ///< particle-steps per second across the whole run
};

/// Simulation flavors the ExaSky campaign runs (§3.4): gravity-only
/// large-volume runs and hydrodynamic runs with extra SPH-style kernels.
enum class SimKind { kGravityOnly, kHydro };

/// One full timestep on `nodes` nodes of `machine` with `particles_per_rank`
/// particles per device rank. The PM-transpose alltoall and the particle
/// overload halo go through the topology-aware fabric; the default
/// `fabric` config prices them with the calibrated LogGP closed forms.
[[nodiscard]] StepModel step_model(const arch::Machine& machine, int nodes,
                                   double particles_per_rank,
                                   SimKind kind = SimKind::kGravityOnly,
                                   const net::FabricConfig& fabric = {});

/// Per-kernel V100-vs-MI250X comparison: returns the speed-up of each of
/// the six kernels moving Summit -> Frontier (per device). The chunked
/// tree-walk kernel is the one the wavefront width hurts.
[[nodiscard]] std::vector<std::pair<std::string, double>>
per_kernel_speedups();

}  // namespace exa::apps::exasky
