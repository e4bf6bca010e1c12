#pragma once
/// \file psdns.hpp
/// GESTS (§3.3): Pseudo-Spectral Direct Numerical Simulation of turbulence
/// built around a custom distributed 3-D FFT.
///
/// Two domain decompositions are implemented, as in the paper:
///  * **Slabs** (1-D): rank limit P <= N, one distributed transpose per
///    3-D transform — more efficient;
///  * **Pencils** (2-D): rank limit P <= N^2, two transposes per transform
///    — scales further when memory-per-node binds.
///
/// The decompositions are *functionally real*: per-rank bricks, explicit
/// alltoall pack/unpack transposes, local FFTs — verified against the
/// direct single-brick fft3d. The exascale-sized runs use the same comm
/// volumes/compute counts through the analytic machine models.

#include <complex>
#include <cstddef>
#include <vector>

#include "arch/machine.hpp"
#include "io/io_model.hpp"
#include "mathlib/fft.hpp"
#include "net/fabric.hpp"

namespace exa::apps::gests {

using ml::zcomplex;

/// Per-rank brick of a distributed (nx, ny, nz) row-major field.
struct Brick {
  std::size_t nx = 0, ny = 0, nz = 0;  ///< local extents
  std::size_t x0 = 0, y0 = 0;          ///< global offsets (z never split)
  std::vector<zcomplex> data;

  [[nodiscard]] zcomplex& at(std::size_t x, std::size_t y, std::size_t z) {
    return data[(x * ny + y) * nz + z];
  }
  [[nodiscard]] const zcomplex& at(std::size_t x, std::size_t y,
                                   std::size_t z) const {
    return data[(x * ny + y) * nz + z];
  }
};

/// A functional distributed field under slab (1-D, split in x) layout.
class SlabField {
 public:
  /// Scatters a global brick across `ranks` slabs; ranks must divide n.
  SlabField(std::vector<zcomplex> global, std::size_t n, int ranks);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] int ranks() const { return static_cast<int>(bricks_.size()); }

  /// Distributed forward/inverse 3-D FFT: local 2-D transforms, one
  /// alltoall transpose, local 1-D transforms. Counts transposes.
  void fft3d(bool inverse);
  [[nodiscard]] int transposes() const { return transposes_; }
  /// Bytes that crossed rank boundaries in transposes so far (validates
  /// the analytic alltoall volume: N^3 * 16 * (P-1)/P per transpose).
  [[nodiscard]] double bytes_transposed() const { return bytes_transposed_; }

  /// Gathers the field back into one global brick (x-major layout).
  [[nodiscard]] std::vector<zcomplex> gather() const;

 private:
  void transpose_x_to_y();  ///< (lnx, N, N) -> (N, lny, N)
  void transpose_y_to_x();

  std::size_t n_;
  bool x_split_ = true;  ///< current layout: split along x or along y
  std::vector<Brick> bricks_;
  int transposes_ = 0;
  double bytes_transposed_ = 0.0;
};

/// A functional distributed field under pencil (2-D, split in x and y)
/// layout. `rows x cols` rank grid; rows and cols must divide n.
class PencilField {
 public:
  PencilField(std::vector<zcomplex> global, std::size_t n, int rows, int cols);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] int ranks() const { return rows_ * cols_; }

  /// Distributed forward/inverse 3-D FFT with two transposes.
  void fft3d(bool inverse);
  [[nodiscard]] int transposes() const { return transposes_; }

  [[nodiscard]] std::vector<zcomplex> gather() const;

 private:
  std::size_t n_;
  int rows_, cols_;
  /// State 0: (x,y) split, z full. State 1: (x,z) split, y full.
  /// State 2: (y,z) split, x full.
  int state_ = 0;
  std::vector<Brick> bricks_;
  int transposes_ = 0;
};

// --- exascale timing model ----------------------------------------------------

enum class Decomposition { kSlabs, kPencils };

struct PsdnsConfig {
  std::size_t n = 1024;        ///< N^3 grid
  int ranks_per_node = 0;      ///< 0: one per device
  Decomposition decomp = Decomposition::kSlabs;
  int transforms_per_step = 9; ///< 3-D FFTs per RK substep sweep
  /// Network model knobs. The default (congestion and faults off) prices
  /// the calibrated LogGP closed forms, so baseline FOMs are golden-stable;
  /// flip `congestion` on to study transpose hotspots.
  net::FabricConfig fabric;
  /// Storage model for the velocity-field dumps the DNS campaigns write
  /// for spectra/statistics post-processing. The default quiet filesystem
  /// adds exactly zero time, keeping baseline FOMs golden-stable.
  io::IoConfig io;
  /// Steps between field dumps (count; 0 disables dumps).
  int field_dump_interval = 10;
};

struct StepTime {
  double fft_s = 0.0;
  double transpose_s = 0.0;
  double pointwise_s = 0.0;  ///< nonlinear term / dealiasing array ops
  double io_s = 0.0;         ///< amortized field-dump share
  [[nodiscard]] double total() const {
    return fft_s + transpose_s + pointwise_s + io_s;
  }
  /// The CAAR figure of merit: N^3 / t_wall.
  double fom = 0.0;
};

/// Per-timestep cost of the PSDNS solve on `machine` with `nodes` nodes.
/// Respects the decomposition rank limits (throws on violation).
[[nodiscard]] StepTime step_time(const arch::Machine& machine, int nodes,
                                 const PsdnsConfig& config);

/// Largest node count a decomposition admits for grid size n.
[[nodiscard]] int max_nodes(const arch::Machine& machine, std::size_t n,
                            Decomposition d, int ranks_per_node = 0);

}  // namespace exa::apps::gests
