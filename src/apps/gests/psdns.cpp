#include "apps/gests/psdns.hpp"

#include <algorithm>
#include <cmath>

#include "io/checkpoint.hpp"
#include "mathlib/device_blas.hpp"
#include "net/fabric.hpp"
#include "sim/exec_model.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace exa::apps::gests {

namespace {

/// Local FFTs along each axis of a brick (z contiguous, y stride nz,
/// x stride ny*nz).
void fft_axis_z(Brick& b, bool inverse) {
  ml::fft_batch(b.data, b.nz, b.nx * b.ny, inverse);
}

void fft_axis_y(Brick& b, bool inverse) {
  // Each (x, z) pencil is independent; chunks carry their own line buffer.
  support::ThreadPool::global().for_chunks(
      0, b.nx * b.nz, [&](std::size_t lo, std::size_t hi) {
        std::vector<zcomplex> line(b.ny);
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::size_t x = idx / b.nz;
          const std::size_t z = idx % b.nz;
          for (std::size_t y = 0; y < b.ny; ++y) line[y] = b.at(x, y, z);
          ml::fft(line, inverse);
          for (std::size_t y = 0; y < b.ny; ++y) b.at(x, y, z) = line[y];
        }
      });
}

void fft_axis_x(Brick& b, bool inverse) {
  support::ThreadPool::global().for_chunks(
      0, b.ny * b.nz, [&](std::size_t lo, std::size_t hi) {
        std::vector<zcomplex> line(b.nx);
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::size_t y = idx / b.nz;
          const std::size_t z = idx % b.nz;
          for (std::size_t x = 0; x < b.nx; ++x) line[x] = b.at(x, y, z);
          ml::fft(line, inverse);
          for (std::size_t x = 0; x < b.nx; ++x) b.at(x, y, z) = line[x];
        }
      });
}

}  // namespace

// --- SlabField -----------------------------------------------------------------

SlabField::SlabField(std::vector<zcomplex> global, std::size_t n, int ranks)
    : n_(n) {
  EXA_REQUIRE(ml::is_pow2(n));
  EXA_REQUIRE(ranks >= 1 && n % static_cast<std::size_t>(ranks) == 0);
  EXA_REQUIRE(global.size() == n * n * n);
  const std::size_t ln = n / static_cast<std::size_t>(ranks);
  bricks_.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    Brick& b = bricks_[static_cast<std::size_t>(r)];
    b.nx = ln;
    b.ny = n;
    b.nz = n;
    b.x0 = static_cast<std::size_t>(r) * ln;
    b.data.assign(global.begin() + static_cast<std::ptrdiff_t>(b.x0 * n * n),
                  global.begin() +
                      static_cast<std::ptrdiff_t>((b.x0 + ln) * n * n));
  }
}

void SlabField::transpose_x_to_y() {
  EXA_REQUIRE(x_split_);
  const std::size_t P = bricks_.size();
  const std::size_t ln = n_ / P;
  std::vector<Brick> out(P);
  for (std::size_t s = 0; s < P; ++s) {
    Brick& d = out[s];
    d.nx = n_;
    d.ny = ln;
    d.nz = n_;
    d.y0 = s * ln;
    d.data.assign(n_ * ln * n_, zcomplex{});
  }
  // The alltoall: rank r's local x-slab contributes its y in [s*ln, ...)
  // to rank s.
  for (std::size_t r = 0; r < P; ++r) {
    const Brick& src = bricks_[r];
    for (std::size_t s = 0; s < P; ++s) {
      Brick& dst = out[s];
      if (s != r) {
        bytes_transposed_ +=
            static_cast<double>(src.nx * ln * n_) * sizeof(zcomplex);
      }
      for (std::size_t x = 0; x < src.nx; ++x) {
        for (std::size_t y = 0; y < ln; ++y) {
          for (std::size_t z = 0; z < n_; ++z) {
            dst.at(src.x0 + x, y, z) = src.at(x, dst.y0 + y, z);
          }
        }
      }
    }
  }
  bricks_ = std::move(out);
  x_split_ = false;
  ++transposes_;
}

void SlabField::transpose_y_to_x() {
  EXA_REQUIRE(!x_split_);
  const std::size_t P = bricks_.size();
  const std::size_t ln = n_ / P;
  std::vector<Brick> out(P);
  for (std::size_t s = 0; s < P; ++s) {
    Brick& d = out[s];
    d.nx = ln;
    d.ny = n_;
    d.nz = n_;
    d.x0 = s * ln;
    d.data.assign(ln * n_ * n_, zcomplex{});
  }
  for (std::size_t r = 0; r < P; ++r) {
    const Brick& src = bricks_[r];
    for (std::size_t s = 0; s < P; ++s) {
      Brick& dst = out[s];
      if (s != r) {
        bytes_transposed_ +=
            static_cast<double>(ln * src.ny * n_) * sizeof(zcomplex);
      }
      for (std::size_t x = 0; x < ln; ++x) {
        for (std::size_t y = 0; y < src.ny; ++y) {
          for (std::size_t z = 0; z < n_; ++z) {
            dst.at(x, src.y0 + y, z) = src.at(dst.x0 + x, y, z);
          }
        }
      }
    }
  }
  bricks_ = std::move(out);
  x_split_ = true;
  ++transposes_;
}

void SlabField::fft3d(bool inverse) {
  if (!inverse) {
    EXA_REQUIRE_MSG(x_split_, "forward transform expects x-split layout");
    for (Brick& b : bricks_) {
      fft_axis_z(b, false);
      fft_axis_y(b, false);
    }
    transpose_x_to_y();
    for (Brick& b : bricks_) fft_axis_x(b, false);
  } else {
    EXA_REQUIRE_MSG(!x_split_, "inverse transform expects y-split layout");
    for (Brick& b : bricks_) fft_axis_x(b, true);
    transpose_y_to_x();
    for (Brick& b : bricks_) {
      fft_axis_y(b, true);
      fft_axis_z(b, true);
    }
  }
}

std::vector<zcomplex> SlabField::gather() const {
  std::vector<zcomplex> g(n_ * n_ * n_);
  for (const Brick& b : bricks_) {
    for (std::size_t x = 0; x < b.nx; ++x) {
      for (std::size_t y = 0; y < b.ny; ++y) {
        for (std::size_t z = 0; z < b.nz; ++z) {
          g[((b.x0 + x) * n_ + (b.y0 + y)) * n_ + z] = b.at(x, y, z);
        }
      }
    }
  }
  return g;
}

// --- PencilField ------------------------------------------------------------

PencilField::PencilField(std::vector<zcomplex> global, std::size_t n, int rows,
                         int cols)
    : n_(n), rows_(rows), cols_(cols) {
  EXA_REQUIRE(ml::is_pow2(n));
  EXA_REQUIRE(rows >= 1 && cols >= 1);
  EXA_REQUIRE(n % static_cast<std::size_t>(rows) == 0 &&
              n % static_cast<std::size_t>(cols) == 0);
  EXA_REQUIRE(global.size() == n * n * n);
  const std::size_t lnx = n / static_cast<std::size_t>(rows);
  const std::size_t lny = n / static_cast<std::size_t>(cols);
  bricks_.resize(static_cast<std::size_t>(rows * cols));
  for (int a = 0; a < rows; ++a) {
    for (int b = 0; b < cols; ++b) {
      Brick& brick = bricks_[static_cast<std::size_t>(a * cols + b)];
      brick.nx = lnx;
      brick.ny = lny;
      brick.nz = n;
      brick.x0 = static_cast<std::size_t>(a) * lnx;
      brick.y0 = static_cast<std::size_t>(b) * lny;
      brick.data.resize(lnx * lny * n);
      for (std::size_t x = 0; x < lnx; ++x) {
        for (std::size_t y = 0; y < lny; ++y) {
          for (std::size_t z = 0; z < n; ++z) {
            brick.at(x, y, z) =
                global[((brick.x0 + x) * n + (brick.y0 + y)) * n + z];
          }
        }
      }
    }
  }
}

void PencilField::fft3d(bool inverse) {
  const std::size_t lnx = n_ / static_cast<std::size_t>(rows_);
  const std::size_t lny = n_ / static_cast<std::size_t>(cols_);
  const std::size_t lnz = n_ / static_cast<std::size_t>(cols_);
  const std::size_t lny2 = n_ / static_cast<std::size_t>(rows_);

  // Transpose 1 (within a row group, y <-> z): (lnx, lny, N) <-> (lnx, N, lnz).
  const auto transpose_yz = [&](bool forward) {
    std::vector<Brick> out(bricks_.size());
    for (int a = 0; a < rows_; ++a) {
      for (int b = 0; b < cols_; ++b) {
        Brick& d = out[static_cast<std::size_t>(a * cols_ + b)];
        if (forward) {
          d.nx = lnx;
          d.ny = n_;
          d.nz = lnz;
          d.x0 = static_cast<std::size_t>(a) * lnx;
          d.y0 = static_cast<std::size_t>(b) * lnz;  // reused as z offset
        } else {
          d.nx = lnx;
          d.ny = lny;
          d.nz = n_;
          d.x0 = static_cast<std::size_t>(a) * lnx;
          d.y0 = static_cast<std::size_t>(b) * lny;
        }
        d.data.assign(d.nx * d.ny * d.nz, zcomplex{});
      }
    }
    for (int a = 0; a < rows_; ++a) {
      for (int b = 0; b < cols_; ++b) {
        const Brick& src = bricks_[static_cast<std::size_t>(a * cols_ + b)];
        for (int s = 0; s < cols_; ++s) {
          Brick& dst = out[static_cast<std::size_t>(a * cols_ + s)];
          if (forward) {
            // src has y local [b*lny), z full; dst wants z in [s*lnz).
            for (std::size_t x = 0; x < lnx; ++x) {
              for (std::size_t y = 0; y < lny; ++y) {
                for (std::size_t z = 0; z < lnz; ++z) {
                  dst.at(x, src.y0 + y, z) =
                      src.at(x, y, static_cast<std::size_t>(s) * lnz + z);
                }
              }
            }
          } else {
            // src has y full, z local [b*lnz); dst wants y in [s*lny).
            for (std::size_t x = 0; x < lnx; ++x) {
              for (std::size_t y = 0; y < lny; ++y) {
                for (std::size_t z = 0; z < lnz; ++z) {
                  dst.at(x, y, src.y0 + z) =
                      src.at(x, static_cast<std::size_t>(s) * lny + y, z);
                }
              }
            }
          }
        }
      }
    }
    bricks_ = std::move(out);
    ++transposes_;
  };

  // Transpose 2 (within a column group, x <-> y): (lnx, N, lnz) <-> (N, lny2, lnz).
  const auto transpose_xy = [&](bool forward) {
    std::vector<Brick> out(bricks_.size());
    for (int a = 0; a < rows_; ++a) {
      for (int b = 0; b < cols_; ++b) {
        Brick& d = out[static_cast<std::size_t>(a * cols_ + b)];
        if (forward) {
          d.nx = n_;
          d.ny = lny2;
          d.nz = lnz;
          d.x0 = static_cast<std::size_t>(a) * lny2;  // reused as y offset
          d.y0 = static_cast<std::size_t>(b) * lnz;   // z offset
        } else {
          d.nx = lnx;
          d.ny = n_;
          d.nz = lnz;
          d.x0 = static_cast<std::size_t>(a) * lnx;
          d.y0 = static_cast<std::size_t>(b) * lnz;
        }
        d.data.assign(d.nx * d.ny * d.nz, zcomplex{});
      }
    }
    for (int a = 0; a < rows_; ++a) {
      for (int b = 0; b < cols_; ++b) {
        const Brick& src = bricks_[static_cast<std::size_t>(a * cols_ + b)];
        for (int s = 0; s < rows_; ++s) {
          Brick& dst = out[static_cast<std::size_t>(s * cols_ + b)];
          if (forward) {
            // src: x local [a*lnx), y full; dst wants y in [s*lny2), x full.
            for (std::size_t x = 0; x < lnx; ++x) {
              for (std::size_t y = 0; y < lny2; ++y) {
                for (std::size_t z = 0; z < lnz; ++z) {
                  dst.at(src.x0 + x, y, z) =
                      src.at(x, static_cast<std::size_t>(s) * lny2 + y, z);
                }
              }
            }
          } else {
            // src: y local [a*lny2), x full; dst wants x in [s*lnx), y full.
            for (std::size_t x = 0; x < lnx; ++x) {
              for (std::size_t y = 0; y < lny2; ++y) {
                for (std::size_t z = 0; z < lnz; ++z) {
                  dst.at(x, src.x0 + y, z) =
                      src.at(static_cast<std::size_t>(s) * lnx + x, y, z);
                }
              }
            }
          }
        }
      }
    }
    bricks_ = std::move(out);
    ++transposes_;
  };

  if (!inverse) {
    EXA_REQUIRE_MSG(state_ == 0, "forward transform expects (x,y)-split");
    for (Brick& b : bricks_) fft_axis_z(b, false);
    transpose_yz(true);
    state_ = 1;
    for (Brick& b : bricks_) fft_axis_y(b, false);
    transpose_xy(true);
    state_ = 2;
    for (Brick& b : bricks_) fft_axis_x(b, false);
  } else {
    EXA_REQUIRE_MSG(state_ == 2, "inverse transform expects (y,z)-split");
    for (Brick& b : bricks_) fft_axis_x(b, true);
    transpose_xy(false);
    state_ = 1;
    for (Brick& b : bricks_) fft_axis_y(b, true);
    transpose_yz(false);
    state_ = 0;
    for (Brick& b : bricks_) fft_axis_z(b, true);
  }
}

std::vector<zcomplex> PencilField::gather() const {
  std::vector<zcomplex> g(n_ * n_ * n_);
  for (const Brick& b : bricks_) {
    for (std::size_t x = 0; x < b.nx; ++x) {
      for (std::size_t y = 0; y < b.ny; ++y) {
        for (std::size_t z = 0; z < b.nz; ++z) {
          std::size_t gx = x, gy = y, gz = z;
          if (state_ == 0) {
            gx += b.x0;
            gy += b.y0;
          } else if (state_ == 1) {
            gx += b.x0;
            gz += b.y0;  // y0 reused as z offset
          } else {
            gy += b.x0;  // x0 reused as y offset
            gz += b.y0;
          }
          g[(gx * n_ + gy) * n_ + gz] = b.at(x, y, z);
        }
      }
    }
  }
  return g;
}

// --- timing model ---------------------------------------------------------

int max_nodes(const arch::Machine& machine, std::size_t n, Decomposition d,
              int ranks_per_node) {
  if (ranks_per_node == 0) ranks_per_node = machine.node.gpus_per_node;
  EXA_REQUIRE(ranks_per_node > 0);
  const double limit =
      d == Decomposition::kSlabs
          ? static_cast<double>(n)
          : static_cast<double>(n) * static_cast<double>(n);
  const int by_limit = static_cast<int>(limit / ranks_per_node);
  return std::min(machine.node_count, std::max(1, by_limit));
}

StepTime step_time(const arch::Machine& machine, int nodes,
                   const PsdnsConfig& config) {
  EXA_REQUIRE(machine.node.has_gpu());
  EXA_REQUIRE(nodes >= 1 && nodes <= machine.node_count);
  const arch::GpuArch& gpu = *machine.node.gpu;
  const int rpn = config.ranks_per_node > 0 ? config.ranks_per_node
                                            : machine.node.gpus_per_node;
  const double P = static_cast<double>(nodes) * rpn;
  const double N = static_cast<double>(config.n);

  // Decomposition rank limits (§3.3).
  if (config.decomp == Decomposition::kSlabs) {
    EXA_REQUIRE_MSG(P <= N, "Slabs version is limited to N MPI ranks");
  } else {
    EXA_REQUIRE_MSG(P <= N * N, "Pencils version is limited to N^2 ranks");
  }

  // The alltoall transposes go through the topology-aware fabric; with the
  // default (quiet) config it prices the calibrated LogGP closed form.
  const net::Fabric comm(machine, rpn, config.fabric);

  // Local FFT work per rank per 3-D transform: three axis sweeps of
  // N^2/P lines each.
  const auto lines_per_rank = static_cast<std::size_t>(
      std::max(1.0, N * N / P));
  sim::LaunchConfig launch;
  launch.block_threads = 256;
  launch.blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(N * N * N / P / 1024.0));
  const sim::KernelProfile fftp = ml::fft_profile(gpu, config.n, lines_per_rank);
  const double fft_axis_s = sim::kernel_timing(gpu, fftp, launch).total_s;
  const double fft_per_transform = 3.0 * fft_axis_s;

  // Transposes per transform: the Slabs version needs one fewer
  // communication cycle than Pencils.
  double transpose_per_transform = 0.0;
  const double field_bytes = N * N * N * 16.0;
  if (config.decomp == Decomposition::kSlabs) {
    const int group = static_cast<int>(P);
    const double per_pair = field_bytes / (P * P);
    transpose_per_transform = comm.alltoall(per_pair, group);
  } else {
    const int rows = static_cast<int>(std::round(std::sqrt(P)));
    const int cols = static_cast<int>(P) / std::max(1, rows);
    const double bytes_per_rank = field_bytes / P;
    transpose_per_transform =
        comm.alltoall(bytes_per_rank / std::max(1, cols), cols) +
        comm.alltoall(bytes_per_rank / std::max(1, rows), rows);
  }

  // Pointwise work (nonlinear term, dealiasing): ~6 full-field sweeps per
  // step, managed by OpenMP offload in the real code. One sweep reads and
  // writes the local field once.
  sim::KernelProfile pw;
  pw.name = "nonlinear_pointwise";
  pw.add_flops(arch::DType::kF64, 8.0 * N * N * N / P);
  pw.bytes_read = 16.0 * N * N * N / P;
  pw.bytes_written = 16.0 * N * N * N / P;
  pw.memory_efficiency = 0.8;
  const double pointwise_s = 6.0 * sim::kernel_timing(gpu, pw, launch).total_s;

  StepTime t;
  t.fft_s = config.transforms_per_step * fft_per_transform;
  t.transpose_s = config.transforms_per_step * transpose_per_transform;
  t.pointwise_s = pointwise_s;
  // Velocity-field dump every `field_dump_interval` steps: each rank
  // writes its N^3/P share of the complex field through the storage
  // model, amortized per step. Exactly 0.0 with the quiet default.
  if (config.field_dump_interval > 0) {
    const double dump_s = io::checkpoint_time(
        config.io, static_cast<int>(P), field_bytes / P);
    t.io_s = dump_s / config.field_dump_interval;
  }
  t.fom = N * N * N / t.total();
  return t;
}

}  // namespace exa::apps::gests
