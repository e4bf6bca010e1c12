#include "apps/coast/apsp.hpp"

#include <algorithm>
#include <cmath>

#include "net/fabric.hpp"
#include "sim/occupancy.hpp"
#include "support/assert.hpp"

namespace exa::apps::coast {

DistMatrix make_knowledge_graph(std::size_t n, double avg_degree,
                                support::Rng& rng) {
  EXA_REQUIRE(n >= 2);
  EXA_REQUIRE(avg_degree > 0.0);
  DistMatrix m;
  m.n = n;
  m.d.assign(n * n, kInf);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 0.0f;

  // Ring backbone keeps the graph connected (literature graphs are).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const auto w = static_cast<float>(rng.uniform(0.5, 2.0));
    m.at(i, j) = std::min(m.at(i, j), w);
    m.at(j, i) = std::min(m.at(j, i), w);
  }
  // Preferential-flavored extra edges: hubs get more links, like SPOKE's
  // high-degree concept nodes.
  const auto extra = static_cast<std::size_t>(avg_degree * static_cast<double>(n) / 2.0);
  for (std::size_t e = 0; e < extra; ++e) {
    // Square the uniform to bias toward low indices (the "hubs").
    const double u = rng.uniform();
    const auto i = static_cast<std::size_t>(u * u * static_cast<double>(n));
    const auto j = rng.uniform_u64(n);
    if (i == j || i >= n) continue;
    const auto w = static_cast<float>(rng.uniform(0.2, 5.0));
    m.at(i, j) = std::min(m.at(i, j), w);
    m.at(j, i) = std::min(m.at(j, i), w);
  }
  return m;
}

void floyd_warshall_naive(DistMatrix& m) {
  const std::size_t n = m.n;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const float dik = m.at(i, k);
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const float cand = dik + m.at(k, j);
        if (cand < m.at(i, j)) m.at(i, j) = cand;
      }
    }
  }
}

void floyd_warshall_with_paths(DistMatrix& m, std::vector<std::size_t>& next) {
  const std::size_t n = m.n;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  next.assign(n * n, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && m.at(i, j) != kInf) next[i * n + j] = j;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const float dik = m.at(i, k);
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const float cand = dik + m.at(k, j);
        if (cand < m.at(i, j)) {
          m.at(i, j) = cand;
          next[i * n + j] = next[i * n + k];
        }
      }
    }
  }
}

std::vector<std::size_t> extract_path(const std::vector<std::size_t>& next,
                                      std::size_t n, std::size_t from,
                                      std::size_t to) {
  EXA_REQUIRE(from < n && to < n);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> path = {from};
  if (from == to) return path;
  if (next[from * n + to] == kNone) return {};
  std::size_t cur = from;
  while (cur != to) {
    cur = next[cur * n + to];
    EXA_ASSERT(cur != kNone);
    path.push_back(cur);
    EXA_REQUIRE_MSG(path.size() <= n, "cycle in shortest-path table");
  }
  return path;
}

void minplus_tile(const float* a, const float* b, float* c, std::size_t n,
                  std::size_t lda, std::size_t ldb, std::size_t ldc,
                  std::size_t tm, std::size_t tn, std::size_t tk) {
  (void)n;
  for (std::size_t i = 0; i < tm; ++i) {
    for (std::size_t k = 0; k < tk; ++k) {
      const float aik = a[i * lda + k];
      if (aik == kInf) continue;
      const float* brow = b + k * ldb;
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < tn; ++j) {
        const float cand = aik + brow[j];
        if (cand < crow[j]) crow[j] = cand;
      }
    }
  }
}

void floyd_warshall_blocked(DistMatrix& m, std::size_t tile) {
  const std::size_t n = m.n;
  EXA_REQUIRE_MSG(tile > 0 && n % tile == 0, "tile must divide n");
  const std::size_t nb = n / tile;
  float* d = m.d.data();
  const auto blk = [&](std::size_t bi, std::size_t bj) {
    return d + (bi * tile) * n + (bj * tile);
  };

  for (std::size_t kb = 0; kb < nb; ++kb) {
    // Phase 1: the pivot (diagonal) tile, dependent in k — iterate k inside.
    float* pivot = blk(kb, kb);
    for (std::size_t k = 0; k < tile; ++k) {
      for (std::size_t i = 0; i < tile; ++i) {
        const float dik = pivot[i * n + k];
        if (dik == kInf) continue;
        for (std::size_t j = 0; j < tile; ++j) {
          const float cand = dik + pivot[k * n + j];
          if (cand < pivot[i * n + j]) pivot[i * n + j] = cand;
        }
      }
    }
    // Phase 2: pivot row and pivot column tiles.
    for (std::size_t b = 0; b < nb; ++b) {
      if (b == kb) continue;
      // Row tile (kb, b): depends on pivot and itself, k inside.
      float* row = blk(kb, b);
      for (std::size_t k = 0; k < tile; ++k) {
        for (std::size_t i = 0; i < tile; ++i) {
          const float dik = pivot[i * n + k];
          if (dik == kInf) continue;
          for (std::size_t j = 0; j < tile; ++j) {
            const float cand = dik + row[k * n + j];
            if (cand < row[i * n + j]) row[i * n + j] = cand;
          }
        }
      }
      // Column tile (b, kb).
      float* colt = blk(b, kb);
      for (std::size_t k = 0; k < tile; ++k) {
        for (std::size_t i = 0; i < tile; ++i) {
          const float dik = colt[i * n + k];
          if (dik == kInf) continue;
          for (std::size_t j = 0; j < tile; ++j) {
            const float cand = dik + pivot[k * n + j];
            if (cand < colt[i * n + j]) colt[i * n + j] = cand;
          }
        }
      }
    }
    // Phase 3: remainder tiles — pure min-plus GEMM, fully parallel.
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (bi == kb) continue;
      for (std::size_t bj = 0; bj < nb; ++bj) {
        if (bj == kb) continue;
        minplus_tile(blk(bi, kb), blk(kb, bj), blk(bi, bj), n, n, n, n, tile,
                     tile, tile);
      }
    }
  }
}

DistributedApsp::DistributedApsp(const DistMatrix& m, std::size_t grid)
    : n_(m.n), grid_(grid) {
  EXA_REQUIRE(grid >= 1 && n_ % grid == 0);
  tile_n_ = n_ / grid;
  tiles_.resize(grid * grid);
  for (std::size_t bi = 0; bi < grid; ++bi) {
    for (std::size_t bj = 0; bj < grid; ++bj) {
      auto& t = tiles_[bi * grid + bj];
      t.resize(tile_n_ * tile_n_);
      for (std::size_t i = 0; i < tile_n_; ++i) {
        for (std::size_t j = 0; j < tile_n_; ++j) {
          t[i * tile_n_ + j] = m.at(bi * tile_n_ + i, bj * tile_n_ + j);
        }
      }
    }
  }
}

std::vector<float>& DistributedApsp::tile(std::size_t bi, std::size_t bj) {
  return tiles_[bi * grid_ + bj];
}

const std::vector<float>& DistributedApsp::tile(std::size_t bi,
                                                std::size_t bj) const {
  return tiles_[bi * grid_ + bj];
}

void DistributedApsp::solve() {
  const std::size_t tn = tile_n_;
  const double tile_bytes = static_cast<double>(tn * tn) * sizeof(float);

  // k-dependent update of tile `dst` using pivot-column tile `a` and
  // pivot-row tile `b` when any of them alias dst (phases 1 and 2 need k
  // innermost to respect the in-panel dependency).
  const auto dependent_update = [tn](const std::vector<float>& a,
                                     const std::vector<float>& b,
                                     std::vector<float>& dst) {
    for (std::size_t k = 0; k < tn; ++k) {
      for (std::size_t i = 0; i < tn; ++i) {
        const float dik = a[i * tn + k];
        if (dik == kInf) continue;
        for (std::size_t j = 0; j < tn; ++j) {
          const float cand = dik + b[k * tn + j];
          if (cand < dst[i * tn + j]) dst[i * tn + j] = cand;
        }
      }
    }
  };

  for (std::size_t kb = 0; kb < grid_; ++kb) {
    // Phase 1: the pivot rank updates its own tile.
    {
      std::vector<float>& pivot = tile(kb, kb);
      dependent_update(pivot, pivot, pivot);
    }
    // Broadcast the pivot tile along rank row kb and rank column kb.
    bytes_broadcast_ += 2.0 * (grid_ - 1) * tile_bytes;
    const std::vector<float> pivot = tile(kb, kb);  // the received copy

    // Phase 2: pivot-row and pivot-column ranks.
    for (std::size_t b = 0; b < grid_; ++b) {
      if (b == kb) continue;
      dependent_update(pivot, tile(kb, b), tile(kb, b));
      dependent_update(tile(b, kb), pivot, tile(b, kb));
    }
    // Broadcast: each pivot-column tile (i, kb) along rank row i; each
    // pivot-row tile (kb, j) along rank column j.
    bytes_broadcast_ += 2.0 * (grid_ - 1) * (grid_ - 1) * tile_bytes;

    // Phase 3: everyone else updates locally from the received tiles.
    for (std::size_t bi = 0; bi < grid_; ++bi) {
      if (bi == kb) continue;
      for (std::size_t bj = 0; bj < grid_; ++bj) {
        if (bj == kb) continue;
        minplus_tile(tile(bi, kb).data(), tile(kb, bj).data(),
                     tile(bi, bj).data(), n_, tn, tn, tn, tn, tn, tn);
      }
    }
    ++panels_;
  }
}

DistMatrix DistributedApsp::gather() const {
  DistMatrix m;
  m.n = n_;
  m.d.resize(n_ * n_);
  for (std::size_t bi = 0; bi < grid_; ++bi) {
    for (std::size_t bj = 0; bj < grid_; ++bj) {
      const auto& t = tile(bi, bj);
      for (std::size_t i = 0; i < tile_n_; ++i) {
        for (std::size_t j = 0; j < tile_n_; ++j) {
          m.at(bi * tile_n_ + i, bj * tile_n_ + j) = t[i * tile_n_ + j];
        }
      }
    }
  }
  return m;
}

std::string TileConfig::name() const {
  return "tile" + std::to_string(tile) + "_u" + std::to_string(unroll);
}

std::vector<TileConfig> tuning_space() {
  std::vector<TileConfig> space;
  for (const int tile : {16, 32, 64, 128}) {
    for (const int unroll : {1, 2, 4, 8}) {
      if (unroll > tile / 4) continue;  // need enough threads per tile
      space.push_back(TileConfig{tile, unroll});
    }
  }
  return space;
}

sim::KernelProfile minplus_profile(const arch::GpuArch& gpu,
                                   const TileConfig& cfg, std::size_t n) {
  (void)gpu;
  const double dn = static_cast<double>(n);
  sim::KernelProfile p;
  p.name = "minplus_" + cfg.name();
  // One k-panel pass: n^2 * tile relaxations, 2 ops each (add + min) —
  // the Gordon Bell flop convention. No FMA fusion possible.
  p.add_flops_nofma(arch::DType::kF32,
                    2.0 * dn * dn * static_cast<double>(cfg.tile));
  // Each tile of C reads a tile-column of A and tile-row of B through LDS.
  const double tiles = (dn / cfg.tile) * (dn / cfg.tile);
  p.bytes_read = tiles * 2.0 * static_cast<double>(cfg.tile) * cfg.tile * 4.0 +
                 dn * dn * 4.0;
  p.bytes_written = dn * dn * 4.0;
  // Register sub-tiling: unroll^2 accumulators plus operand staging.
  p.registers_per_thread = 24 + 3 * cfg.unroll * cfg.unroll;
  p.lds_per_block_bytes =
      2ull * static_cast<std::uint64_t>(cfg.tile) * cfg.tile * 4ull;
  // Instruction-mix quality grows with register blocking (fewer LDS reads
  // per relaxation) and with tile size (fewer redundant loads).
  double eff = 0.45;
  if (cfg.tile >= 32) eff += 0.12;
  if (cfg.tile >= 64) eff += 0.08;
  if (cfg.unroll >= 2) eff += 0.15;
  if (cfg.unroll >= 4) eff += 0.10;
  if (cfg.unroll >= 8) eff -= 0.05;  // operand staging starts to thrash
  p.compute_efficiency = std::min(eff, 0.92);
  p.memory_efficiency = 0.8;
  return p;
}

TuneResult autotune(const arch::GpuArch& gpu, std::size_t n) {
  TuneResult result;
  double best = std::numeric_limits<double>::infinity();
  for (const TileConfig& cfg : tuning_space()) {
    const sim::KernelProfile p = minplus_profile(gpu, cfg, n);
    sim::LaunchConfig launch;
    const int threads_per_tile = (cfg.tile / cfg.unroll) * (cfg.tile / cfg.unroll);
    launch.block_threads = static_cast<std::uint32_t>(
        std::clamp(threads_per_tile, 64, 1024));
    const double tiles =
        (static_cast<double>(n) / cfg.tile) * (static_cast<double>(n) / cfg.tile);
    launch.blocks = static_cast<std::uint64_t>(std::max(1.0, tiles));
    const sim::KernelTiming t = sim::kernel_timing(gpu, p, launch);
    // Full APSP: n / tile panel passes.
    const double total =
        t.total_s * (static_cast<double>(n) / static_cast<double>(cfg.tile));
    result.trials.emplace_back(cfg, total);
    if (total < best) {
      best = total;
      result.best = cfg;
      result.best_seconds = total;
    }
  }
  const double dn = static_cast<double>(n);
  result.achieved_flops = 2.0 * dn * dn * dn / result.best_seconds;
  return result;
}

ScaleResult gordon_bell_run(const arch::Machine& machine,
                            std::size_t n_vertices) {
  EXA_REQUIRE(machine.node.has_gpu());
  const arch::GpuArch& gpu = *machine.node.gpu;
  const int devices = machine.total_devices();
  EXA_REQUIRE(devices > 0);

  // 2-D device grid; each device owns an (n/p) x (n/p) block of the
  // distance matrix.
  const auto p =
      static_cast<std::size_t>(std::floor(std::sqrt(static_cast<double>(devices))));
  const std::size_t local_n = n_vertices / p;
  EXA_REQUIRE_MSG(local_n >= 1024, "problem too small for the machine");

  const TuneResult tuned = autotune(gpu, local_n);

  // Per k-panel: broadcast pivot row/column blocks along device rows and
  // columns, then the local min-plus update. Communication and compute of
  // successive panels pipeline, so the step cost is max(comm, compute).
  const net::Fabric comm(machine, machine.node.gpus_per_node);
  const double panel_bytes =
      static_cast<double>(local_n) * tuned.best.tile * 4.0;
  const double comm_s =
      2.0 * comm.bcast(panel_bytes, static_cast<int>(p));
  const double compute_s =
      tuned.best_seconds / (static_cast<double>(local_n) / tuned.best.tile);
  const double panels =
      static_cast<double>(n_vertices) / static_cast<double>(tuned.best.tile);

  ScaleResult r;
  r.devices = static_cast<int>(p * p);
  r.seconds = panels * std::max(comm_s, compute_s);
  const double dn = static_cast<double>(n_vertices);
  r.sustained_flops = 2.0 * dn * dn * dn / r.seconds;
  return r;
}

}  // namespace exa::apps::coast
