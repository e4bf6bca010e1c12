#include "apps/comet/ccc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "mathlib/dense.hpp"
#include "mathlib/device_blas.hpp"
#include "net/engine.hpp"
#include "sim/exec_model.hpp"
#include "support/assert.hpp"

namespace exa::apps::comet {

BitVectorSet::BitVectorSet(std::size_t vectors, std::size_t samples)
    : vectors_(vectors),
      samples_(samples),
      words_per_vector_((samples + 63) / 64),
      words_(vectors * words_per_vector_, 0) {
  EXA_REQUIRE(vectors >= 1 && samples >= 1);
}

bool BitVectorSet::get(std::size_t v, std::size_t s) const {
  EXA_REQUIRE(v < vectors_ && s < samples_);
  return (words_[v * words_per_vector_ + s / 64] >> (s % 64)) & 1ull;
}

void BitVectorSet::set(std::size_t v, std::size_t s, bool value) {
  EXA_REQUIRE(v < vectors_ && s < samples_);
  std::uint64_t& w = words_[v * words_per_vector_ + s / 64];
  const std::uint64_t mask = 1ull << (s % 64);
  if (value) w |= mask;
  else w &= ~mask;
}

void BitVectorSet::randomize(support::Rng& rng, double p_one) {
  for (std::size_t v = 0; v < vectors_; ++v) {
    for (std::size_t s = 0; s < samples_; ++s) {
      set(v, s, rng.bernoulli(p_one));
    }
  }
}

Table2x2 contingency_popcount(const BitVectorSet& set, std::size_t vi,
                              std::size_t vj) {
  const std::size_t wpv = (set.samples() + 63) / 64;
  const std::uint64_t* a = set.words().data() + vi * wpv;
  const std::uint64_t* b = set.words().data() + vj * wpv;
  Table2x2 t;
  for (std::size_t w = 0; w < wpv; ++w) {
    // Mask off the tail beyond `samples` in the last word.
    std::uint64_t valid = ~0ull;
    if (w == wpv - 1 && set.samples() % 64 != 0) {
      valid = (1ull << (set.samples() % 64)) - 1;
    }
    const std::uint64_t x = a[w];
    const std::uint64_t y = b[w];
    t.n11 += static_cast<std::uint32_t>(std::popcount(x & y & valid));
    t.n10 += static_cast<std::uint32_t>(std::popcount(x & ~y & valid));
    t.n01 += static_cast<std::uint32_t>(std::popcount(~x & y & valid));
    t.n00 += static_cast<std::uint32_t>(std::popcount(~x & ~y & valid));
  }
  return t;
}

std::vector<Table2x2> contingency_gemm(const BitVectorSet& set) {
  const std::size_t V = set.vectors();
  const std::size_t S = set.samples();
  // Indicator matrix: for each vector, two rows — allele-0 indicator and
  // allele-1 indicator. A (2V x S) matrix; C = A * A^T gives every count.
  std::vector<float> a(2 * V * S, 0.0f);
  for (std::size_t v = 0; v < V; ++v) {
    for (std::size_t s = 0; s < S; ++s) {
      const bool one = set.get(v, s);
      a[(2 * v + (one ? 1 : 0)) * S + s] = 1.0f;
    }
  }
  // B = A^T, so C[i][j] = sum_s A[i][s] A[j][s].
  std::vector<float> at(S * 2 * V);
  for (std::size_t r = 0; r < 2 * V; ++r) {
    for (std::size_t s = 0; s < S; ++s) at[s * 2 * V + r] = a[r * S + s];
  }
  std::vector<float> c(4 * V * V, 0.0f);
  // Mixed-precision tensor-core path: FP16 inputs (0/1 are exact), FP32
  // accumulate (counts exact up to 2^24).
  ml::hgemm_f32acc(a, at, c, 2 * V, 2 * V, S);

  std::vector<Table2x2> tables(V * V);
  for (std::size_t i = 0; i < V; ++i) {
    for (std::size_t j = i; j < V; ++j) {
      Table2x2 t;
      t.n00 = static_cast<std::uint32_t>(std::lround(c[(2 * i) * 2 * V + 2 * j]));
      t.n01 = static_cast<std::uint32_t>(std::lround(c[(2 * i) * 2 * V + 2 * j + 1]));
      t.n10 = static_cast<std::uint32_t>(std::lround(c[(2 * i + 1) * 2 * V + 2 * j]));
      t.n11 = static_cast<std::uint32_t>(std::lround(c[(2 * i + 1) * 2 * V + 2 * j + 1]));
      tables[i * V + j] = t;
    }
  }
  return tables;
}

double ccc_metric(const Table2x2& t, std::size_t samples) {
  EXA_REQUIRE(samples > 0);
  const double n = static_cast<double>(samples);
  const double f11 = t.n11 / n;
  const double fi = (t.n10 + t.n11) / n;  // marginal of vector i
  const double fj = (t.n01 + t.n11) / n;  // marginal of vector j
  // CCC-flavored centered co-occurrence: excess over independence, scaled.
  return (f11 - fi * fj) * (1.0 - std::fabs(fi - fj));
}

Table2x2x2 contingency3_popcount(const BitVectorSet& set, std::size_t vi,
                                 std::size_t vj, std::size_t vk) {
  const std::size_t wpv = (set.samples() + 63) / 64;
  const std::uint64_t* x = set.words().data() + vi * wpv;
  const std::uint64_t* y = set.words().data() + vj * wpv;
  const std::uint64_t* z = set.words().data() + vk * wpv;
  Table2x2x2 t;
  for (std::size_t w = 0; w < wpv; ++w) {
    std::uint64_t valid = ~0ull;
    if (w == wpv - 1 && set.samples() % 64 != 0) {
      valid = (1ull << (set.samples() % 64)) - 1;
    }
    for (int a = 0; a <= 1; ++a) {
      const std::uint64_t xa = a ? x[w] : ~x[w];
      for (int b = 0; b <= 1; ++b) {
        const std::uint64_t yb = b ? y[w] : ~y[w];
        for (int c = 0; c <= 1; ++c) {
          const std::uint64_t zc = c ? z[w] : ~z[w];
          t.n[static_cast<std::size_t>((a << 2) | (b << 1) | c)] +=
              static_cast<std::uint32_t>(std::popcount(xa & yb & zc & valid));
        }
      }
    }
  }
  return t;
}

std::vector<Table2x2x2> contingency3_gemm_pair(const BitVectorSet& set,
                                               std::size_t vi,
                                               std::size_t vj) {
  const std::size_t V = set.vectors();
  const std::size_t S = set.samples();
  // Pair-indicator matrix: 4 rows, one per (a, b) combination of (vi, vj).
  std::vector<float> pair(4 * S, 0.0f);
  for (std::size_t s = 0; s < S; ++s) {
    const int a = set.get(vi, s) ? 1 : 0;
    const int b = set.get(vj, s) ? 1 : 0;
    pair[static_cast<std::size_t>((a << 1) | b) * S + s] = 1.0f;
  }
  // Indicator matrix of every k: (S x 2V).
  std::vector<float> ind(S * 2 * V, 0.0f);
  for (std::size_t v = 0; v < V; ++v) {
    for (std::size_t s = 0; s < S; ++s) {
      ind[s * 2 * V + 2 * v + (set.get(v, s) ? 1 : 0)] = 1.0f;
    }
  }
  std::vector<float> c(4 * 2 * V, 0.0f);
  ml::hgemm_f32acc(pair, ind, c, 4, 2 * V, S);

  std::vector<Table2x2x2> tables(V);
  for (std::size_t v = 0; v < V; ++v) {
    Table2x2x2 t;
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        for (int cc = 0; cc <= 1; ++cc) {
          const auto row = static_cast<std::size_t>((a << 1) | b);
          t.n[static_cast<std::size_t>((a << 2) | (b << 1) | cc)] =
              static_cast<std::uint32_t>(std::lround(
                  c[row * 2 * V + 2 * v + static_cast<std::size_t>(cc)]));
        }
      }
    }
    tables[v] = t;
  }
  return tables;
}

double ccc3_metric(const Table2x2x2& t, std::size_t samples) {
  EXA_REQUIRE(samples > 0);
  const double n = static_cast<double>(samples);
  const double f111 = t.n[7] / n;
  // Marginals of the three vectors.
  const double fi = (t.n[4] + t.n[5] + t.n[6] + t.n[7]) / n;
  const double fj = (t.n[2] + t.n[3] + t.n[6] + t.n[7]) / n;
  const double fk = (t.n[1] + t.n[3] + t.n[5] + t.n[7]) / n;
  return f111 - fi * fj * fk;
}

CometScaleResult scale_run(const arch::Machine& machine, int nodes,
                           std::size_t vectors_per_device,
                           std::size_t samples,
                           const net::FabricConfig& fabric_config) {
  EXA_REQUIRE(machine.node.has_gpu());
  EXA_REQUIRE(nodes >= 1 && nodes <= machine.node_count);
  const arch::GpuArch& gpu = *machine.node.gpu;
  const int devices = nodes * machine.node.gpus_per_node;

  // One step: a block-pair bit-GEMM of (2V x S) x (S x 2V) on the matrix
  // cores in FP16 with FP32 accumulation.
  const std::size_t m = 2 * vectors_per_device;
  const sim::KernelProfile p =
      ml::gemm_profile(gpu, arch::DType::kF16, /*matrix_cores=*/true, m, m,
                       samples);
  sim::LaunchConfig launch;
  launch.block_threads = 256;
  launch.blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(m) * m / 1024);
  const double gemm_s = sim::kernel_timing(gpu, p, launch).total_s;

  // Ring exchange of the next vector block overlaps the GEMM ("near-
  // perfect weak scaling": compute dominates). Run as a real two-rank
  // engine program: the neighbor's block is in flight on the fabric while
  // the GEMM runs, and the recv pays only what the GEMM did not hide.
  double step_s = gemm_s;
  if (nodes > 1) {
    net::Fabric fabric(machine, machine.node.gpus_per_node, fabric_config);
    const double block_bytes =
        static_cast<double>(vectors_per_device) * samples / 8.0;
    net::EventEngine engine(
        fabric, {{net::RankOp::send(1, block_bytes)},
                 {net::RankOp::compute(gemm_s), net::RankOp::recv(0)}});
    step_s = engine.run_serial().clocks[1];
  }

  CometScaleResult r;
  r.seconds_per_step = step_s;
  const double ops = ml::gemm_flops_real(m, m, samples);
  r.sustained_flops =
      ops / r.seconds_per_step * static_cast<double>(devices);
  r.weak_scaling_efficiency = gemm_s / r.seconds_per_step;
  return r;
}

}  // namespace exa::apps::comet
