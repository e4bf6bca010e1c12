#pragma once
/// \file ccc.hpp
/// CoMet (§3.6): comparative-genomics similarity metrics via mixed-
/// precision GEMM.
///
/// Data are allele vectors (one 1-bit value per sample here — the CCC
/// single-bit case). For every vector pair the metric needs the 2x2
/// contingency table (n00, n01, n10, n11). Two equivalent computations:
///  * direct bit-twiddling with popcounts over packed words;
///  * the GEMM formulation CoMet runs on tensor cores: expand each vector
///    into two indicator columns (allele 0 / allele 1), then one
///    mixed-FP16/FP32 GEMM produces every pairwise count at once.
/// The equivalence is exact (counts are small integers) and is asserted by
/// property tests; the exaflops projection reuses the GEMM cost model.

#include <array>
#include <cstdint>
#include <vector>

#include "arch/machine.hpp"
#include "net/fabric.hpp"
#include "support/rng.hpp"

namespace exa::apps::comet {

/// A set of binary allele vectors: `vectors` x `samples` bits, packed.
class BitVectorSet {
 public:
  BitVectorSet(std::size_t vectors, std::size_t samples);

  [[nodiscard]] std::size_t vectors() const { return vectors_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] bool get(std::size_t v, std::size_t s) const;
  void set(std::size_t v, std::size_t s, bool value);
  void randomize(support::Rng& rng, double p_one = 0.5);

  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

 private:
  std::size_t vectors_, samples_, words_per_vector_;
  std::vector<std::uint64_t> words_;
};

/// 2x2 contingency table for a vector pair.
struct Table2x2 {
  std::uint32_t n00 = 0, n01 = 0, n10 = 0, n11 = 0;

  bool operator==(const Table2x2&) const = default;
};

/// Direct popcount path.
[[nodiscard]] Table2x2 contingency_popcount(const BitVectorSet& set,
                                            std::size_t vi, std::size_t vj);

/// GEMM path: one mixed-precision GEMM over the expanded indicator matrix
/// yields all pairwise tables. Returns the full upper triangle (vi <= vj),
/// indexed [vi * vectors + vj].
[[nodiscard]] std::vector<Table2x2> contingency_gemm(const BitVectorSet& set);

/// The CCC metric value from a table (2-way, single-bit variant).
[[nodiscard]] double ccc_metric(const Table2x2& t, std::size_t samples);

// --- 3-way metrics -----------------------------------------------------------
// CoMet's distinguishing capability is 2-way AND 3-way methods: for a
// vector triple the metric needs the 2x2x2 contingency tensor. The GEMM
// formulation builds *pair* indicator vectors for (i, j) and runs the same
// mixed-precision product against every k.

/// 2x2x2 table: n[(a<<2) | (b<<1) | c] counts samples with alleles (a,b,c).
struct Table2x2x2 {
  std::array<std::uint32_t, 8> n{};

  bool operator==(const Table2x2x2&) const = default;
};

[[nodiscard]] Table2x2x2 contingency3_popcount(const BitVectorSet& set,
                                               std::size_t vi, std::size_t vj,
                                               std::size_t vk);

/// GEMM path: for one (vi, vj) pair, the tables against every k, via the
/// pair-indicator x indicator mixed-precision product. Exact.
[[nodiscard]] std::vector<Table2x2x2> contingency3_gemm_pair(
    const BitVectorSet& set, std::size_t vi, std::size_t vj);

/// 3-way CCC-flavored metric: excess of the all-ones co-occurrence over
/// independence.
[[nodiscard]] double ccc3_metric(const Table2x2x2& t, std::size_t samples);

// --- scale model -----------------------------------------------------------

struct CometScaleResult {
  double seconds_per_step = 0.0;
  double sustained_flops = 0.0;   ///< mixed-precision op rate
  double weak_scaling_efficiency = 1.0;
};

/// All-pairs CCC across `nodes` nodes, each device holding
/// `vectors_per_device` vectors of `samples` samples: a round-robin block
/// schedule where each step pairs two vector blocks with one bit-GEMM on
/// the matrix cores, overlapped with the ring exchange of the next block.
/// The exchange runs as a two-rank `net::EventEngine` program (send of the
/// next block; GEMM, then recv), so `fabric` knobs (congestion, faults)
/// directly erode the "near-perfect" overlap; the default quiet fabric
/// prices every message with the calibrated LogGP closed form.
[[nodiscard]] CometScaleResult scale_run(const arch::Machine& machine,
                                         int nodes,
                                         std::size_t vectors_per_device,
                                         std::size_t samples,
                                         const net::FabricConfig& fabric = {});

}  // namespace exa::apps::comet
