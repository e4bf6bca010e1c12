#pragma once
/// \file reduce.hpp
/// Deterministic chunk-ordered parallel reduction over a ThreadPool.
///
/// The shape every bitwise-reproducible sum in the tree shares: split
/// [0, n) at grain boundaries that are a function of n alone (never of the
/// pool size), let each chunk produce one partial into its own slot, and
/// combine the slots in ascending chunk order. Because both the boundaries
/// and the combination order are independent of how many workers exist and
/// of chunk execution order, the result is bitwise identical across runs
/// and EXA_THREADS settings.
///
/// This used to live in pfw::detail (PR 3's parallel_reduce); it moved
/// here so layers below pfw can reuse it without pulling in the
/// simulated-device runtime (net::EventEngine sizes its per-chunk slots
/// with `reduce_grain`).
/// pfw::parallel_reduce still charges the simulated launch; callers here
/// pay host time only.

#include <cstddef>

#include "support/thread_pool.hpp"

namespace exa::support {

/// Deterministic-reduction shape: at most kReduceSlots chunks with
/// boundaries that are a function of n alone.
inline constexpr std::size_t kReduceSlots = 256;

/// Grain that yields ceil(n / grain) <= kReduceSlots chunks.
[[nodiscard]] inline std::size_t reduce_grain(std::size_t n) {
  return (n + kReduceSlots - 1) / kReduceSlots;
}

/// Sums chunk_body(lo, hi) partials over [0, n) split at fixed grain
/// boundaries, combining them in ascending chunk order. With n <=
/// kReduceSlots every chunk covers exactly one index, so the total is the
/// exact left fold sum(body(0)) + body(1) + ..., bitwise the serial
/// accumulation loop.
template <typename ChunkBody>
[[nodiscard]] double deterministic_reduce(ThreadPool& pool, std::size_t n,
                                          ChunkBody&& chunk_body) {
  if (n == 0) return 0.0;
  const std::size_t grain = reduce_grain(n);
  double partial[kReduceSlots];
  pool.for_chunks(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        // Chunks are grain-aligned, so lo/grain indexes this chunk's slot;
        // every slot in [0, ceil(n/grain)) is written exactly once.
        partial[lo / grain] = chunk_body(lo, hi);
      },
      grain);
  const std::size_t slots = (n + grain - 1) / grain;
  double total = 0.0;
  for (std::size_t s = 0; s < slots; ++s) total += partial[s];
  return total;
}

}  // namespace exa::support
