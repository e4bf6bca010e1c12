#pragma once
/// \file parallel.hpp
/// Kokkos-style parallel dispatch over the simulated device runtime.
///
/// parallel_for / parallel_reduce execute the functor for real on host
/// threads and charge one simulated kernel launch on the current HIP
/// device, with a cost profile derived from a per-work-item estimate.
/// This is how the portability-framework mini-apps (E3SM §3.5, LAMMPS
/// Kokkos backend §3.10) drive the performance model without writing raw
/// hip::Kernel plumbing.
///
/// The dispatchers are header templates: the body inlines into the
/// ThreadPool chunk loop (support::ThreadPool::for_each /for_chunks)
/// instead of paying a std::function call per index, and each label keeps
/// a cached, interned launch state (KernelProfile + LaunchConfig) that is
/// only rebuilt when (n, cost) change — so a steady-state launch performs
/// no heap allocation. The exec-model cost itself is memoized inside
/// DeviceSim (see device_sim.hpp), completing the fast path.
///
/// parallel_reduce combines fixed-boundary chunk partials in chunk order:
/// chunk boundaries depend only on n, never on the pool size, so sums are
/// bitwise identical across runs and thread counts (no mutex, no atomics).

#include <cstddef>
#include <string_view>

#include "hip/hip_runtime.hpp"
#include "pfw/view.hpp"
#include "sim/exec_model.hpp"
#include "sim/kernel_profile.hpp"
#include "support/reduce.hpp"
#include "support/thread_pool.hpp"

namespace exa::pfw {

/// Per-work-item cost estimate for the launch profile.
struct WorkCost {
  double flops = 10.0;
  double bytes_read = 16.0;
  double bytes_written = 8.0;
  int registers = 48;
  /// Convergent-run length (0 = fully convergent); see KernelProfile.
  double coherent_run_length = 0.0;

  friend bool operator==(const WorkCost&, const WorkCost&) = default;
};

namespace detail {

/// Cached launch description for one dispatch label: a reusable
/// KernelProfile (name interned once) plus the derived LaunchConfig,
/// rebuilt only when the range length or cost estimate changes. Not
/// thread-safe per state — pfw dispatch, like the device runtime it
/// drives, is single-threaded per device.
struct LaunchState {
  sim::KernelProfile profile;
  sim::LaunchConfig cfg;
  std::size_t n = static_cast<std::size_t>(-1);
  WorkCost cost;
  bool reduce_shaped = false;
  /// Timing computed by the last launch of this (unchanged) profile, valid
  /// while cost_epoch matches the device's (0 = never computed; real
  /// epochs start at 1). Steady-state launches replay it without touching
  /// the exec model.
  sim::KernelTiming timing;
  std::uint64_t cost_epoch = 0;
};

/// Returns the process-wide launch state for `label` (creating it on first
/// use). Reduce-shaped states add the per-block-partials traffic to the
/// profile, so they are cached separately from plain for-states.
[[nodiscard]] LaunchState& launch_state(std::string_view label,
                                        bool reduce_shaped);

/// Rebuilds the profile/config for (n, cost) when they differ from the
/// cached values; no-op (and no allocation) on the steady state.
void refresh(LaunchState& state, std::size_t n, const WorkCost& cost);

/// Charges one simulated launch of the cached profile on the current
/// device, replaying the cached timing when the device epoch still
/// matches; aborts on launch failure.
void launch(LaunchState& state);

/// Marks the host-side dispatch window of a pfw launch on the "pfw" track
/// (the kernel itself is traced by DeviceSim on its stream track), and
/// labels exa::check diagnostics with the dispatch label while it lives.
/// No-op unless tracing or the checker is enabled.
class DispatchSpan {
 public:
  explicit DispatchSpan(const std::string& label);
  ~DispatchSpan();

  DispatchSpan(const DispatchSpan&) = delete;
  DispatchSpan& operator=(const DispatchSpan&) = delete;

 private:
  const std::string* label_ = nullptr;
  double sim_begin_ = 0.0;
  bool site_pushed_ = false;
};

/// Deterministic chunk-ordered reduction, hoisted to the support layer
/// (support/reduce.hpp) so layers below pfw can use it without the
/// simulated-device runtime; re-exported here for existing pfw call sites.
using support::deterministic_reduce;
using support::kReduceSlots;
using support::reduce_grain;

}  // namespace detail

/// Executes body(i) for i in [0, n) on host threads and charges one
/// simulated kernel launch named `label`.
template <typename Body>
void parallel_for(std::string_view label, std::size_t n, Body&& body,
                  const WorkCost& cost = {}) {
  if (n == 0) return;
  detail::LaunchState& state = detail::launch_state(label, false);
  detail::refresh(state, n, cost);
  const detail::DispatchSpan span(state.profile.name);
  detail::launch(state);
  support::ThreadPool::global().for_each(0, n, body);
}

/// Chunked variant: body(chunk_begin, chunk_end) per pool slice, for
/// bodies whose inner loop vectorizes or that carry per-chunk scratch.
template <typename ChunkBody>
void parallel_for_chunks(std::string_view label, std::size_t n,
                         ChunkBody&& body, const WorkCost& cost = {}) {
  if (n == 0) return;
  detail::LaunchState& state = detail::launch_state(label, false);
  detail::refresh(state, n, cost);
  const detail::DispatchSpan span(state.profile.name);
  detail::launch(state);
  support::ThreadPool::global().for_chunks(0, n, body);
}

/// Sum-reduction: returns sum over i of body(i); charges a launch with a
/// reduction-shaped profile. Bitwise deterministic across runs and pool
/// sizes (see detail::deterministic_reduce).
template <typename Body>
[[nodiscard]] double parallel_reduce(std::string_view label, std::size_t n,
                                     Body&& body, const WorkCost& cost = {}) {
  if (n == 0) return 0.0;
  detail::LaunchState& state = detail::launch_state(label, true);
  detail::refresh(state, n, cost);
  const detail::DispatchSpan span(state.profile.name);
  detail::launch(state);
  return detail::deterministic_reduce(
      support::ThreadPool::global(), n, [&body](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t i = lo; i < hi; ++i) partial += body(i);
        return partial;
      });
}

/// Reduction over chunks: chunk_body(chunk_begin, chunk_end) returns the
/// chunk's partial sum, letting vectorizable inner loops run without a
/// per-index call. Same deterministic combination as parallel_reduce.
template <typename ChunkBody>
[[nodiscard]] double parallel_reduce_chunks(std::string_view label,
                                            std::size_t n, ChunkBody&& body,
                                            const WorkCost& cost = {}) {
  if (n == 0) return 0.0;
  detail::LaunchState& state = detail::launch_state(label, true);
  detail::refresh(state, n, cost);
  const detail::DispatchSpan span(state.profile.name);
  detail::launch(state);
  return detail::deterministic_reduce(support::ThreadPool::global(), n, body);
}

/// Charges one simulated launch named `label` with no functional work —
/// the pure launch fast path, used by benches measuring launch throughput
/// and by timing-only call sites.
void charge_launch(std::string_view label, std::size_t n,
                   const WorkCost& cost = {});

/// Device fence (hipDeviceSynchronize).
void fence();

/// Virtual seconds charged by pfw dispatches since runtime configuration
/// (reads the current device's kernel-busy counter).
[[nodiscard]] double device_busy_seconds();

/// Allocates a device-resident view, charging the current device's
/// allocation path (direct hipMalloc-style latency, or the pool when the
/// device is in pooled mode — the YAKL allocator story).
template <typename T>
[[nodiscard]] View<T> create_device_view(const std::string& label,
                                         std::size_t n0, std::size_t n1 = 1,
                                         std::size_t n2 = 1,
                                         std::size_t n3 = 1) {
  auto& dev = hip::Runtime::instance().current_device();
  // Charge the allocate+free pair through the device's memory manager in
  // one accounting call: the view's own buffer is host-backed
  // (shared_ptr), so only latency/capacity accounting lives in the device
  // model — and pooled-mode usage tracking cannot transiently spike.
  dev.charge_transient_alloc(sizeof(T) * n0 * n1 * n2 * n3);
  return View<T>(label, n0, n1, n2, n3, MemSpace::kDevice);
}

}  // namespace exa::pfw
