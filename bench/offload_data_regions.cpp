/// §2.2: OpenMP-offload data-management strategies — a large persistent
/// TARGET DATA region with TARGET UPDATE synchronization vs re-mapping
/// arrays around every kernel, and GPU-aware MPI via USE_DEVICE_PTR vs
/// staging device buffers through the host.

#include <cstdio>

#include "bench_util.hpp"
#include "net/fabric.hpp"
#include "sim/device_sim.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

int main(int argc, char** argv) {
  using namespace exa;
  bench::Session session(argc, argv);
  bench::banner("OpenMP offload data strategies (Section 2.2)",
                "persistent TARGET DATA regions vs per-kernel mapping; "
                "GPU-aware MPI vs host staging");

  const arch::GpuArch gpu = arch::mi250x_gcd();
  constexpr double kArrayBytes = 512.0 * 1024 * 1024;
  constexpr int kStepsPerRegion = 50;
  constexpr int kKernelsPerStep = 6;

  sim::KernelProfile work;
  work.name = "offloaded_loop";
  work.add_flops(arch::DType::kF64, 2.0e9);
  work.bytes_read = kArrayBytes / 4;
  work.bytes_written = kArrayBytes / 8;
  const sim::LaunchConfig launch{1u << 16, 256};

  // Strategy A: map arrays around every kernel (what naive offload does).
  sim::DeviceSim naive(gpu);
  for (int step = 0; step < kStepsPerRegion; ++step) {
    for (int k = 0; k < kKernelsPerStep; ++k) {
      naive.transfer_async(0, sim::TransferKind::kHostToDevice, kArrayBytes);
      naive.launch(0, work, launch);
      naive.transfer_async(0, sim::TransferKind::kDeviceToHost, kArrayBytes);
    }
  }
  naive.synchronize_all();

  // Strategy B: one structured TARGET DATA region with persistent arrays;
  // TARGET UPDATE only moves the small halo each step.
  sim::DeviceSim persistent(gpu);
  persistent.transfer_async(0, sim::TransferKind::kHostToDevice, kArrayBytes);
  for (int step = 0; step < kStepsPerRegion; ++step) {
    // TARGET UPDATE TO/FROM for the boundary slice only.
    persistent.transfer_async(0, sim::TransferKind::kHostToDevice,
                              kArrayBytes / 64);
    for (int k = 0; k < kKernelsPerStep; ++k) {
      persistent.launch(0, work, launch);
    }
    persistent.transfer_async(0, sim::TransferKind::kDeviceToHost,
                              kArrayBytes / 64);
  }
  persistent.transfer_async(0, sim::TransferKind::kDeviceToHost, kArrayBytes);
  persistent.synchronize_all();

  support::Table table("50 timesteps, 6 offloaded kernels each");
  table.set_header({"Strategy", "Total time", "H2D volume", "D2H volume"});
  table.add_row({"map around every kernel",
                 support::format_time(naive.host_now(), 2),
                 support::format_bytes(static_cast<std::uint64_t>(
                     naive.counters().bytes_h2d)),
                 support::format_bytes(static_cast<std::uint64_t>(
                     naive.counters().bytes_d2h))});
  table.add_row({"persistent TARGET DATA + TARGET UPDATE",
                 support::format_time(persistent.host_now(), 2),
                 support::format_bytes(static_cast<std::uint64_t>(
                     persistent.counters().bytes_h2d)),
                 support::format_bytes(static_cast<std::uint64_t>(
                     persistent.counters().bytes_d2h))});
  std::printf("%s\n", table.render().c_str());

  // GPU-aware MPI (USE_DEVICE_PTR) vs staging through the host.
  const arch::Machine frontier = arch::machines::frontier();
  const net::Fabric aware(frontier, frontier.node.gpus_per_node, {}, true);
  const net::Fabric staged(frontier, frontier.node.gpus_per_node, {}, false);
  support::Table mpi("Halo exchange of 8 MiB faces, 6 neighbors");
  mpi.set_header({"MPI path", "Exchange time"});
  const double face = 8.0 * 1024 * 1024;
  mpi.add_row({"GPU-aware (USE_DEVICE_PTR)",
               support::format_time(aware.halo_exchange(face, 6), 2)});
  mpi.add_row({"host staging (D2H + send + H2D)",
               support::format_time(staged.halo_exchange(face, 6), 2)});
  std::printf("%s\n", mpi.render().c_str());

  std::printf("  persistent-region speed-up (qualitative in the paper): "
              "%.1fx\n",
              naive.host_now() / persistent.host_now());
  bench::paper_vs_measured("GPU-aware MPI halo speed-up", 1.5,
                           staged.halo_exchange(face, 6) /
                               aware.halo_exchange(face, 6),
                           "x");
  return 0;
}
