/// Weak-scaling study of a representative exascale step schedule through
/// exa::net::Fabric: the same per-rank workload (spectral transpose
/// alltoall + CG-style allreduce + 6-face halo + a fixed device kernel)
/// timed with the fabric's congestion engine off (the LogGP closed
/// forms) and on (per-link contention over the tapered fat-tree).
/// Static (src+dst)%spines routing aligns the transpose traffic onto
/// single spine uplinks once the job spans many leaf switches, so the
/// congestion-on efficiency falls strictly below the analytic curve at
/// >= 1024 nodes — that separation is the golden-gated artifact.
///
/// With --trace=<file>, a small EventEngine schedule (nonblocking ring
/// exchange overlapped with compute, then a collective) additionally
/// exports per-rank Chrome trace lanes ("fabric/rank<i>").

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "sim/exec_model.hpp"
#include "support/assert.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

/// One step of the schedule: weak-scaled transpose (fixed volume per
/// rank), small allreduce, fixed halo. All sizes bytes.
double comm_step(const exa::net::Fabric& fabric, int ranks) {
  const double transpose_per_rank = 64.0 * 1024 * 1024;
  return fabric.alltoall(transpose_per_rank / ranks, ranks) +
         fabric.allreduce(8.0 * 1024, ranks) +
         fabric.halo_exchange(2.0 * 1024 * 1024, 6);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exa;
  bench::Session session(argc, argv);
  bench::banner("Fabric weak scaling (network-simulation subsystem)",
                "Congested vs analytic collective costs, Frontier fat-tree");

  const arch::Machine frontier = arch::machines::frontier();
  const int rpn = frontier.node.gpus_per_node;

  net::FabricConfig quiet_cfg;
  net::FabricConfig congested_cfg;
  congested_cfg.congestion = true;
  const net::Fabric quiet(frontier, rpn, quiet_cfg);
  const net::Fabric congested(frontier, rpn, congested_cfg);

  // Fixed per-rank compute: a bandwidth-bound field sweep on one GCD.
  sim::KernelProfile sweep;
  sweep.name = "field_sweep";
  sweep.add_flops(arch::DType::kF64, 2.0e9);
  sweep.bytes_read = 8.0e9;
  sweep.bytes_written = 4.0e9;
  sweep.memory_efficiency = 0.8;
  sim::LaunchConfig launch;
  launch.block_threads = 256;
  launch.blocks = 4096;
  const double compute_s =
      sim::kernel_timing(*frontier.node.gpu, sweep, launch).total_s;

  const std::vector<int> node_counts = {32, 128, 512, 1024, 2048, 4096};
  auto csv = bench::open_csv(
      session.csv_path(),
      {"nodes", "ranks", "t_off", "t_on", "eff_off", "eff_on"});
  support::Table table("Weak scaling, 64 MiB transpose volume per rank");
  table.set_header({"Nodes", "Ranks", "t/step (analytic)",
                    "t/step (congested)", "Eff (analytic)",
                    "Eff (congested)"});

  double base_off = 0.0;
  double base_on = 0.0;
  std::vector<double> eff_off(node_counts.size());
  std::vector<double> eff_on(node_counts.size());
  auto& profiler = trace::Profiler::instance();
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const int nodes = node_counts[i];
    const int ranks = nodes * rpn;
    const double t_off = compute_s + comm_step(quiet, ranks);
    const double t_on = compute_s + comm_step(congested, ranks);
    if (i == 0) {
      base_off = t_off;
      base_on = t_on;
    }
    eff_off[i] = base_off / t_off;
    eff_on[i] = base_on / t_on;
    profiler.record("fabric/step_analytic", nodes, t_off);
    profiler.record("fabric/step_congested", nodes, t_on);
    table.add_row({std::to_string(nodes), std::to_string(ranks),
                   support::format_time(t_off, 2),
                   support::format_time(t_on, 2),
                   support::format_si(eff_off[i], 3),
                   support::format_si(eff_on[i], 3)});
    bench::csv_row(csv, {std::to_string(nodes), std::to_string(ranks),
                         bench::csv_num(t_off), bench::csv_num(t_on),
                         bench::csv_num(eff_off[i]),
                         bench::csv_num(eff_on[i])});
    // The acceptance bar: beyond 1024 nodes the job spans enough leaf
    // switches that aligned spine routes must bind.
    if (nodes >= 1024) {
      EXA_REQUIRE_MSG(eff_on[i] < eff_off[i],
                      "congested efficiency not strictly below analytic");
    }
  }
  table.add_note("Efficiency normalized to the 32-node run of each curve");
  std::printf("%s\n", table.render().c_str());

  const std::size_t last = node_counts.size() - 1;
  const std::size_t i1024 = 3;  // node_counts[3] == 1024
  std::printf("Congestion slowdown (t_on / t_off):\n");
  std::printf("  1024 nodes: %.2fx    4096 nodes: %.2fx\n\n",
              (compute_s + comm_step(congested, 1024 * rpn)) /
                  (compute_s + comm_step(quiet, 1024 * rpn)),
              (compute_s + comm_step(congested, 4096 * rpn)) /
                  (compute_s + comm_step(quiet, 4096 * rpn)));

  // A small overlapped schedule for the per-rank trace lanes: each rank
  // sends its halo ring-wise, hides the transfer under the sweep kernel,
  // then joins an allreduce. Runs under the congested+flaky fabric so
  // retries and stragglers are visible in the timeline.
  net::FabricConfig lane_cfg = congested_cfg;
  lane_cfg.faults.drop_probability = 0.05;
  lane_cfg.faults.straggler_fraction = 0.2;
  lane_cfg.faults.straggler_slowdown = 1.5;
  net::Fabric lane_fabric(frontier, rpn, lane_cfg);
  std::vector<std::vector<net::RankOp>> lane_programs(8);
  for (int step = 0; step < 3; ++step) {
    const double allreduce_s = lane_fabric.allreduce(8.0 * 1024, 8);
    for (int r = 0; r < 8; ++r) {
      auto& program = lane_programs[static_cast<std::size_t>(r)];
      program.push_back(net::RankOp::send((r + 1) % 8, 2.0 * 1024 * 1024));
      program.push_back(net::RankOp::compute(compute_s));
      program.push_back(net::RankOp::recv((r + 7) % 8));
      program.push_back(net::RankOp::collective(allreduce_s));
    }
  }
  net::EventEngine lane_engine(lane_fabric, std::move(lane_programs));
  const net::EngineResult lanes = lane_engine.run_serial();
  std::printf("EventEngine 8-rank overlapped schedule makespan: %s (%zu messages)\n\n",
              support::format_time(lanes.makespan_s, 3).c_str(),
              lanes.messages.size());

  // Golden gate: the congested-vs-analytic separation at scale is the
  // subsystem's headline artifact; the absolute step times catch drift in
  // either cost path.
  session.metric("fabric.weak_eff_off_4096", eff_off[last], 0.01);
  session.metric("fabric.weak_eff_on_4096", eff_on[last], 0.01);
  session.metric("fabric.eff_ratio_on_off_1024", eff_on[i1024] / eff_off[i1024],
                 0.01);
  session.metric("fabric.step_analytic_4096_s",
                 compute_s + comm_step(quiet, 4096 * rpn), 0.01);
  session.metric("fabric.step_congested_4096_s",
                 compute_s + comm_step(congested, 4096 * rpn), 0.01);
  session.metric("fabric.ranksim_makespan_s", lanes.makespan_s, 0.01);
  return 0;
}
