/// Storage-model study through exa::io::FileSystem: collective
/// checkpoints priced against a quiet filesystem, a calibrated Lustre-like
/// tier (64 OSTs x 5 GB/s), and a node-local write-through burst buffer.
///
/// Three artifacts:
///  1. Weak scaling of a 256 MiB/rank checkpoint: the PFS wins while the
///     job underfills the OST pool, the burst buffer wins once aggregate
///     demand exceeds the PFS backbone (absorb bandwidth scales with
///     nodes).
///  2. The co-scheduled-job interference story (golden-gated): two jobs
///     whose stripes share the OST pool degrade each other's checkpoint
///     >= 1.5x over an isolated run; absorbing through the write-through
///     burst buffer recovers to within 10% of isolated.
///  3. A clock-coupled checkpoint: per-rank compute skew feeds straight
///     into the I/O schedule on the same virtual timelines.
///
/// With --io-trace=<file>, every access leaves a Darshan-DXT-style JSONL
/// record; with --trace=<file>, the same accesses land on Chrome lanes
/// ("io/ost<k>", "io/bb<n>", "io/mds").

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/checkpoint.hpp"
#include "io/file_system.hpp"
#include "io/io_model.hpp"
#include "net/fabric.hpp"
#include "support/assert.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

constexpr int kRanksPerNode = 8;

/// Two co-scheduled checkpoints over one shared filesystem, issue order
/// interleaved rank-by-rank (the fair-share schedule two independent jobs
/// produce). Returns job A's makespan (seconds).
double interleaved_job_a_makespan(exa::io::FileSystem& fs, int ranks_per_job,
                                  double bytes_per_rank) {
  const int total = 2 * ranks_per_job;
  std::vector<exa::io::OpenResult> open(static_cast<std::size_t>(total));
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < ranks_per_job; ++i) {
    order.push_back(i);                  // job A: global ranks [0, P)
    order.push_back(ranks_per_job + i);  // job B: global ranks [P, 2P)
  }
  for (const int r : order) {
    const char* job = r < ranks_per_job ? "jobA" : "jobB";
    open[static_cast<std::size_t>(r)] =
        fs.open(r, std::string(job) + "/r" + std::to_string(r), 0.0);
  }
  std::vector<double> done(static_cast<std::size_t>(total), 0.0);
  for (const int r : order) {
    const auto& o = open[static_cast<std::size_t>(r)];
    const double end = fs.write(o.handle, 0.0, bytes_per_rank, o.ready_s);
    done[static_cast<std::size_t>(r)] = fs.close(o.handle, end);
  }
  return *std::max_element(done.begin(), done.begin() + ranks_per_job);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exa;
  bench::Session session(argc, argv);
  bench::banner("Checkpoint scaling and OST interference (storage subsystem)",
                "Lustre-like PFS vs node-local burst buffer, DXT-traced");
  std::fprintf(stderr, "session: io preset %s\n", session.io_mode().c_str());

  const io::IoConfig quiet = io::IoConfig::quiet_config();
  const io::IoConfig lustre = io::IoConfig::lustre();
  const io::IoConfig bb = io::IoConfig::lustre_with_burst_buffer();

  // --- 1. weak scaling of a 256 MiB/rank collective checkpoint ------------
  const double table_bytes = 256.0 * 1024 * 1024;
  const std::vector<int> node_counts = {8, 32, 64, 128, 256};
  auto csv = bench::open_csv(session.csv_path(),
                             {"nodes", "ranks", "t_quiet", "t_lustre", "t_bb"});
  support::Table table("Collective checkpoint, 256 MiB per rank, 8 ranks/node");
  table.set_header({"Nodes", "Ranks", "t (quiet)", "t (lustre)",
                    "t (burst buffer)"});
  auto& profiler = trace::Profiler::instance();
  double lustre_64n = 0.0;
  double bb_64n = 0.0;
  for (const int nodes : node_counts) {
    const int ranks = nodes * kRanksPerNode;
    const double t_quiet = io::checkpoint_time(quiet, ranks, table_bytes);
    const double t_lustre = io::checkpoint_time(lustre, ranks, table_bytes);
    const double t_bb = io::checkpoint_time(bb, ranks, table_bytes);
    EXA_REQUIRE_MSG(t_quiet == 0.0,
                    "quiet filesystem must add exactly zero time");
    if (nodes == 64) {
      lustre_64n = t_lustre;
      bb_64n = t_bb;
    }
    profiler.record("io/ckpt_lustre", nodes, t_lustre);
    profiler.record("io/ckpt_bb", nodes, t_bb);
    table.add_row({std::to_string(nodes), std::to_string(ranks),
                   support::format_time(t_quiet, 2),
                   support::format_time(t_lustre, 2),
                   support::format_time(t_bb, 2)});
    bench::csv_row(csv, {std::to_string(nodes), std::to_string(ranks),
                         bench::csv_num(t_quiet), bench::csv_num(t_lustre),
                         bench::csv_num(t_bb)});
  }
  table.add_note("Burst-buffer absorb bandwidth scales with nodes; the PFS"
                 " backbone does not");
  std::printf("%s\n", table.render().c_str());

  // --- 2. co-scheduled-job interference on shared OSTs --------------------
  // Two 64-node jobs (512 ranks each) checkpoint 1 GiB/rank into the same
  // 64-OST pool. Interleaved stripes serialize on the shared OST cursors.
  const int job_ranks = 64 * kRanksPerNode;
  const double job_bytes = 1024.0 * 1024 * 1024;

  io::FileSystem iso_fs(lustre);
  const io::CheckpointStats iso =
      io::checkpoint(iso_fs, job_ranks, job_bytes, 0.0, "jobA/r");
  const double t_iso = iso.end_s;

  io::FileSystem shared_fs(lustre);
  const double t_shared =
      interleaved_job_a_makespan(shared_fs, job_ranks, job_bytes);
  const double degradation = t_shared / t_iso;

  io::FileSystem bb_fs(bb);
  const double t_bb_shared =
      interleaved_job_a_makespan(bb_fs, job_ranks, job_bytes);
  const double recovery = t_bb_shared / t_iso;

  // Background drains still owe the PFS every absorbed byte: drain, then
  // check the conservation ledger closes.
  const double drained_s = bb_fs.drain_all(t_bb_shared);
  const double residual = bb_fs.bytes_written() - bb_fs.bytes_landed() -
                          bb_fs.bytes_resident();

  std::printf("Two co-scheduled 512-rank jobs, 1 GiB/rank, shared OST pool:\n");
  bench::paper_vs_measured("isolated checkpoint (s)", 1.7, t_iso, "s");
  bench::paper_vs_measured("interfered checkpoint (s)", 3.4, t_shared, "s");
  std::printf("  interference degradation: %.2fx (gate: >= 1.5x)\n",
              degradation);
  std::printf("  burst-buffer recovery:    %.3fx of isolated (gate: <= 1.10x)\n",
              recovery);
  std::printf("  drains settle at %.3f s; ledger residual %.1f bytes\n\n",
              drained_s, residual);
  EXA_REQUIRE_MSG(degradation >= 1.5,
                  "shared-OST interference below the 1.5x acceptance bar");
  EXA_REQUIRE_MSG(recovery <= 1.10,
                  "write-through burst buffer does not recover isolation");
  EXA_REQUIRE_MSG(residual == 0.0, "byte-conservation ledger did not close");

  // --- 3. Clock-coupled checkpoint ---------------------------------------
  // Compute skew (stragglers) staggers the per-rank checkpoint starts on
  // per-rank virtual timelines like those an EventEngine run produces.
  const arch::Machine frontier = arch::machines::frontier();
  net::FabricConfig lane_cfg;
  lane_cfg.faults.straggler_fraction = 0.25;
  lane_cfg.faults.straggler_slowdown = 1.5;
  const net::Fabric lane_fabric(frontier, kRanksPerNode, lane_cfg);
  std::vector<double> clocks(16);
  for (int r = 0; r < 16; ++r) {
    clocks[static_cast<std::size_t>(r)] = 0.05 * lane_fabric.straggler_scale(r);
  }
  io::FileSystem sim_fs(lustre);
  const io::CheckpointStats coupled =
      io::checkpoint(sim_fs, clocks, job_bytes, "step0/r");
  std::printf("Clock-coupled checkpoint (16 ranks, 1 GiB each): "
              "makespan %s, ends at %s\n\n",
              support::format_time(coupled.makespan_s(), 3).c_str(),
              support::format_time(
                  *std::max_element(clocks.begin(), clocks.end()), 3)
                  .c_str());

  // Golden gate: the interference separation is the subsystem's headline
  // artifact; the absolute checkpoint times catch drift in either tier.
  session.metric("io.ckpt_quiet_s", 0.0, 0.0);
  session.metric("io.ckpt_lustre_64n_s", lustre_64n, 0.01);
  session.metric("io.ckpt_bb_64n_s", bb_64n, 0.01);
  session.metric("io.interference_degradation", degradation, 0.02);
  session.metric("io.bb_recovery_ratio", recovery, 0.02);
  session.metric("io.conservation_residual_bytes", residual, 0.0);
  session.metric("io.ranksim_ckpt_makespan_s", coupled.makespan_s(), 0.01);
  return 0;
}
