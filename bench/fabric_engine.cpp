/// Parallel conservative-lookahead engine throughput (events/sec) on a
/// congested, faulty Frontier fat-tree, plus a 131072-rank tractability
/// run. The golden file pins *virtual-time structure* only — makespan,
/// event/message/retry counts, clock checksum — so the baseline holds on
/// any host. Bit-identity between the serial reference loop and the
/// parallel engine at pool sizes 1 and 4 is EXA_REQUIREd on every run; the
/// >=2x events/sec wall-clock bar is asserted only when the host actually
/// has >= 4 hardware threads (CI containers may have one).

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "sim/exec_model.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The mixed workload from tests/net/test_engine.cpp at bench scale:
/// jittered compute, a shifting ring of tagged sends/recvs (distances
/// criss-cross shard boundaries), message sizes cycling through 7 classes.
/// Bytes are scaled by kQaMutationCostScale so -DEXA_QA_MUTATION=ON runs
/// drift the congested delivery times and trip the golden gate.
std::vector<std::vector<exa::net::RankOp>> ring_programs(int ranks,
                                                         int rounds,
                                                         std::uint64_t seed) {
  using exa::net::RankOp;
  exa::support::Rng rng(seed);
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& prog = programs[static_cast<std::size_t>(r)];
    prog.reserve(static_cast<std::size_t>(rounds) * 3);
    for (int round = 0; round < rounds; ++round) {
      const int shift = 1 + (round % 5) * 3;
      const int dst = (r + shift) % ranks;
      const int src = (r - shift % ranks + ranks) % ranks;
      prog.push_back(RankOp::compute(1.0e-6 * (1.0 + 0.2 * rng.uniform())));
      prog.push_back(RankOp::send(
          dst, 1024.0 * (1 + round % 7) * exa::sim::kQaMutationCostScale,
          /*tag=*/round));
      prog.push_back(RankOp::recv(src, /*tag=*/round));
    }
  }
  return programs;
}

exa::net::FabricConfig stressed_config() {
  exa::net::FabricConfig config;
  config.congestion = true;
  config.faults.drop_probability = 0.05;
  config.faults.straggler_fraction = 0.1;
  config.faults.straggler_slowdown = 1.7;
  config.faults.degraded_link_fraction = 0.1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exa;
  bench::Session session(argc, argv);
  bench::banner("Parallel event-engine throughput (fabric subsystem)",
                "Conservative lookahead vs serial event loop, congested "
                "Frontier fat-tree with faults");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Host threads: %u (speedup bar enforced at >= 4)\n\n", hw);

  // --- Scenario A: 4096 congested+faulty ranks, bit-identity + speedup ---
  const arch::Machine frontier = arch::machines::frontier();
  net::Fabric fabric(frontier, frontier.node.gpus_per_node,
                     stressed_config());
  const int ranks = 4096;
  const int rounds = 6;
  net::EventEngine engine(fabric, ring_programs(ranks, rounds, session.seed()));

  // Untimed: the first run of an engine builds its send/recv pairing, a
  // one-time cost neither timed engine should carry.
  (void)engine.run_serial();

  const auto t_serial0 = Clock::now();
  const net::EngineResult serial = engine.run_serial();
  const double t_serial = seconds_since(t_serial0);

  support::ThreadPool pool1(1);
  const auto t_par1_0 = Clock::now();
  const net::EngineResult par1 = engine.run_parallel(&pool1);
  const double t_par1 = seconds_since(t_par1_0);

  support::ThreadPool pool4(4);
  const auto t_par4_0 = Clock::now();
  const net::EngineResult par4 = engine.run_parallel(&pool4);
  const double t_par4 = seconds_since(t_par4_0);

  EXA_REQUIRE_MSG(serial.same_outcome(par1),
                  "1-thread parallel engine diverged from serial reference");
  EXA_REQUIRE_MSG(serial.same_outcome(par4),
                  "4-thread parallel engine diverged from serial reference");

  const double events = static_cast<double>(serial.events);
  auto csv = bench::open_csv(session.csv_path(),
                             {"engine", "threads", "events", "seconds",
                              "events_per_sec"});
  support::Table table("4096 ranks x 6 rounds, congestion + drops + "
                       "stragglers (all outcomes bitwise identical)");
  table.set_header({"Engine", "Threads", "Events", "Wall time", "Events/s",
                    "vs serial"});
  const struct {
    const char* name;
    int threads;
    double seconds;
  } rows[] = {{"serial heap", 1, t_serial},
              {"lookahead", 1, t_par1},
              {"lookahead", 4, t_par4}};
  for (const auto& row : rows) {
    table.add_row({row.name, std::to_string(row.threads),
                   std::to_string(serial.events),
                   support::format_time(row.seconds, 3),
                   support::format_si(events / row.seconds, 3),
                   support::format_si(t_serial / row.seconds, 3) + "x"});
    bench::csv_row(csv, {row.name, std::to_string(row.threads),
                         std::to_string(serial.events),
                         bench::csv_num(row.seconds),
                         bench::csv_num(events / row.seconds)});
  }
  table.add_note("Lookahead window: " +
                 support::format_time(engine.lookahead_s(), 3) + " of "
                 "virtual time per super-step (" +
                 std::to_string(par4.windows) + " windows)");
  std::printf("%s\n", table.render().c_str());

  std::printf("Makespan %s, %zu messages, %lld retries, clock checksum "
              "%.17g s\n\n",
              support::format_time(serial.makespan_s, 3).c_str(),
              serial.messages.size(),
              static_cast<long long>(serial.total_retries()),
              serial.clock_sum());

  if (hw >= 4) {
    EXA_REQUIRE_MSG(events / t_par4 >= 2.0 * (events / t_serial),
                    "parallel engine below 2x events/sec at 4 threads");
  }

  // --- Scenario B: 131072-rank tractability (2048 nodes x 64 ranks) -----
  arch::Machine wide = frontier;
  wide.node_count = 2048;
  net::Fabric wide_fabric(wide, 64, stressed_config());
  const int wide_ranks = 131072;
  net::EventEngine wide_engine(wide_fabric,
                               ring_programs(wide_ranks, 1, session.seed()));
  const auto t_wide0 = Clock::now();
  const net::EngineResult wide_result = wide_engine.run_parallel();
  const double t_wide = seconds_since(t_wide0);
  const double wide_events = static_cast<double>(wide_result.events);
  std::printf("Tractability: %d ranks, %llu events in %s (%s events/s, "
              "%d windows)\n\n",
              wide_ranks,
              static_cast<unsigned long long>(wide_result.events),
              support::format_time(t_wide, 3).c_str(),
              support::format_si(wide_events / t_wide, 3).c_str(),
              wide_result.windows);

  // Golden gate: virtual-time structure and conservation only. Counts are
  // exact; the float metrics are deterministic, so tolerances are just
  // golden-file round-trip slack.
  session.metric("engine.makespan_s", serial.makespan_s, 1e-9);
  session.metric("engine.clock_sum_s", serial.clock_sum(), 1e-9);
  session.metric("engine.events", events, 0.0);
  session.metric("engine.messages",
                 static_cast<double>(serial.messages.size()), 0.0);
  session.metric("engine.retries",
                 static_cast<double>(serial.total_retries()), 0.0);
  session.metric("engine.wide_makespan_s", wide_result.makespan_s, 1e-9);
  session.metric("engine.wide_events", wide_events, 0.0);
  return 0;
}
