#include "net/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"
#include "trace/tracer.hpp"

namespace exa::net {
namespace {

Fabric engine_fabric(bool congestion, bool faults) {
  FabricConfig config;
  config.congestion = congestion;
  if (faults) {
    config.faults.drop_probability = 0.05;
    config.faults.straggler_fraction = 0.1;
    config.faults.straggler_slowdown = 1.7;
    config.faults.degraded_link_fraction = 0.1;
  }
  return Fabric(arch::machines::frontier(), 8, config);
}

/// A deterministic mixed workload: jittered compute, a shifting ring of
/// sends/recvs (several distances, so channels criss-cross shards), and a
/// few long-range hops to stress FIFO clamping under retries.
std::vector<std::vector<RankOp>> ring_programs(int ranks, int rounds,
                                               std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::vector<RankOp>> programs(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& prog = programs[static_cast<std::size_t>(r)];
    for (int round = 0; round < rounds; ++round) {
      const int shift = 1 + (round % 5) * 3;
      const int dst = (r + shift) % ranks;
      const int src = (r - shift % ranks + ranks) % ranks;
      prog.push_back(RankOp::compute(1.0e-6 * (1.0 + 0.2 * rng.uniform())));
      prog.push_back(
          RankOp::send(dst, 1024.0 * (1 + round % 7), /*tag=*/round));
      prog.push_back(RankOp::recv(src, /*tag=*/round));
    }
  }
  return programs;
}

/// A strict dependency chain 0 -> 1 -> ... -> n-1: each rank past 0
/// receives from its predecessor, computes, and sends to its successor.
std::vector<std::vector<RankOp>> chain_programs(int n) {
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& prog = programs[static_cast<std::size_t>(r)];
    if (r > 0) prog.push_back(RankOp::recv(r - 1));
    prog.push_back(RankOp::compute(2.0e-6));
    if (r + 1 < n) prog.push_back(RankOp::send(r + 1, 8192.0));
  }
  return programs;
}

/// `ring_programs` with a collective of `cost_s` closing every round
/// (compute, send, recv).
std::vector<std::vector<RankOp>> ring_with_collectives(int ranks, int rounds,
                                                       std::uint64_t seed,
                                                       double cost_s) {
  std::vector<std::vector<RankOp>> programs =
      ring_programs(ranks, rounds, seed);
  for (std::vector<RankOp>& program : programs) {
    std::vector<RankOp> with;
    for (std::size_t i = 0; i < program.size(); ++i) {
      with.push_back(program[i]);
      if (i % 3 == 2) with.push_back(RankOp::collective(cost_s));
    }
    program = std::move(with);
  }
  return programs;
}

void expect_same(const EngineResult& serial, const EngineResult& parallel) {
  ASSERT_TRUE(serial.same_outcome(parallel))
      << "parallel engine diverged: clock_sum serial=" << serial.clock_sum()
      << " parallel=" << parallel.clock_sum()
      << " events serial=" << serial.events
      << " parallel=" << parallel.events;
}

/// Runs `programs` through both engines, checks they agree bitwise, and
/// returns the serial outcome.
EngineResult run_both(Fabric& fabric,
                      std::vector<std::vector<RankOp>> programs) {
  EventEngine engine(fabric, std::move(programs));
  const EngineResult serial = engine.run_serial();
  expect_same(serial, engine.run_parallel());
  return serial;
}

/// Runs `engine` serially and at pools 1/4/16, checks every parallel run
/// agrees bitwise, and returns the serial outcome.
EngineResult run_all_pools(EventEngine& engine) {
  const EngineResult serial = engine.run_serial();
  for (const std::size_t threads : {1u, 4u, 16u}) {
    support::ThreadPool pool(threads);
    expect_same(serial, engine.run_parallel(&pool));
  }
  return serial;
}

TEST(EventEngine, ParallelMatchesSerialAnalytic) {
  Fabric fabric = engine_fabric(false, false);
  EventEngine engine(fabric, ring_programs(96, 6, 0xE1));
  const EngineResult serial = engine.run_serial();
  const EngineResult parallel = engine.run_parallel();
  expect_same(serial, parallel);
  EXPECT_EQ(serial.events, 96u * 6u * 3u);
  EXPECT_GT(parallel.windows, 0);
}

TEST(EventEngine, ParallelMatchesSerialCongested) {
  Fabric fabric = engine_fabric(true, false);
  EventEngine engine(fabric, ring_programs(128, 5, 0xE2));
  expect_same(engine.run_serial(), engine.run_parallel());
}

TEST(EventEngine, ParallelMatchesSerialWithFaults) {
  Fabric fabric = engine_fabric(true, true);
  EventEngine engine(fabric, ring_programs(128, 5, 0xE3));
  const EngineResult serial = engine.run_serial();
  const EngineResult parallel = engine.run_parallel();
  expect_same(serial, parallel);
  // The drop layer must actually be firing for this test to mean much.
  EXPECT_GT(serial.total_retries(), 0);
}

TEST(EventEngine, ExplicitPoolSizesAgree) {
  Fabric fabric = engine_fabric(true, true);
  EventEngine engine(fabric, ring_programs(96, 4, 0xE4));
  (void)run_all_pools(engine);
}

TEST(EventEngine, RunsAreRepeatable) {
  Fabric fabric = engine_fabric(true, true);
  EventEngine engine(fabric, ring_programs(64, 4, 0xE5));
  const EngineResult first = engine.run_parallel();
  const EngineResult second = engine.run_parallel();
  expect_same(first, second);
}

TEST(EventEngine, FifoChannelOrderPreserved) {
  Fabric fabric = engine_fabric(true, true);
  // One sender hammers one receiver on a single tag: deliveries must be
  // nondecreasing (a retried message delays the channel, it is never
  // overtaken), and the k-th recv must match the k-th send.
  std::vector<std::vector<RankOp>> programs(2);
  for (int i = 0; i < 32; ++i) {
    programs[0].push_back(RankOp::send(1, 4096.0, /*tag=*/7));
  }
  for (int i = 0; i < 32; ++i) {
    programs[1].push_back(RankOp::recv(0, /*tag=*/7));
  }
  EventEngine engine(fabric, std::move(programs));
  const EngineResult result = engine.run_parallel();
  ASSERT_EQ(result.messages.size(), 32u);
  for (std::size_t i = 1; i < result.messages.size(); ++i) {
    EXPECT_GE(result.messages[i].delivered_s,
              result.messages[i - 1].delivered_s);
  }
  EXPECT_EQ(result.clocks[1], result.messages.back().delivered_s);
}

TEST(EventEngine, BlockedChainCrossesShardBoundaries) {
  Fabric fabric = engine_fabric(true, false);
  // A strict dependency chain 0 -> 1 -> ... -> n-1: every rank past 0 must
  // block, and windows must keep waking exactly one rank at a time.
  const int n = 64;
  EventEngine engine(fabric, chain_programs(n));
  const EngineResult serial = engine.run_serial();
  const EngineResult parallel = engine.run_parallel();
  expect_same(serial, parallel);
  // Chain order: each rank finishes after its predecessor.
  for (int r = 1; r < n; ++r) {
    EXPECT_GT(parallel.clocks[static_cast<std::size_t>(r)],
              parallel.clocks[static_cast<std::size_t>(r - 1)]);
  }
}

TEST(EventEngine, DeadlockIsDiagnosed) {
  Fabric fabric = engine_fabric(false, false);
  // Rank 1 waits for a message rank 0 never sends: rank 0 sends nothing,
  // or sends to rank 1 only on another tag.
  std::vector<std::vector<RankOp>> silent(2);
  silent[0] = {RankOp::compute(1.0e-6)};
  silent[1] = {RankOp::recv(0)};
  std::vector<std::vector<RankOp>> other_tag(2);
  other_tag[0] = {RankOp::send(1, 64.0, /*tag=*/0)};
  other_tag[1] = {RankOp::recv(0, 0), RankOp::recv(0, 5)};
  for (auto* programs : {&silent, &other_tag}) {
    EventEngine engine(fabric, *programs);
    EXPECT_THROW((void)engine.run_serial(), support::Error);
    for (const std::size_t threads : {1u, 4u, 16u}) {
      support::ThreadPool pool(threads);
      EXPECT_THROW((void)engine.run_parallel(&pool), support::Error);
    }
  }
}

TEST(EventEngine, RejectsWaitBeforeMatchingSend) {
  Fabric fabric = engine_fabric(false, false);
  // Every matching send exists, but each sits behind a recv that waits for
  // it: two ranks that both recv first, and one rank that recvs from itself
  // before its own send.
  std::vector<std::vector<RankOp>> cycle(2);
  cycle[0] = {RankOp::recv(1), RankOp::send(1, 64.0)};
  cycle[1] = {RankOp::recv(0), RankOp::send(0, 64.0)};
  std::vector<std::vector<RankOp>> self(1);
  self[0] = {RankOp::recv(0), RankOp::send(0, 64.0)};
  for (auto* programs : {&cycle, &self}) {
    EventEngine engine(fabric, *programs);
    EXPECT_THROW((void)engine.run_serial(), support::Error);
    EXPECT_THROW((void)engine.run_parallel(), support::Error);
  }
}

TEST(EventEngine, SelfChannelWorks) {
  Fabric fabric = engine_fabric(true, true);
  EventEngine single(fabric, {{RankOp::send(0, 512.0), RankOp::recv(0)}});
  EXPECT_EQ(run_all_pools(single).messages.size(), 1u);
  // Every rank sends to itself on two tags and to its neighbour, then
  // drains its own channel in reverse tag order before the neighbour's.
  const int ranks = 40;
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    programs[static_cast<std::size_t>(r)] = {
        RankOp::send(r, 512.0, 1),
        RankOp::compute(1.0e-6),
        RankOp::send(r, 1024.0, 2),
        RankOp::send((r + 1) % ranks, 2048.0),
        RankOp::recv(r, 2),
        RankOp::recv(r, 1),
        RankOp::recv((r + ranks - 1) % ranks)};
  }
  EventEngine many(fabric, std::move(programs));
  const EngineResult r = run_all_pools(many);
  EXPECT_EQ(r.messages.size(), 3u * ranks);
  EXPECT_EQ(r.events, 7u * ranks);
}

TEST(EventEngine, RejectsTagsOutsideTheChannelKeyRange) {
  Fabric fabric = engine_fabric(false, false);
  // Tags 2^21 and 0 on one (src, dst) pair would share a channel key, so
  // recv(0, tag=0) would consume the 2^21 message.
  std::vector<std::vector<RankOp>> programs(2);
  programs[0] = {RankOp::send(1, 64.0, 1 << 21), RankOp::send(1, 64.0, 0)};
  programs[1] = {RankOp::recv(0, 0), RankOp::recv(0, 1 << 21)};
  EXPECT_THROW(EventEngine(fabric, programs), support::Error);
  // Negative tags would alias the top of the range the same way.
  programs[0][0].tag = -1;
  programs[1][1].tag = -1;
  EXPECT_THROW(EventEngine(fabric, programs), support::Error);
  // The largest legal tag keeps its own channel.
  programs[0][0].tag = (1 << 21) - 1;
  programs[1][1].tag = (1 << 21) - 1;
  const EngineResult r = run_both(fabric, programs);
  ASSERT_EQ(r.messages.size(), 2u);
  EXPECT_EQ(r.clocks[1], std::max(r.messages[0].delivered_s,
                                  r.messages[1].delivered_s));
}

// --- static send/recv pairing -----------------------------------------------

TEST(EventEngine, TrailingSendsAreAppliedAndRecorded) {
  Fabric fabric = engine_fabric(true, true);
  // Five sends on one channel, two recvs: the last three sends match no
  // recv but still cross the fabric and enter the message log.
  std::vector<std::vector<RankOp>> programs(2);
  for (int i = 0; i < 5; ++i) {
    programs[0].push_back(RankOp::send(1, 2048.0 * (i + 1), /*tag=*/3));
  }
  programs[1] = {RankOp::recv(0, 3), RankOp::recv(0, 3),
                 RankOp::compute(1.0e-6)};
  EventEngine engine(fabric, std::move(programs));
  const EngineResult r = run_all_pools(engine);
  ASSERT_EQ(r.messages.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.messages[static_cast<std::size_t>(i)].bytes, 2048.0 * (i + 1));
  }
  const double after_recvs = std::max(r.messages[0].delivered_s,
                                      r.messages[1].delivered_s);
  EXPECT_DOUBLE_EQ(r.clocks[1],
                   after_recvs + 1.0e-6 * fabric.straggler_scale(1));
}

TEST(EventEngine, InterleavedTagsMatchFifoPerTag) {
  Fabric fabric = engine_fabric(true, false);
  const double overhead = fabric.machine().network.per_message_overhead_s;
  // Rank 0 sends tags 1,2,1,2,2,1 with compute between, so deliveries are
  // spread out. Rank 1 receives them as 2,2,1,1,2,1 and reports its clock
  // after each recv by posting a send to rank 2.
  const std::vector<int> send_tags = {1, 2, 1, 2, 2, 1};
  const std::vector<int> recv_tags = {2, 2, 1, 1, 2, 1};
  std::vector<std::vector<RankOp>> programs(3);
  for (std::size_t i = 0; i < send_tags.size(); ++i) {
    programs[0].push_back(RankOp::compute(5.0e-6));
    programs[0].push_back(
        RankOp::send(1, 4096.0 * static_cast<double>(i + 1), send_tags[i]));
  }
  for (const int tag : recv_tags) {
    programs[1].push_back(RankOp::recv(0, tag));
    programs[1].push_back(RankOp::send(2, 64.0));
    programs[2].push_back(RankOp::recv(1));
  }
  EventEngine engine(fabric, std::move(programs));
  const EngineResult r = run_all_pools(engine);

  // Rank 0's k-th send is message k of its log; the k-th recv of a tag
  // must take the k-th send of that tag.
  std::vector<double> delivered;
  std::vector<double> reported;
  for (const MessageRecord& m : r.messages) {
    if (m.src == 0) delivered.push_back(m.delivered_s);
    if (m.src == 1) reported.push_back(m.posted_s);
  }
  ASSERT_EQ(delivered.size(), send_tags.size());
  ASSERT_EQ(reported.size(), recv_tags.size());
  const std::vector<std::size_t> expected_match = {1, 3, 0, 2, 4, 5};
  double clock = 0.0;
  for (std::size_t k = 0; k < recv_tags.size(); ++k) {
    clock = std::max(clock, delivered[expected_match[k]]);
    EXPECT_EQ(reported[k], clock) << "recv " << k;
    clock += overhead;
  }
}

TEST(EventEngine, FifoClampSpansTags) {
  // Rank 0 sends to rank 1 on its own node, alternating tags 0 and 1, under
  // drops. A same-node message claims no link, so only the channel's FIFO
  // clamp keeps a message from overtaking a retried one before it, and the
  // channel is (src, dst), not (src, dst, tag). Rank 1 drains tag 1 first.
  FabricConfig config;
  config.faults.drop_probability = 0.5;
  const Fabric fabric(arch::machines::frontier(), 8, config);
  constexpr int kMessages = 64;
  std::vector<std::vector<RankOp>> programs(2);
  for (int i = 0; i < kMessages; ++i) {
    programs[0].push_back(RankOp::send(1, 4096.0, /*tag=*/i % 2));
  }
  for (const int tag : {1, 0}) {
    for (int i = 0; i < kMessages / 2; ++i) {
      programs[1].push_back(RankOp::recv(0, tag));
    }
  }
  EventEngine engine(fabric, std::move(programs));
  const EngineResult r = run_all_pools(engine);
  ASSERT_EQ(r.messages.size(), static_cast<std::size_t>(kMessages));
  for (std::size_t i = 1; i < r.messages.size(); ++i) {
    EXPECT_GE(r.messages[i].delivered_s, r.messages[i - 1].delivered_s)
        << "message " << i << " (tag " << r.messages[i].tag
        << ") overtook message " << i - 1;
  }
  EXPECT_GT(r.total_retries(), 0) << "drop layer never fired at q=0.5";
}

TEST(EventEngine, EnginesShareOneFabric) {
  // The fabric holds no transport state: two engines running on two
  // threads over one const fabric give what the same runs give one after
  // the other.
  const Fabric fabric = engine_fabric(true, true);
  const auto programs_a = ring_programs(256, 6, 0xE9);
  const auto programs_b = ring_programs(192, 8, 0xEA);
  const auto runs = [](EventEngine& engine) {
    return std::make_pair(engine.run_serial(), engine.run_parallel());
  };
  EventEngine first_a(fabric, programs_a);
  EventEngine first_b(fabric, programs_b);
  const auto alone_a = runs(first_a);
  const auto alone_b = runs(first_b);

  // Fresh engines, so their first-run pairing builds also run concurrently.
  EventEngine second_a(fabric, programs_a);
  EventEngine second_b(fabric, programs_b);
  std::pair<EngineResult, EngineResult> shared_a;
  std::pair<EngineResult, EngineResult> shared_b;
  std::thread thread_a([&] { shared_a = runs(second_a); });
  std::thread thread_b([&] { shared_b = runs(second_b); });
  thread_a.join();
  thread_b.join();
  expect_same(alone_a.first, shared_a.first);
  expect_same(alone_a.first, shared_a.second);
  expect_same(alone_b.first, shared_b.first);
  expect_same(alone_b.first, shared_b.second);
  EXPECT_GT(alone_a.first.total_retries(), 0);
}

/// Super-step count of `engine`'s parallel run, checked equal at pools
/// 1/4/16.
int windows_at_all_pools(EventEngine& engine) {
  support::ThreadPool one(1);
  const int windows = engine.run_parallel(&one).windows;
  for (const std::size_t threads : {4u, 16u}) {
    support::ThreadPool pool(threads);
    EXPECT_EQ(engine.run_parallel(&pool).windows, windows);
  }
  return windows;
}

TEST(EventEngine, WindowCountIsPinned) {
  // Virtual time alone cannot see a window that starts too early: every
  // bit stays the same, only the super-step count grows. The counts are
  // those of a full next-event scan over every rank before each window.
  Fabric faulty = engine_fabric(true, true);
  EventEngine ring(faulty, ring_programs(1024, 4, 0xE8));
  EXPECT_EQ(windows_at_all_pools(ring), 17);

  // A dependency chain across 2-rank chunks: one rank wakes per barrier.
  Fabric congested = engine_fabric(true, false);
  EventEngine chain(congested, chain_programs(300));
  EXPECT_EQ(windows_at_all_pools(chain), 300);

  EventEngine collectives(
      faulty, ring_with_collectives(96, 6, 0xE7, faulty.allreduce(8192.0, 96)));
  EXPECT_EQ(windows_at_all_pools(collectives), 12);
}

// --- overlap: per-rank clocks over one fabric ------------------------------

TEST(EventEngine, ComputeHidesInFlightMessages) {
  Fabric fabric = engine_fabric(false, false);
  const double msg_cost = fabric.p2p(1e6);
  const double overhead = fabric.machine().network.per_message_overhead_s;
  std::vector<std::vector<RankOp>> programs(16);
  programs[0] = {RankOp::send(15, 1e6)};
  // The receiver computes longer than the transfer: the recv is free.
  programs[15] = {RankOp::compute(msg_cost * 3.0), RankOp::recv(0)};
  const EngineResult r = run_both(fabric, std::move(programs));
  EXPECT_DOUBLE_EQ(r.clocks[15], msg_cost * 3.0);
  // The sender only paid the software overhead.
  EXPECT_DOUBLE_EQ(r.clocks[0], overhead);
}

TEST(EventEngine, WaitPaysUnhiddenTransferTime) {
  Fabric fabric = engine_fabric(false, false);
  const double msg_cost = fabric.p2p(4e6);
  const EngineResult r =
      run_both(fabric, {{RankOp::send(1, 4e6)}, {RankOp::recv(0)}});
  EXPECT_NEAR(r.clocks[1], msg_cost, msg_cost * 1e-9);  // nothing hidden
}

TEST(EventEngine, StragglersSlowComputeNotWires) {
  FabricConfig config;
  config.faults.straggler_fraction = 1.0;  // everyone straggles
  config.faults.straggler_slowdown = 2.5;
  Fabric slow(arch::machines::frontier(), 8, config);
  const std::vector<std::vector<RankOp>> programs = {
      {RankOp::compute(1.0)}, {RankOp::send(2, 1e6)}, {RankOp::recv(1)}};
  const EngineResult r = run_both(slow, programs);
  EXPECT_DOUBLE_EQ(r.clocks[0], 2.5);
  // The same message on a fabric whose stragglers run at full speed lands
  // at the same instant.
  config.faults.straggler_slowdown = 1.0;
  Fabric healthy(arch::machines::frontier(), 8, config);
  const EngineResult h = run_both(healthy, programs);
  EXPECT_EQ(h.clocks[0], 1.0);
  EXPECT_EQ(r.messages[0].delivered_s, h.messages[0].delivered_s);
}

TEST(EventEngine, MessageLogRecordsDeliveries) {
  Fabric fabric = engine_fabric(false, false);
  std::vector<std::vector<RankOp>> programs(4);
  programs[0] = {RankOp::send(1, 128.0, /*tag=*/7)};
  programs[1] = {RankOp::recv(0, /*tag=*/7)};
  programs[2] = {RankOp::send(3, 256.0)};
  programs[3] = {RankOp::recv(2)};
  const EngineResult r = run_both(fabric, std::move(programs));
  ASSERT_EQ(r.messages.size(), 2u);
  EXPECT_EQ(r.messages[0].tag, 7);
  EXPECT_EQ(r.messages[1].bytes, 256.0);
  EXPECT_GT(r.messages[0].delivered_s, 0.0);
  EXPECT_EQ(r.clocks[1], r.messages[0].delivered_s);
}

// --- collectives ------------------------------------------------------------

TEST(EventEngine, CollectivesAlignAllClocks) {
  Fabric fabric = engine_fabric(false, false);
  const double cost = fabric.allreduce(4096.0, 8);
  EXPECT_GT(cost, 0.0);
  std::vector<std::vector<RankOp>> programs(8, {RankOp::collective(cost)});
  programs[3].insert(programs[3].begin(), RankOp::compute(1.0e-3));
  const EngineResult r = run_both(fabric, std::move(programs));
  for (const double clock : r.clocks) EXPECT_EQ(clock, 1.0e-3 + cost);
  EXPECT_EQ(r.events, 9u);
}

TEST(EventEngine, CollectivesMatchSerialAtAnyPoolSize) {
  Fabric fabric = engine_fabric(true, true);
  // The mixed ring workload with an allreduce closing every round
  // (compute, send, recv), under congestion and faults.
  const int ranks = 96;
  EventEngine engine(fabric,
                     ring_with_collectives(ranks, 6, 0xE7,
                                           fabric.allreduce(8192.0, ranks)));
  const EngineResult serial = run_all_pools(engine);
  EXPECT_GT(serial.total_retries(), 0);
  EXPECT_EQ(serial.events, 96u * 6u * 4u);
  for (const double clock : serial.clocks) {
    EXPECT_EQ(clock, serial.makespan_s);  // all leave the last collective
  }
}

TEST(EventEngine, RankFinishingBeforeACollectiveIsADeadlock) {
  Fabric fabric = engine_fabric(false, false);
  std::vector<std::vector<RankOp>> programs(3,
                                            {RankOp::collective(1.0e-6)});
  programs[2] = {RankOp::compute(1.0e-6)};  // never reaches it
  EventEngine engine(fabric, std::move(programs));
  EXPECT_THROW((void)engine.run_serial(), support::Error);
  EXPECT_THROW((void)engine.run_parallel(), support::Error);
}

TEST(EventEngine, CollectiveCostsMustAgree) {
  Fabric fabric = engine_fabric(false, false);
  EventEngine engine(fabric, {{RankOp::collective(1.0e-6)},
                              {RankOp::collective(2.0e-6)}});
  EXPECT_THROW((void)engine.run_serial(), support::Error);
  EXPECT_THROW((void)engine.run_parallel(), support::Error);
}

/// (track, label, start, duration) of every span a traced run records.
std::vector<std::tuple<std::string, std::string, double, double>> lane_spans(
    EventEngine& engine, bool parallel) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable();
  (void)(parallel ? engine.run_parallel() : engine.run_serial());
  const std::vector<trace::Event> events = tracer.snapshot();
  tracer.disable();
  tracer.clear();
  std::vector<std::tuple<std::string, std::string, double, double>> spans;
  for (const trace::Event& e : events) {
    spans.emplace_back(e.track, e.label, e.sim_s, e.value);
  }
  std::sort(spans.begin(), spans.end());
  return spans;
}

TEST(EventEngine, TracedRunsEmitPerRankLanes) {
  Fabric fabric = engine_fabric(false, false);
  const double cost = fabric.allreduce(4096.0, 2);
  EventEngine engine(
      fabric, {{RankOp::send(1, 1e6), RankOp::collective(cost)},
               {RankOp::compute(1.0e-9), RankOp::recv(0),
                RankOp::collective(cost)}});
  const auto spans = lane_spans(engine, /*parallel=*/false);
  std::vector<std::pair<std::string, std::string>> names;
  for (const auto& span : spans) {
    names.emplace_back(std::get<0>(span), std::get<1>(span));
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"fabric/rank0", "collective"},
      {"fabric/rank0", "isend->r1 " + support::format_bytes(1000000)},
      {"fabric/rank1", "collective"},
      {"fabric/rank1", "compute"},
      {"fabric/rank1", "wait"}};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(lane_spans(engine, /*parallel=*/true), spans);
  // Untraced runs record nothing.
  (void)engine.run_serial();
  EXPECT_TRUE(trace::Tracer::instance().snapshot().empty());
}

TEST(EventEngine, LookaheadIsPositiveOnRealMachines) {
  Fabric fabric = engine_fabric(false, false);
  EventEngine engine(fabric, ring_programs(4, 1, 0xE6));
  EXPECT_GT(engine.lookahead_s(), 0.0);
}

}  // namespace
}  // namespace exa::net
