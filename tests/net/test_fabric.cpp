#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "net/engine.hpp"

#include "support/assert.hpp"

namespace exa::net {
namespace {

constexpr double kRelTol = 1e-9;

void expect_rel_near(double expected, double actual, const char* what) {
  const double scale = std::max(std::abs(expected), 1e-300);
  EXPECT_LE(std::abs(actual - expected) / scale, kRelTol)
      << what << ": expected " << expected << ", got " << actual;
}

Fabric analytic_fabric(Topology topo = Topology::kFatTree,
                       bool gpu_aware = true) {
  FabricConfig config;
  config.topology = topo;
  return Fabric(arch::machines::frontier(), 8, config, gpu_aware);
}

Fabric congested_fabric(Topology topo = Topology::kFatTree) {
  FabricConfig config;
  config.topology = topo;
  config.congestion = true;
  return Fabric(arch::machines::frontier(), 8, config);
}

// --- topology -------------------------------------------------------------

TEST(FabricTopology, FatTreePathLengths) {
  const FabricTopology topo(arch::machines::frontier(), Topology::kFatTree);
  EXPECT_TRUE(topo.route(0, 0).empty());  // same node: no links
  EXPECT_EQ(topo.route(0, 1).size(), 2u);  // same leaf: injection + ejection
  // cross-leaf: + uplink + downlink
  EXPECT_EQ(topo.route(0, topo.node_count() - 1).size(), 4u);
}

TEST(FabricTopology, DragonflyPathLengths) {
  const FabricTopology topo(arch::machines::frontier(), Topology::kDragonfly);
  EXPECT_EQ(topo.route(0, 1).size(), 3u);  // intra-group: inj + local + ej
  // inter-group: + local + global + local
  EXPECT_EQ(topo.route(0, topo.node_count() - 1).size(), 5u);
}

TEST(FabricTopology, UplinksTaperToBisection) {
  const arch::Machine frontier = arch::machines::frontier();
  const FabricTopology topo(frontier, Topology::kFatTree);
  const double inj = frontier.network.node_injection_bandwidth();
  // Total uplink capacity of one leaf == leaf injection * bisection factor.
  double leaf_up = 0.0;
  for (const auto& link : topo.links()) {
    if (link.kind == FabricLink::Kind::kUplink) {
      leaf_up += link.bandwidth_bytes_per_s;
    }
  }
  leaf_up /= topo.switch_count();  // summed over all leaves above
  EXPECT_NEAR(leaf_up,
              topo.nodes_per_switch() * inj *
                  frontier.network.bisection_factor,
              leaf_up * 1e-12);
}

TEST(FabricTopology, SingleNodeMachineBuilds) {
  arch::Machine one = arch::machines::frontier();
  one.node_count = 1;
  const FabricTopology topo(one, Topology::kFatTree);
  EXPECT_EQ(topo.switch_count(), 1);
  EXPECT_TRUE(topo.route(0, 0).empty());
}

// --- the LogGP communication model, priced by the quiet fabric ------------
//
// Suite `CommModel`: the closed-form behaviours every scaling study leans
// on. tests/qa pins the quiet costs to the textbook formulas over random
// and catalog machines; these cases pin their shape on Frontier.

TEST(CommModel, RankBandwidthSharesNode) {
  const Fabric c = analytic_fabric();
  EXPECT_DOUBLE_EQ(c.rank_bandwidth(), 100e9 / 8.0);
  EXPECT_LT(c.rank_bandwidth_global(), c.rank_bandwidth());
}

TEST(CommModel, P2pLatencyPlusBandwidth) {
  const Fabric c = analytic_fabric();
  const double small = c.p2p(8.0);
  const double large = c.p2p(1e9);
  EXPECT_GT(small, 1e-6);                       // latency floor
  EXPECT_NEAR(large, 1e9 / c.rank_bandwidth(), large * 0.05);
}

TEST(CommModel, NonGpuAwareStagingCosts) {
  const Fabric aware = analytic_fabric(Topology::kFatTree, true);
  const Fabric staged = analytic_fabric(Topology::kFatTree, false);
  const double bytes = 64.0 * 1024 * 1024;
  // Staging through the host link on both ends adds real time — the
  // USE_DEVICE_PTR / GPU-aware-MPI motivation of §2.2.
  EXPECT_GT(staged.p2p(bytes), 1.5 * aware.p2p(bytes));
  EXPECT_GT(staged.staging_cost(bytes), 0.0);
  EXPECT_DOUBLE_EQ(aware.staging_cost(bytes), 0.0);
}

TEST(CommModel, CpuMachineHasNoStaging) {
  const Fabric c(arch::machines::eagle(), 1, {}, /*gpu_aware=*/false);
  EXPECT_DOUBLE_EQ(c.staging_cost(1e6), 0.0);
  EXPECT_GT(c.p2p(1e6), 0.0);
}

TEST(CommModel, AllreduceLogScaling) {
  const Fabric c = analytic_fabric();
  const double t2 = c.allreduce(8.0, 2);
  const double t1024 = c.allreduce(8.0, 1024);
  // Small-message allreduce grows with log2(P): 10x steps for 2->1024.
  EXPECT_NEAR(t1024 / t2, 10.0, 1.5);
  EXPECT_DOUBLE_EQ(c.allreduce(8.0, 1), 0.0);
}

TEST(CommModel, AllreduceBandwidthTermSaturates) {
  const Fabric c = analytic_fabric();
  const double big = 1e9;
  const double t64 = c.allreduce(big, 64);
  const double t4096 = c.allreduce(big, 4096);
  // Volume term approaches 2*bytes/bw regardless of P.
  EXPECT_NEAR(t4096 / t64, 1.0, 0.1);
}

TEST(CommModel, AlltoallGrowsWithGroup) {
  const Fabric c = analytic_fabric();
  const double per_pair = 1e6;
  EXPECT_LT(c.alltoall(per_pair, 8), c.alltoall(per_pair, 64));
  EXPECT_DOUBLE_EQ(c.alltoall(per_pair, 1), 0.0);
}

TEST(CommModel, HaloExchangeScalesWithFaces) {
  const Fabric c = analytic_fabric();
  EXPECT_DOUBLE_EQ(c.halo_exchange(1e6, 0), 0.0);
  EXPECT_NEAR(c.halo_exchange(1e6, 6) / c.halo_exchange(1e6, 1), 6.0, 1e-9);
}

TEST(CommModel, BcastTreeDepth) {
  const Fabric c = analytic_fabric();
  EXPECT_DOUBLE_EQ(c.bcast(1e6, 1), 0.0);
  EXPECT_LT(c.bcast(8.0, 2), c.bcast(8.0, 4096));
}

TEST(CommModel, BarrierLatencyOnly) {
  const Fabric c = analytic_fabric();
  EXPECT_DOUBLE_EQ(c.barrier(1), 0.0);
  EXPECT_GT(c.barrier(2), 0.0);
  EXPECT_LT(c.barrier(9408), 100e-6);
}

TEST(CommModel, SummitVsFrontierInjection) {
  const Fabric summit(arch::machines::summit(), 6);
  const Fabric frontier = analytic_fabric();
  // Frontier's Slingshot-11 node injection is 4x Summit's dual EDR.
  EXPECT_GT(summit.p2p(1e9), frontier.p2p(1e9));
}

TEST(CommModel, InvalidArgsRejected) {
  const Fabric c = analytic_fabric();
  EXPECT_THROW((void)c.p2p(-1.0), support::Error);
  EXPECT_THROW((void)c.allreduce(8.0, 0), support::Error);
  EXPECT_THROW(Fabric(arch::machines::frontier(), 0), support::Error);
}

TEST(CommModel, CollectivesRejectNonPositiveRanks) {
  // Regression: an app computing "ranks = nodes - spares" can go to
  // zero or negative on tiny configs; that must throw, not model a free or
  // negative-cost collective.
  const Fabric c = analytic_fabric();
  for (const int bad : {0, -1, -4096}) {
    EXPECT_THROW((void)c.alltoall(1e6, bad), support::Error);
    EXPECT_THROW((void)c.bcast(1e6, bad), support::Error);
    EXPECT_THROW((void)c.allreduce(1e6, bad), support::Error);
    EXPECT_THROW((void)c.barrier(bad), support::Error);
  }
}

TEST(CommModel, SingleRankCollectivesAreFree) {
  // ranks == 1 is a degenerate-but-legal communicator: no wire traffic,
  // exactly zero cost (not latency, not staging).
  const Fabric c = analytic_fabric(Topology::kFatTree, /*gpu_aware=*/false);
  EXPECT_DOUBLE_EQ(c.alltoall(1e9, 1), 0.0);
  EXPECT_DOUBLE_EQ(c.bcast(1e9, 1), 0.0);
  EXPECT_DOUBLE_EQ(c.allreduce(1e9, 1), 0.0);
  EXPECT_DOUBLE_EQ(c.barrier(1), 0.0);
}

// --- event-driven engine switch -------------------------------------------

TEST(Fabric, EventDrivenFlagTracksConfig) {
  EXPECT_FALSE(analytic_fabric().event_driven());
  EXPECT_TRUE(congested_fabric().event_driven());
  FabricConfig config;
  config.faults.drop_probability = 0.1;
  EXPECT_TRUE(Fabric(arch::machines::frontier(), 8, config).event_driven());
}

// --- congestion -----------------------------------------------------------

TEST(Fabric, CongestionNeverCheapensACollective) {
  const Fabric off = analytic_fabric();
  const Fabric on = congested_fabric();
  for (const int ranks : {8, 256, 8192}) {
    EXPECT_GE(on.alltoall(1e6, ranks), off.alltoall(1e6, ranks) * (1 - 1e-12));
    EXPECT_GE(on.allreduce(1e6, ranks),
              off.allreduce(1e6, ranks) * (1 - 1e-12));
  }
}

TEST(Fabric, AlignedAlltoallHotspotsAtScale) {
  const Fabric off = analytic_fabric();
  const Fabric on = congested_fabric();
  // Within one leaf switch (32 nodes * 8 ranks) static routing cannot
  // congest: the analytic bisection share is the binding term.
  const int small = 256;
  EXPECT_NEAR(on.alltoall(1e6, small), off.alltoall(1e6, small),
              off.alltoall(1e6, small) * 1e-9);
  // Across >= 1024 nodes the (src+dst)%spines static routes collide and
  // the bottleneck spine link dominates the bisection share.
  const int large = 1024 * 8;
  EXPECT_GT(on.alltoall(1e6, large), 1.5 * off.alltoall(1e6, large));
}

TEST(Fabric, DragonflyCongestsGlobalLinks) {
  const Fabric off = analytic_fabric(Topology::kDragonfly);
  const Fabric on = congested_fabric(Topology::kDragonfly);
  const int large = 2048 * 8;
  EXPECT_GT(on.alltoall(1e5, large), 1.5 * off.alltoall(1e5, large));
}

// --- faults ---------------------------------------------------------------

TEST(Fabric, DegradedLinksSlowCollectives) {
  FabricConfig config;
  config.congestion = true;
  config.faults.degraded_link_fraction = 0.5;
  config.faults.degrade_factor = 0.1;
  const Fabric degraded(arch::machines::frontier(), 8, config);
  const Fabric healthy = congested_fabric();
  EXPECT_GT(degraded.alltoall(1e6, 4096), healthy.alltoall(1e6, 4096));
}

TEST(Fabric, DropProbabilityAddsExpectedRetryCost) {
  FabricConfig config;
  config.faults.drop_probability = 0.05;
  const Fabric flaky(arch::machines::frontier(), 8, config);
  const Fabric clean = analytic_fabric();
  EXPECT_GT(flaky.allreduce(1e6, 1024), clean.allreduce(1e6, 1024));
}

TEST(Fabric, StragglerMembershipIsDeterministic) {
  FabricConfig config;
  config.faults.straggler_fraction = 0.25;
  config.faults.straggler_slowdown = 3.0;
  const Fabric fabric(arch::machines::frontier(), 8, config);
  int stragglers = 0;
  for (int r = 0; r < 1000; ++r) {
    const bool s = fabric.is_straggler(r);
    EXPECT_EQ(s, fabric.is_straggler(r));  // stable
    if (s) ++stragglers;
    EXPECT_DOUBLE_EQ(fabric.straggler_scale(r), s ? 3.0 : 1.0);
  }
  EXPECT_GT(stragglers, 150);
  EXPECT_LT(stragglers, 350);
}

// --- message transport, driven through EventEngine programs ---------------

/// Frontier cut to `nodes` nodes of 8 ranks: small enough to give every
/// rank up to the last one an engine program.
Fabric small_frontier(FabricConfig config, int nodes) {
  arch::Machine machine = arch::machines::frontier();
  machine.node_count = nodes;
  return Fabric(machine, 8, config);
}

/// Programs for ranks [0, ranks): `src` posts `count` back-to-back sends of
/// `bytes` to `dst`, which receives them all.
std::vector<std::vector<RankOp>> stream_programs(int ranks, int src, int dst,
                                                 int count, double bytes) {
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(ranks));
  for (int i = 0; i < count; ++i) {
    programs[static_cast<std::size_t>(src)].push_back(RankOp::send(dst, bytes));
    programs[static_cast<std::size_t>(dst)].push_back(RankOp::recv(src));
  }
  return programs;
}

TEST(Fabric, TransferRetriesPreserveChannelOrder) {
  FabricConfig config;
  config.congestion = true;
  config.faults.drop_probability = 0.4;
  config.faults.seed = 0xD20Full;
  const Fabric fabric(arch::machines::frontier(), 8, config);
  EventEngine engine(fabric, stream_programs(10, 0, 9, 200, 4096.0));
  const EngineResult result = engine.run_serial();
  ASSERT_EQ(result.messages.size(), 200u);
  double last = -1.0;
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    EXPECT_GE(result.messages[i].delivered_s, last)
        << "message " << i << " overtook";
    last = result.messages[i].delivered_s;
  }
  EXPECT_GT(result.total_retries(), 0) << "drop layer never fired at q=0.4";
}

TEST(Fabric, BackoffBeyond64RetriesIsDefined) {
  // Retry k backs off base * 2^k; past k = 63 that factor no longer fits a
  // 64-bit shift. A message's delivery minus its post is at least its own
  // backoff sum.
  FabricConfig config;
  config.faults.drop_probability = 0.9;
  config.faults.max_retries = 80;
  const Fabric fabric(arch::machines::frontier(), 8, config);
  EventEngine engine(fabric, stream_programs(10, 0, 9, 20000, 4096.0));
  const EngineResult result = engine.run_serial();
  const double base = config.faults.backoff_base_s;
  double last = 0.0;
  int most_retries = 0;
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    const MessageRecord& m = result.messages[i];
    ASSERT_TRUE(std::isfinite(m.delivered_s)) << "message " << i;
    ASSERT_GE(m.delivered_s, last) << "message " << i << " overtook";
    if (m.retries >= 65) {
      // Backoffs 0..64 sum to base * (2^65 - 1).
      EXPECT_GE(m.delivered_s - m.posted_s, 1.5 * std::ldexp(base, 64));
    }
    most_retries = std::max(most_retries, m.retries);
    last = m.delivered_s;
  }
  EXPECT_GE(most_retries, 65);
}

TEST(Fabric, TransferMatchesP2pWhenQuiet) {
  const Fabric fabric = small_frontier({}, 2);
  const int far = fabric.total_ranks() - 1;
  const double start = 1.5e-3;
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(far) + 1);
  programs[0] = {RankOp::compute(start), RankOp::send(far, 1e6)};
  programs[static_cast<std::size_t>(far)] = {RankOp::recv(0)};
  EventEngine engine(fabric, std::move(programs));
  const EngineResult result = engine.run_serial();
  ASSERT_EQ(result.messages.size(), 1u);
  expect_rel_near(start + fabric.p2p(1e6), result.messages[0].delivered_s,
                  "quiet transfer");
  EXPECT_EQ(result.messages[0].retries, 0);
}

TEST(Fabric, TransfersSerializeOnSharedLinks) {
  FabricConfig config;
  config.congestion = true;
  const Fabric fabric = small_frontier(config, 64);
  const int far = fabric.total_ranks() - 1;
  // Ranks 0 and 1 share node 0's injection link and post at time 0 on two
  // channels, so only the link, not channel order, can delay the second.
  std::vector<std::vector<RankOp>> programs(static_cast<std::size_t>(far) + 1);
  programs[0] = {RankOp::send(far, 1e8)};
  programs[1] = {RankOp::send(far, 1e8)};
  programs[static_cast<std::size_t>(far)] = {RankOp::recv(0), RankOp::recv(1)};
  EventEngine engine(fabric, std::move(programs));
  const EngineResult result = engine.run_serial();
  ASSERT_EQ(result.messages.size(), 2u);
  // Same path, same start: the second message queues behind the first.
  EXPECT_GT(result.messages[1].delivered_s,
            result.messages[0].delivered_s * 1.5);
}

TEST(Fabric, RejectsInvalidArguments) {
  Fabric fabric = analytic_fabric();
  EXPECT_THROW((void)fabric.alltoall(1.0, 0), support::Error);
  EXPECT_THROW((void)fabric.allreduce(1.0, -3), support::Error);
  EXPECT_THROW((void)fabric.bcast(1.0, 0), support::Error);
  EXPECT_THROW((void)fabric.p2p(-1.0), support::Error);
  EXPECT_THROW((void)fabric.path(0, -1, 1.0), support::Error);
  FabricConfig bad;
  bad.faults.drop_probability = 0.99;  // > 0.9 cap
  EXPECT_THROW(Fabric(arch::machines::frontier(), 8, bad), support::Error);
  // A negative or non-finite backoff would let a retried message land
  // before posted + latency + overhead, the engine's lookahead bound.
  for (const double backoff : {-1e-3, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    FabricConfig retry;
    retry.faults.drop_probability = 0.9;
    retry.faults.backoff_base_s = backoff;
    EXPECT_THROW(Fabric(arch::machines::frontier(), 8, retry), support::Error)
        << "backoff_base_s = " << backoff;
  }
}

}  // namespace
}  // namespace exa::net
