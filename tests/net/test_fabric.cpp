#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace exa::net {
namespace {

constexpr double kRelTol = 1e-9;

void expect_rel_near(double expected, double actual, const char* what) {
  const double scale = std::max(std::abs(expected), 1e-300);
  EXPECT_LE(std::abs(actual - expected) / scale, kRelTol)
      << what << ": expected " << expected << ", got " << actual;
}

Fabric analytic_fabric(Topology topo = Topology::kFatTree) {
  FabricConfig config;
  config.topology = topo;
  return Fabric(arch::machines::frontier(), 8, config);
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
  std::vector<int> path;
  topo.route(0, 0, path);
  EXPECT_TRUE(path.empty());  // same node: no links
  topo.route(0, 1, path);
  EXPECT_EQ(path.size(), 2u);  // same leaf: injection + ejection
  path.clear();
  topo.route(0, topo.node_count() - 1, path);
  EXPECT_EQ(path.size(), 4u);  // cross-leaf: + uplink + downlink
}

TEST(FabricTopology, DragonflyPathLengths) {
  const FabricTopology topo(arch::machines::frontier(), Topology::kDragonfly);
  std::vector<int> path;
  topo.route(0, 1, path);
  EXPECT_EQ(path.size(), 3u);  // intra-group: inj + local + ej
  path.clear();
  topo.route(0, topo.node_count() - 1, path);
  EXPECT_EQ(path.size(), 5u);  // inter-group: + local + global + local
}

TEST(FabricTopology, UplinksTaperToBisection) {
  const arch::Machine frontier = arch::machines::frontier();
  const FabricTopology topo(frontier, Topology::kFatTree);
  const double inj = frontier.network.node_injection_bandwidth();
  // Total uplink capacity of one leaf == leaf injection * bisection factor.
  double leaf_up = 0.0;
  std::vector<int> path;
  for (int spine = 0; spine < topo.spine_count(); ++spine) {
    path.clear();
    topo.route(0, topo.node_count() - 1, path);
  }
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
  std::vector<int> path;
  topo.route(0, 0, path);
  EXPECT_TRUE(path.empty());
}

// --- CommModel equivalence (the golden-gated guarantee) -------------------

TEST(Fabric, ReducesToCommModelWhenQuiet) {
  const Fabric fabric = analytic_fabric();
  const CommModel& model = fabric.analytic();
  for (const double bytes : {0.0, 8.0, 4096.0, 1.0e6, 1.0e9}) {
    expect_rel_near(model.p2p(bytes), fabric.p2p(bytes), "p2p");
    expect_rel_near(model.halo_exchange(bytes, 6),
                    fabric.halo_exchange(bytes, 6), "halo");
    for (const int ranks : {1, 2, 3, 7, 64, 1000, 4096, 32768}) {
      expect_rel_near(model.allreduce(bytes, ranks),
                      fabric.allreduce(bytes, ranks), "allreduce");
      expect_rel_near(model.alltoall(bytes, ranks),
                      fabric.alltoall(bytes, ranks), "alltoall");
      expect_rel_near(model.bcast(bytes, ranks), fabric.bcast(bytes, ranks),
                      "bcast");
    }
  }
  for (const int ranks : {2, 17, 8192}) {
    expect_rel_near(fabric.analytic().barrier(ranks), fabric.barrier(ranks),
                    "barrier");
  }
}

TEST(Fabric, NonGpuAwareStagingMatchesModel) {
  FabricConfig config;
  const Fabric fabric(arch::machines::frontier(), 8, config,
                      /*gpu_aware=*/false);
  const CommModel& model = fabric.analytic();
  expect_rel_near(model.alltoall(1e6, 256), fabric.alltoall(1e6, 256),
                  "staged alltoall");
  expect_rel_near(model.p2p(64.0 * 1024 * 1024),
                  fabric.p2p(64.0 * 1024 * 1024), "staged p2p");
}

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

TEST(Fabric, TransferRetriesPreserveChannelOrder) {
  FabricConfig config;
  config.congestion = true;
  config.faults.drop_probability = 0.4;
  config.faults.seed = 0xD20Full;
  Fabric fabric(arch::machines::frontier(), 8, config);
  double last = -1.0;
  int total_retries = 0;
  for (int i = 0; i < 200; ++i) {
    const auto t = fabric.transfer(0, 9, 4096.0, 0.0);
    EXPECT_GE(t.delivered_s, last) << "message " << i << " overtook";
    last = t.delivered_s;
    total_retries += t.retries;
  }
  EXPECT_GT(total_retries, 0) << "drop layer never fired at q=0.4";
}

TEST(Fabric, BackoffBeyond64RetriesIsDefined) {
  // Retry k backs off base * 2^k; past k = 63 that factor no longer fits a
  // 64-bit shift. Each message starts when the previous one landed, so
  // its delivery minus its start is at least its own backoff sum.
  FabricConfig config;
  config.faults.drop_probability = 0.9;
  config.faults.max_retries = 80;
  Fabric fabric(arch::machines::frontier(), 8, config);
  const double base = config.faults.backoff_base_s;
  double last = 0.0;
  int most_retries = 0;
  for (int i = 0; i < 100000 && most_retries < 65; ++i) {
    const auto t = fabric.transfer(0, 9, 4096.0, last);
    ASSERT_TRUE(std::isfinite(t.delivered_s)) << "message " << i;
    ASSERT_GE(t.delivered_s, last) << "message " << i << " overtook";
    if (t.retries >= 65) {
      // Backoffs 0..64 sum to base * (2^65 - 1).
      EXPECT_GE(t.delivered_s - last, 1.5 * std::ldexp(base, 64));
    }
    most_retries = std::max(most_retries, t.retries);
    last = t.delivered_s;
  }
  EXPECT_GE(most_retries, 65);
}

TEST(Fabric, TransferMatchesP2pWhenQuiet) {
  Fabric fabric = analytic_fabric();
  const double start = 1.5e-3;
  const auto t = fabric.transfer(0, fabric.total_ranks() - 1, 1e6, start);
  expect_rel_near(start + fabric.analytic().p2p(1e6), t.delivered_s,
                  "quiet transfer");
  EXPECT_EQ(t.retries, 0);
}

TEST(Fabric, TransfersSerializeOnSharedLinks) {
  Fabric fabric = congested_fabric();
  const int far = fabric.total_ranks() - 1;
  const auto first = fabric.transfer(0, far, 1e8, 0.0);
  const auto second = fabric.transfer(0, far, 1e8, 0.0);
  // Same path, same start: the second message queues behind the first.
  EXPECT_GT(second.delivered_s, first.delivered_s * 1.5);
}

TEST(Fabric, RejectsInvalidArguments) {
  Fabric fabric = analytic_fabric();
  EXPECT_THROW((void)fabric.alltoall(1.0, 0), support::Error);
  EXPECT_THROW((void)fabric.allreduce(1.0, -3), support::Error);
  EXPECT_THROW((void)fabric.bcast(1.0, 0), support::Error);
  EXPECT_THROW((void)fabric.p2p(-1.0), support::Error);
  EXPECT_THROW((void)fabric.transfer(0, -1, 1.0, 0.0), support::Error);
  FabricConfig bad;
  bad.faults.drop_probability = 0.99;  // > 0.9 cap
  EXPECT_THROW(Fabric(arch::machines::frontier(), 8, bad), support::Error);
}

}  // namespace
}  // namespace exa::net
