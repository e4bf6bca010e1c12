/// Property tests of exa::net::Fabric using the qa core. The load-bearing
/// guarantee is the golden gate's foundation: with congestion and faults
/// off, every Fabric cost is the LogGP closed form — bitwise equal to the
/// per-phase loops it sums, and within 1e-9 relative of the textbook
/// formulas — over *random* machine configurations and message sizes as
/// well as the catalog machines. A further property drives the live fault
/// layer and asserts retried messages never overtake earlier ones on the
/// same (src, dst) channel.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "qa/property.hpp"

namespace exa::qa {
namespace {

/// A plausible-but-random machine: node counts spanning one switch to
/// beyond-Frontier scale, injection bandwidths from Ethernet-class to
/// Slingshot-class, and the full sane range of LogGP inputs.
arch::Machine gen_machine(Gen& g) {
  arch::Machine m = arch::machines::frontier();
  m.node_count = static_cast<int>(g.size(1, 16384));
  m.network.nic_bandwidth_bytes_per_s = g.uniform(1.0e9, 60.0e9);
  m.network.nics_per_node = static_cast<int>(g.size(1, 4));
  m.network.latency_s = g.uniform(1.0e-7, 5.0e-6);
  m.network.per_message_overhead_s = g.uniform(1.0e-7, 2.0e-6);
  m.network.bisection_factor = g.uniform(0.25, 1.0);
  return m;
}

double gen_bytes(Gen& g) {
  // Log-uniform over 1 B .. 1 GiB, plus the zero-byte edge.
  if (g.chance(0.05)) return 0.0;
  return std::pow(2.0, g.uniform(0.0, 30.0));
}

/// A quiet fabric's inputs: one time in four a catalog machine (GPU and
/// CPU-only nodes) with one rank per device, as the apps run it,
/// otherwise a random machine with 1..8 ranks per node; either topology;
/// GPU-aware MPI on or off.
struct QuietCase {
  arch::Machine machine;
  int rpn = 1;
  bool gpu_aware = true;
  net::Topology topology = net::Topology::kFatTree;
};

QuietCase gen_quiet_case(Gen& g) {
  QuietCase c;
  if (g.chance(0.25)) {
    const std::vector<arch::Machine> catalog = {
        arch::machines::frontier(), arch::machines::summit(),
        arch::machines::crusher(), arch::machines::spock(),
        arch::machines::eagle()};
    c.machine = g.pick(catalog);
    c.rpn = std::max(1, c.machine.node.gpus_per_node);
  } else {
    c.machine = gen_machine(g);
    c.rpn = static_cast<int>(g.size(1, 8));
  }
  c.gpu_aware = g.chance(0.5);
  c.topology =
      g.chance(0.5) ? net::Topology::kFatTree : net::Topology::kDragonfly;
  return c;
}

/// One batch of cost queries: a message size (zero included), a group of
/// up to 65536 ranks (small groups half the time) and 0..26 halo faces.
struct Query {
  double bytes = 0.0;
  int ranks = 1;
  int faces = 0;
};

Query gen_query(Gen& g, int total_ranks) {
  Query q;
  q.bytes = gen_bytes(g);
  const auto max_ranks = static_cast<std::size_t>(std::min(total_ranks, 65536));
  q.ranks = static_cast<int>(
      g.size(1, g.chance(0.5) ? std::min<std::size_t>(max_ranks, 64)
                              : max_ranks));
  q.faces = static_cast<int>(g.size(0, 26));
  return q;
}

constexpr std::array<const char*, 6> kOps = {
    "p2p", "halo", "allreduce", "alltoall", "bcast", "barrier"};

/// The six quiet cost queries of `model` (a Fabric or a test oracle).
template <typename Model>
std::array<double, 6> quiet_costs(const Model& model, const Query& q) {
  return {model.p2p(q.bytes), model.halo_exchange(q.bytes, q.faces),
          model.allreduce(q.bytes, q.ranks), model.alltoall(q.bytes, q.ranks),
          model.bcast(q.bytes, q.ranks), model.barrier(q.ranks)};
}

/// LogGP inputs of one machine as the quiet fabric reads them: latency L,
/// overhead o, per-rank bandwidth B (B_g under the bisection taper) and
/// the host-staging cost of one message end.
struct LogGPTerms {
  LogGPTerms(const arch::Machine& m, int rpn, bool gpu_aware)
      : L(m.network.latency_s),
        o(m.network.per_message_overhead_s),
        bw(m.network.node_injection_bandwidth() / static_cast<double>(rpn)),
        bwg(bw * m.network.bisection_factor),
        staged(!gpu_aware && m.node.has_gpu()),
        host_link(staged ? m.node.gpu->host_link : arch::HostLink{}) {}

  [[nodiscard]] double staging(double bytes) const {
    return staged ? host_link.latency_s + bytes / host_link.bandwidth_bytes_per_s
                  : 0.0;
  }
  [[nodiscard]] static double log2_ceil(int n) {
    return std::ceil(std::log2(static_cast<double>(n)));
  }

  double L, o, bw, bwg;
  bool staged;
  arch::HostLink host_link;
};

/// The textbook closed forms: a message costs L + o + m/B plus staging at
/// both ends; Rabenseifner allreduce, pairwise alltoall, pipelined
/// binomial bcast, latency-only barrier.
struct TextbookLogGP : LogGPTerms {
  using LogGPTerms::LogGPTerms;

  [[nodiscard]] double p2p(double m) const {
    return L + o + m / bw + 2.0 * staging(m);
  }
  [[nodiscard]] double halo_exchange(double m, int faces) const {
    return faces * p2p(m);
  }
  [[nodiscard]] double allreduce(double m, int p) const {
    if (p == 1) return 0.0;
    return 2.0 * log2_ceil(p) * (L + o) +
           2.0 * m * (static_cast<double>(p - 1) / p) / bwg + 2.0 * staging(m);
  }
  [[nodiscard]] double alltoall(double m, int p) const {
    if (p == 1) return 0.0;
    const double peers = p - 1;
    return peers * o + L + peers * m / bwg + 2.0 * staging(peers * m);
  }
  [[nodiscard]] double bcast(double m, int p) const {
    if (p == 1) return 0.0;
    return log2_ceil(p) * (L + o) + m / bwg + 2.0 * staging(m);
  }
  [[nodiscard]] double barrier(int p) const {
    return p == 1 ? 0.0 : 2.0 * log2_ceil(p) * (L + o);
  }
};

/// The oracle for the closed-form phase sums: the quiet Fabric as it
/// priced collectives one `+=` per phase (p - 1 ring phases per alltoall,
/// one per tree step or halo face), in the same operation order. p2p has
/// no phases and is the textbook one.
struct PhaseLoops : TextbookLogGP {
  using TextbookLogGP::TextbookLogGP;

  [[nodiscard]] double halo_exchange(double m, int faces) const {
    const double fixed = L + o + 2.0 * staging(m);
    double cost = 0.0;
    for (int f = 0; f < faces; ++f) cost += fixed + m / bw;
    return cost;
  }
  [[nodiscard]] double tree(double volume, int steps) const {
    const double per_phase = steps > 0 ? volume / steps : 0.0;
    double sum = 0.0;
    for (int j = 0; j < steps; ++j) sum += per_phase / bwg;
    return sum;
  }
  [[nodiscard]] double allreduce(double m, int p) const {
    if (p == 1) return 0.0;
    const double steps = 2.0 * log2_ceil(p);
    const double volume = 2.0 * m * (static_cast<double>(p - 1) / p);
    return steps * (L + o) + tree(volume, static_cast<int>(steps)) +
           2.0 * staging(m);
  }
  [[nodiscard]] double alltoall(double m, int p) const {
    if (p == 1) return 0.0;
    const double peers = p - 1;
    double ring = 0.0;
    for (int k = 0; k < p - 1; ++k) ring += m / bwg;
    return peers * o + L + ring + 2.0 * staging(peers * m);
  }
  [[nodiscard]] double bcast(double m, int p) const {
    if (p == 1) return 0.0;
    const double steps = log2_ceil(p);
    return steps * (L + o) + tree(m, static_cast<int>(steps)) +
           2.0 * staging(m);
  }
  [[nodiscard]] double barrier(int p) const {
    if (p == 1) return 0.0;
    const int steps = static_cast<int>(2.0 * log2_ceil(p));
    return steps * (L + o) + tree(0.0, steps);
  }
};

/// `%.17g`: enough digits to tell two doubles apart.
std::string exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Queries per generated fabric: a topology build costs far more than a
/// cost query, so each machine answers a batch.
constexpr int kQueriesPerFabric = 16;

/// Checks `kQueriesPerFabric` random queries of one random quiet fabric
/// against `Oracle`, with `same(want, got)` deciding agreement.
template <typename Oracle, typename Same>
void check_quiet_fabric(Gen& g, const Same& same, const char* oracle) {
  const QuietCase c = gen_quiet_case(g);
  net::FabricConfig config;
  config.topology = c.topology;
  const net::Fabric fabric(c.machine, c.rpn, config, c.gpu_aware);
  const Oracle model(c.machine, c.rpn, c.gpu_aware);
  for (int i = 0; i < kQueriesPerFabric; ++i) {
    const Query q = gen_query(g, fabric.total_ranks());
    const auto want = quiet_costs(model, q);
    const auto got = quiet_costs(fabric, q);
    for (std::size_t op = 0; op < kOps.size(); ++op) {
      require(same(want[op], got[op]),
              std::string(kOps[op]) + " drifted from the " + oracle +
                  ": want=" + exact(want[op]) + " fabric=" + exact(got[op]) +
                  " on " + c.machine.name + " rpn=" + std::to_string(c.rpn) +
                  " ranks=" + std::to_string(q.ranks) +
                  " bytes=" + exact(q.bytes) +
                  " faces=" + std::to_string(q.faces));
    }
  }
}

EXA_PROPERTY(FabricProps, QuietFabricMatchesPhaseLoops) {
  check_quiet_fabric<PhaseLoops>(
      g,
      [](double want, double got) {
        return std::bit_cast<std::uint64_t>(want) ==
               std::bit_cast<std::uint64_t>(got);
      },
      "per-phase loops");
}

EXA_PROPERTY(FabricProps, QuietFabricMatchesCommModel) {
  check_quiet_fabric<TextbookLogGP>(
      g,
      [](double want, double got) {
        const double scale = std::max(std::abs(want), 1e-300);
        return std::abs(got - want) / scale <= 1e-9;
      },
      "textbook LogGP formulas");
}

/// The 1e-9 analytic-equivalence gate extended to the event engine: with
/// congestion and faults off, every message the engine records must cost
/// exactly the p2p closed form (delivered - posted == fabric.p2p(bytes),
/// itself pinned to the textbook formula by the properties above), and the
/// conservative-lookahead parallel engine must be bitwise identical to
/// the serial event loop on the same random machine and program.
EXA_PROPERTY(FabricProps, QuietEngineMatchesClosedFormAndSerial) {
  const arch::Machine machine = gen_machine(g);
  const int rpn = static_cast<int>(g.size(1, 4));
  net::FabricConfig config;  // quiet: no congestion, no faults
  net::Fabric fabric(machine, rpn, config);

  const int max_ranks = std::min(fabric.total_ranks(), 32);
  if (max_ranks < 2) return;
  const int ranks =
      static_cast<int>(g.size(2, static_cast<std::size_t>(max_ranks)));
  std::vector<std::vector<net::RankOp>> programs(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& prog = programs[static_cast<std::size_t>(r)];
    prog.push_back(net::RankOp::compute(g.uniform(0.0, 1.0e-5)));
    prog.push_back(net::RankOp::send((r + 1) % ranks, gen_bytes(g)));
    prog.push_back(net::RankOp::recv((r - 1 + ranks) % ranks));
  }
  net::EventEngine engine(fabric, std::move(programs));
  const net::EngineResult serial = engine.run_serial();
  const net::EngineResult parallel = engine.run_parallel();
  require(serial.same_outcome(parallel),
          "parallel engine diverged from serial on a random quiet machine");

  for (const net::MessageRecord& msg : serial.messages) {
    const double want = fabric.p2p(msg.bytes);
    const double got = msg.delivered_s - msg.posted_s;
    const double scale = std::max(std::abs(want), 1e-300);
    require(std::abs(got - want) / scale <= 1e-9,
            "engine message cost drifted from the p2p closed form: want=" +
                std::to_string(want) + " got=" + std::to_string(got) +
                " bytes=" + std::to_string(msg.bytes));
    require(msg.retries == 0, "quiet fabric charged a retry");
  }
}

EXA_PROPERTY(FabricProps, RetriedMessagesPreserveChannelOrder) {
  arch::Machine machine = gen_machine(g);
  machine.node_count = std::max(machine.node_count, 4);
  net::FabricConfig config;
  config.congestion = g.chance(0.5);
  config.faults.drop_probability = g.uniform(0.05, 0.6);
  config.faults.seed = g.u64() | 1;
  if (g.chance(0.3)) {
    config.faults.degraded_link_fraction = g.uniform(0.0, 0.5);
    config.faults.degrade_factor = g.uniform(0.1, 1.0);
  }
  const net::Fabric fabric(machine, 2, config);

  // Ranks 0-1 share node 0 and ranks 2-3 node 1, so the channel is
  // same-node (ordered by the FIFO clamp alone) or crosses the fabric.
  const int src = static_cast<int>(g.size(0, 3));
  int dst = static_cast<int>(g.size(0, 3));
  if (dst == src) dst = (dst + 1) % 4;
  std::vector<std::vector<net::RankOp>> programs(4);
  for (int i = 0; i < 64; ++i) {
    // Occasionally advance the posting clock, occasionally post back-to-back.
    if (g.chance(0.5)) {
      programs[static_cast<std::size_t>(src)].push_back(
          net::RankOp::compute(g.uniform(0.0, 1.0e-4)));
    }
    programs[static_cast<std::size_t>(src)].push_back(
        net::RankOp::send(dst, gen_bytes(g)));
    programs[static_cast<std::size_t>(dst)].push_back(net::RankOp::recv(src));
  }
  net::EventEngine engine(fabric, std::move(programs));
  const net::EngineResult serial = engine.run_serial();
  require(serial.same_outcome(engine.run_parallel()),
          "parallel engine diverged from serial under retries");

  double last_delivered = -1.0;
  for (std::size_t i = 0; i < serial.messages.size(); ++i) {
    const net::MessageRecord& m = serial.messages[i];
    require(m.delivered_s >= m.posted_s,
            "delivery before posting at message " + std::to_string(i));
    require(m.delivered_s >= last_delivered,
            "message " + std::to_string(i) + " overtook its channel: " +
                std::to_string(m.delivered_s) + " < " +
                std::to_string(last_delivered));
    last_delivered = m.delivered_s;
  }
}

}  // namespace
}  // namespace exa::qa
