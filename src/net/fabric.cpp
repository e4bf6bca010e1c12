#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/assert.hpp"
#include "support/repeat_add.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "trace/tracer.hpp"

namespace exa::net {

namespace {

/// Nodes per leaf switch (fat-tree) / per group (dragonfly). 32 matches
/// the Slingshot leaf radix once half the ports face up.
constexpr int kNodesPerSwitch = 32;
/// Spine switches of the two-level fat-tree. Static (src+dst)%kSpines
/// routing over 8 spines is what makes aligned traffic hotspot.
constexpr int kSpines = 8;

[[nodiscard]] double log2_ceil(int n) {
  EXA_REQUIRE(n >= 1);
  return std::ceil(std::log2(static_cast<double>(n)));
}

/// Deterministic per-item uniform in [0, 1) for fault-membership draws.
[[nodiscard]] double hash_uniform(std::uint64_t seed, std::uint64_t item) {
  support::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ull * (item + 1)));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

}  // namespace

// --- FabricTopology -------------------------------------------------------

FabricTopology::FabricTopology(const arch::Machine& machine, Topology kind)
    : kind_(kind), node_count_(machine.node_count) {
  EXA_REQUIRE(node_count_ >= 1);
  const double inj = machine.network.node_injection_bandwidth();
  EXA_REQUIRE(inj > 0.0);
  const double taper = machine.network.bisection_factor;

  nodes_per_switch_ = std::min(node_count_, kNodesPerSwitch);
  switch_count_ = (node_count_ + nodes_per_switch_ - 1) / nodes_per_switch_;

  // Layout: [0, N) injection, [N, 2N) ejection, then the core links.
  links_.reserve(static_cast<std::size_t>(node_count_) * 2);
  for (int i = 0; i < 2 * node_count_; ++i) {
    FabricLink link;
    link.kind = i < node_count_ ? FabricLink::Kind::kInjection
                                : FabricLink::Kind::kEjection;
    link.bandwidth_bytes_per_s = inj;
    links_.push_back(link);
  }

  if (kind_ == Topology::kFatTree) {
    spine_count_ = std::min(kSpines, std::max(1, switch_count_ - 1));
    uplink_base_ = static_cast<int>(links_.size());
    // Per-leaf uplink capacity tapers to the bisection factor, split
    // evenly over the spines; downlinks mirror the uplinks.
    const double per_spine =
        nodes_per_switch_ * inj * taper / spine_count_;
    for (int dir = 0; dir < 2; ++dir) {
      for (int leaf = 0; leaf < switch_count_; ++leaf) {
        for (int spine = 0; spine < spine_count_; ++spine) {
          FabricLink link;
          link.kind = dir == 0 ? FabricLink::Kind::kUplink
                               : FabricLink::Kind::kDownlink;
          link.bandwidth_bytes_per_s = per_spine;
          links_.push_back(link);
        }
      }
    }
  } else {
    // Dragonfly: one shared intra-group fabric link per group, plus one
    // global optical link per ordered group pair, the group's tapered
    // global capacity split evenly across its peers.
    local_base_ = static_cast<int>(links_.size());
    for (int g = 0; g < switch_count_; ++g) {
      FabricLink link;
      link.kind = FabricLink::Kind::kLocal;
      link.bandwidth_bytes_per_s = nodes_per_switch_ * inj;
      links_.push_back(link);
    }
    global_base_ = static_cast<int>(links_.size());
    const int peers = std::max(1, switch_count_ - 1);
    const double per_peer = nodes_per_switch_ * inj * taper / peers;
    for (int gs = 0; gs < switch_count_; ++gs) {
      for (int gd = 0; gd < switch_count_; ++gd) {
        FabricLink link;
        link.kind = FabricLink::Kind::kGlobal;
        link.bandwidth_bytes_per_s = per_peer;
        links_.push_back(link);
      }
    }
  }
}

Route FabricTopology::route(int src_node, int dst_node) const {
  EXA_REQUIRE(src_node >= 0 && src_node < node_count_);
  EXA_REQUIRE(dst_node >= 0 && dst_node < node_count_);
  Route out;
  if (src_node == dst_node) return out;
  out.push_back(src_node);  // injection link
  const int ls = switch_of(src_node);
  const int ld = switch_of(dst_node);
  if (ls != ld) {
    if (kind_ == Topology::kFatTree) {
      const int spine = (ls + ld) % spine_count_;
      out.push_back(uplink_base_ + ls * spine_count_ + spine);
      out.push_back(uplink_base_ + switch_count_ * spine_count_ +
                    ld * spine_count_ + spine);
    } else {
      out.push_back(local_base_ + ls);
      out.push_back(global_base_ + ls * switch_count_ + ld);
      out.push_back(local_base_ + ld);
    }
  } else if (kind_ == Topology::kDragonfly) {
    out.push_back(local_base_ + ls);
  }
  out.push_back(node_count_ + dst_node);  // ejection link
  return out;
}

void FabricTopology::degrade_links(double fraction, std::uint64_t seed) {
  EXA_REQUIRE(fraction >= 0.0 && fraction <= 1.0);
  if (fraction <= 0.0) return;
  const int core_base =
      kind_ == Topology::kFatTree ? uplink_base_ : local_base_;
  for (std::size_t id = static_cast<std::size_t>(core_base);
       id < links_.size(); ++id) {
    if (hash_uniform(seed, id) < fraction) links_[id].degraded = true;
  }
}

// --- Fabric ---------------------------------------------------------------

Fabric::Fabric(const arch::Machine& machine, int ranks_per_node,
               FabricConfig config, bool gpu_aware)
    : machine_(machine),
      ranks_per_node_(ranks_per_node),
      gpu_aware_(gpu_aware),
      config_(config) {
  EXA_REQUIRE(machine_.node_count >= 1);
  EXA_REQUIRE(machine_.network.node_injection_bandwidth() > 0.0);
  EXA_REQUIRE(ranks_per_node_ >= 1);
  EXA_REQUIRE(config_.faults.degrade_factor > 0.0 &&
              config_.faults.degrade_factor <= 1.0);
  EXA_REQUIRE(config_.faults.drop_probability >= 0.0 &&
              config_.faults.drop_probability <= 0.9);
  EXA_REQUIRE(config_.faults.straggler_slowdown >= 1.0);
  EXA_REQUIRE(config_.faults.max_retries >= 0);
  // A negative backoff would deliver a retried message before
  // posted + latency + overhead, breaking EventEngine's lookahead bound.
  EXA_REQUIRE(std::isfinite(config_.faults.backoff_base_s) &&
              config_.faults.backoff_base_s >= 0.0);
  EXA_REQUIRE(config_.faults.degraded_link_fraction >= 0.0 &&
              config_.faults.degraded_link_fraction <= 1.0);
  EXA_REQUIRE(config_.max_sampled_phases >= 1);
  rank_bw_ = machine_.network.node_injection_bandwidth() /
             static_cast<double>(ranks_per_node_);
  rank_bw_global_ = rank_bw_ * machine_.network.bisection_factor;
  if (!event_driven()) return;  // quiet: no cost query reads the graph
  topo_.emplace(machine_, config_.topology);
  topo_->degrade_links(config_.faults.degraded_link_fraction,
                       config_.faults.seed);
}

double Fabric::staging_cost(double bytes) const {
  if (gpu_aware_ || !machine_.node.has_gpu()) return 0.0;
  const arch::HostLink& link = machine_.node.gpu->host_link;
  return link.latency_s + bytes / link.bandwidth_bytes_per_s;
}

bool Fabric::is_straggler(int rank) const {
  const auto& f = config_.faults;
  if (f.straggler_fraction <= 0.0) return false;
  return hash_uniform(f.seed ^ 0x57a6ull, static_cast<std::uint64_t>(rank)) <
         f.straggler_fraction;
}

void Fabric::trace(const char* op, double bytes, int ranks,
                   double cost) const {
  auto& tracer = trace::Tracer::instance();
  if (!tracer.enabled()) return;
  tracer.complete_at_cursor(
      std::string("fabric:") + op + " " +
          support::format_bytes(static_cast<std::uint64_t>(bytes)) + " x" +
          std::to_string(ranks),
      "fabric", cost, "net");
}

void Fabric::load_shift(int src, int dst, int len) const {
  auto& count = scratch_.count;
  if (count.empty()) count.assign(link_count(), 0);
  const int rpn = ranks_per_node_;
  while (len > 0) {
    const int run = std::min({len, rpn - src % rpn, rpn - dst % rpn});
    const int sn = src / rpn;
    const int dn = dst / rpn;
    if (sn != dn) {
      for (const int link : topo_->route(sn, dn)) {
        std::uint32_t& c = count[static_cast<std::size_t>(link)];
        if (c == 0) scratch_.touched.push_back(link);
        c += static_cast<std::uint32_t>(run);
      }
    }
    src += run;
    dst += run;
    len -= run;
  }
}

double Fabric::drain_loads(double bytes) const {
  // load_of[k] is k sequential `+= bytes` from 0.0, the ledger the
  // per-message walk kept; `k * bytes` would round differently.
  auto& load_of = scratch_.load_of;
  load_of.assign(1, 0.0);
  double worst = 0.0;
  const double degrade = config_.faults.degrade_factor;
  for (const int link : scratch_.touched) {
    const std::uint32_t k =
        std::exchange(scratch_.count[static_cast<std::size_t>(link)], 0u);
    while (load_of.size() <= k) load_of.push_back(load_of.back() + bytes);
    const double bw =
        topo_->links()[static_cast<std::size_t>(link)].effective_bandwidth(
            degrade);
    worst = std::max(worst, load_of[k] / bw);
  }
  scratch_.touched.clear();
  return worst;
}

double Fabric::retry_surcharge(double msgs, double msg_cost_s) const {
  const double q = config_.faults.drop_probability;
  if (q <= 0.0 || msgs <= 0.0) return 0.0;
  // First-order expected cost of the phase's slowest message dropping
  // once: probability any of the phase's messages drops, times one resend
  // plus the first backoff step.
  const double p_any = 1.0 - std::pow(1.0 - q, msgs);
  return p_any * (msg_cost_s + config_.faults.backoff_base_s);
}

double Fabric::ring_phases(double bytes_per_pair, int ranks) const {
  const auto& net = machine().network;
  const double bwg = rank_bandwidth_global();
  const int phases = ranks - 1;
  if (!event_driven()) {
    // (p-1) equal phases, summed in closed form.
    return support::repeat_add(0.0, bytes_per_pair / bwg,
                               static_cast<std::uint64_t>(phases));
  }
  const int samples = std::min(phases, config_.max_sampled_phases);
  // Each sampled phase is a shift r -> (r + k) % ranks: count its loads,
  // drain the bottleneck, add the fault surcharge.
  double sampled = 0.0;
  for (int i = 0; i < samples; ++i) {
    const int k =
        1 + static_cast<int>((static_cast<std::int64_t>(i) * phases) /
                             samples);
    if (bytes_per_pair > 0.0) {
      load_shift(0, k, ranks - k);
      load_shift(ranks - k, 0, k);
    }
    const double congested = drain_loads(bytes_per_pair);
    sampled += std::max(bytes_per_pair / bwg, congested) +
               retry_surcharge(static_cast<double>(ranks),
                               net.per_message_overhead_s +
                                   bytes_per_pair / bwg);
  }
  return sampled / samples * phases;
}

double Fabric::tree_phases(double total_volume, int ranks, int steps,
                           bool pairwise) const {
  const auto& net = machine().network;
  const double bwg = rank_bandwidth_global();
  const double per_phase =
      steps > 0 ? total_volume / static_cast<double>(steps) : 0.0;
  if (!event_driven()) {
    return support::repeat_add(0.0, per_phase / bwg,
                               static_cast<std::uint64_t>(steps));
  }
  const int levels = std::max(1, static_cast<int>(log2_ceil(ranks)));
  double total = 0.0;
  for (int j = 0; j < steps; ++j) {
    const int distance = 1 << (j % levels);
    double msgs = pairwise ? static_cast<double>(ranks) : 1.0;
    if (per_phase > 0.0 && pairwise) {
      // Recursive doubling: r <-> r ^ distance, so within each block of
      // 2 * distance ranks the two halves swap.
      msgs = 0.0;
      for (int lo = 0; ranks - lo > distance; lo += 2 * distance) {
        const int len = std::min(distance, ranks - lo - distance);
        load_shift(lo, lo + distance, len);
        load_shift(lo + distance, lo, len);
        msgs += 2.0 * len;
      }
    } else if (per_phase > 0.0) {
      // Binomial tree: r < distance sends to r + distance.
      const int len = std::max(0, std::min(distance, ranks - distance));
      load_shift(0, distance, len);
      msgs = static_cast<double>(len);
    }
    const double congested = drain_loads(per_phase);
    total += std::max(per_phase / bwg, congested) +
             retry_surcharge(msgs, net.per_message_overhead_s +
                                       per_phase / bwg);
  }
  return total;
}

double Fabric::p2p(double bytes) const {
  EXA_REQUIRE(bytes >= 0.0);
  const auto& net = machine().network;
  const double analytic = bytes / rank_bandwidth();
  double volume_s = analytic;
  if (event_driven()) {
    // Canonical placement: rank 0 to the last rank, crossing the core.
    if (bytes > 0.0) load_shift(0, total_ranks() - 1, 1);
    volume_s = std::max(analytic, drain_loads(bytes)) +
               retry_surcharge(1.0, net.per_message_overhead_s + analytic);
  }
  const double cost = net.latency_s + net.per_message_overhead_s + volume_s +
                      2.0 * staging_cost(bytes);  // D2H sender, H2D receiver
  trace("p2p", bytes, 2, cost);
  return cost;
}

double Fabric::halo_exchange(double bytes_per_face, int faces) const {
  EXA_REQUIRE(bytes_per_face >= 0.0);
  EXA_REQUIRE(faces >= 0);
  if (faces == 0) return 0.0;
  const auto& net = machine().network;
  const double bw = rank_bandwidth();
  // Faces serialize on the NIC; the two directions of one face are full
  // duplex, and staging is paid once per face per direction.
  const double fixed = net.latency_s + net.per_message_overhead_s +
                       2.0 * staging_cost(bytes_per_face);
  double cost = 0.0;
  if (!event_driven()) {
    cost = support::repeat_add(0.0, fixed + bytes_per_face / bw,
                               static_cast<std::uint64_t>(faces));
  } else {
    // All ranks exchange each face concurrently; neighbor offsets walk
    // the three axes of a cubic rank grid (±1, ±s, ±s²).
    const int p = total_ranks();
    const int stride = std::max(
        1, static_cast<int>(std::round(std::cbrt(static_cast<double>(p)))));
    for (int f = 0; f < faces; ++f) {
      const int axis = (f / 2) % 3;
      int offset = axis == 0 ? 1 : (axis == 1 ? stride : stride * stride);
      if (f % 2 == 1) offset = p - offset;  // negative direction mod p
      offset %= p;
      if (bytes_per_face > 0.0) {
        load_shift(0, offset, p - offset);
        load_shift(p - offset, 0, offset);
      }
      const double congested = drain_loads(bytes_per_face);
      cost += fixed + std::max(bytes_per_face / bw, congested) +
              retry_surcharge(static_cast<double>(p),
                              net.per_message_overhead_s +
                                  bytes_per_face / bw);
    }
  }
  trace("halo_exchange", bytes_per_face * faces, faces, cost);
  return cost;
}

double Fabric::allreduce(double bytes, int ranks) const {
  EXA_REQUIRE(bytes >= 0.0);
  EXA_REQUIRE_MSG(ranks >= 1, "allreduce needs a positive rank count");
  EXA_REQUIRE(ranks <= total_ranks());
  if (ranks == 1) return 0.0;
  const auto& net = machine().network;
  const double steps = 2.0 * log2_ceil(ranks);
  const double volume =
      2.0 * bytes * (static_cast<double>(ranks - 1) / ranks);
  const double cost =
      steps * (net.latency_s + net.per_message_overhead_s) +
      tree_phases(volume, ranks, static_cast<int>(steps), /*pairwise=*/true) +
      2.0 * staging_cost(bytes);
  trace("allreduce", bytes, ranks, cost);
  return cost;
}

double Fabric::alltoall(double bytes_per_pair, int ranks) const {
  EXA_REQUIRE(bytes_per_pair >= 0.0);
  EXA_REQUIRE_MSG(ranks >= 1, "alltoall needs a positive rank count");
  EXA_REQUIRE(ranks <= total_ranks());
  if (ranks == 1) return 0.0;
  const auto& net = machine().network;
  const double peers = static_cast<double>(ranks - 1);
  const double volume = peers * bytes_per_pair;
  const double cost = peers * net.per_message_overhead_s + net.latency_s +
                      ring_phases(bytes_per_pair, ranks) +
                      2.0 * staging_cost(volume);
  trace("alltoall", volume, ranks, cost);
  return cost;
}

double Fabric::bcast(double bytes, int ranks) const {
  EXA_REQUIRE(bytes >= 0.0);
  EXA_REQUIRE_MSG(ranks >= 1, "bcast needs a positive rank count");
  EXA_REQUIRE(ranks <= total_ranks());
  if (ranks == 1) return 0.0;
  const auto& net = machine().network;
  const double steps = log2_ceil(ranks);
  const double cost =
      steps * (net.latency_s + net.per_message_overhead_s) +
      tree_phases(bytes, ranks, static_cast<int>(steps), /*pairwise=*/false) +
      2.0 * staging_cost(bytes);
  trace("bcast", bytes, ranks, cost);
  return cost;
}

double Fabric::barrier(int ranks) const {
  EXA_REQUIRE_MSG(ranks >= 1, "barrier needs a positive rank count");
  EXA_REQUIRE(ranks <= total_ranks());
  if (ranks == 1) return 0.0;
  const auto& net = machine().network;
  const int steps = static_cast<int>(2.0 * log2_ceil(ranks));
  const double cost =
      steps * (net.latency_s + net.per_message_overhead_s) +
      tree_phases(0.0, ranks, steps, /*pairwise=*/true);
  trace("barrier", 0.0, ranks, cost);
  return cost;
}

Fabric::Path Fabric::path(int src_rank, int dst_rank, double bytes) const {
  EXA_REQUIRE(bytes >= 0.0);
  EXA_REQUIRE(src_rank >= 0 && src_rank < total_ranks());
  EXA_REQUIRE(dst_rank >= 0 && dst_rank < total_ranks());
  Path out;
  out.staging_s = 2.0 * staging_cost(bytes);  // D2H sender, H2D receiver
  if (topo_) {
    out.links = topo_->route(node_of_rank(src_rank), node_of_rank(dst_rank));
  }
  if (out.links.empty()) {
    // Same-node traffic or quiet fabric: closed-form serialization.
    out.serial_s = bytes / rank_bandwidth();
    return out;
  }
  for (const int link : out.links) {
    const double bw =
        topo_->links()[static_cast<std::size_t>(link)].effective_bandwidth(
            config_.faults.degrade_factor);
    out.serial_s = std::max(out.serial_s, bytes / bw);
  }
  return out;
}

}  // namespace exa::net
