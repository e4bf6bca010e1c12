#pragma once
/// \file fabric.hpp
/// Topology-aware event-driven network fabric — the one analytic LogGP
/// network model, plus the effects the Frontier CoE actually fought.
///
/// Quiet (`config.congestion == false`, no faults configured), every
/// message costs the closed form `L + o + m/B_eff`: L is the wire
/// latency, o the per-message software overhead, and B_eff the per-rank
/// share of node injection bandwidth (degraded by the topology's
/// bisection factor for global patterns). GPU-aware MPI sends device
/// buffers straight to the NIC; without it each end stages the message
/// across the host link first (§2.2's USE_DEVICE_PTR story). This is the
/// substrate of every scaling result in the paper: GESTS' transposes
/// (§3.3), Pele's ghost exchanges (§3.8), LAMMPS' QEq reductions
/// (§3.10.2), CoMet/ExaSky weak scaling (§3.4, §3.6).
///
/// On top of the same calibrated inputs the fabric adds what a closed form
/// is blind to (PAPER.md §2.2, §3.3, §3.6):
///
///  * a **link graph** derived from `arch::Machine` — a two-level tapered
///    fat-tree or a dragonfly built from the interconnect's injection
///    bandwidth and bisection factor;
///  * a **phase engine** for collectives: each collective becomes a
///    schedule of communication phases; quiet, its equal phases sum in
///    closed form (`support::repeat_add`, bitwise the per-phase loop), and
///    congested, every phase counts its messages per link, routing once
///    per run of ranks that share a (source node, destination node) pair,
///    and charges the bottleneck link; the phases sum in one serial loop;
///  * a **fault/perturbation layer**: deterministic degraded links,
///    straggler ranks, and dropped-then-retried messages with exponential
///    backoff.
///
/// `tests/qa` property-tests the quiet path over random and catalog
/// machines: bitwise against the per-phase loops, and to 1e-9 relative
/// against the textbook LogGP formulas (only floating-point association
/// differs). The congested path is property-tested bitwise against the
/// per-message `double` load walk it replaced.
///
/// Units: all times are seconds, all sizes bytes, all bandwidths bytes/s.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/machine.hpp"

namespace exa::net {

/// Inter-node wiring pattern the link graph is built on.
enum class Topology {
  kFatTree,    ///< two-level leaf/spine tree, uplinks tapered to bisection
  kDragonfly,  ///< node groups with all-to-all global links between groups
};

/// Fault / perturbation knobs. All effects are deterministic functions of
/// `seed` so runs replay bit-exactly.
struct FaultConfig {
  /// Fraction of fabric links (uplinks/global links) degraded at build
  /// time (dimensionless, in [0, 1]).
  double degraded_link_fraction = 0.0;
  /// Bandwidth multiplier a degraded link keeps (dimensionless, in (0, 1]).
  double degrade_factor = 0.25;
  /// Fraction of ranks that straggle (dimensionless, in [0, 1]).
  double straggler_fraction = 0.0;
  /// Compute-time multiplier for straggler ranks (dimensionless, >= 1).
  double straggler_slowdown = 1.0;
  /// Per-message drop probability (dimensionless, in [0, 0.9]).
  double drop_probability = 0.0;
  /// Upper bound on resend attempts for one message before it is charged
  /// as delivered anyway (count).
  int max_retries = 8;
  /// First-retry backoff (seconds); retry k waits `2^k` times this.
  double backoff_base_s = 5.0e-6;
  /// Seed for degraded-link selection, straggler membership, and message
  /// drop sampling.
  std::uint64_t seed = 0xFAB51Cull;

  /// True when any perturbation is configured (forces the event-driven
  /// engine on even if congestion modeling is off).
  [[nodiscard]] bool any() const {
    return degraded_link_fraction > 0.0 || straggler_fraction > 0.0 ||
           drop_probability > 0.0;
  }
};

/// Build-time fabric configuration.
struct FabricConfig {
  Topology topology = Topology::kFatTree;  ///< link-graph wiring pattern
  /// Model per-link bandwidth sharing under contention. Off (with no
  /// faults), every cost is the analytic LogGP closed form.
  bool congestion = false;
  FaultConfig faults;  ///< perturbation layer (defaults to none)
  /// Number of simulated ranks that get their own trace lane
  /// ("fabric/rank<i>") when the tracer is enabled (count).
  int trace_rank_lanes = 8;
  /// Phases sampled per collective when estimating congestion for large
  /// groups (count; the latency/volume ledger stays exact — sampling only
  /// extrapolates the congestion surcharge).
  int max_sampled_phases = 48;
};

/// One directed link of the fabric graph.
struct FabricLink {
  enum class Kind : std::uint8_t {
    kInjection,  ///< node NIC, node -> first switch
    kEjection,   ///< last switch -> node NIC
    kUplink,     ///< fat-tree: leaf -> spine (tapered)
    kDownlink,   ///< fat-tree: spine -> leaf (tapered)
    kLocal,      ///< dragonfly: intra-group fabric
    kGlobal,     ///< dragonfly: group <-> group optical link
  };
  Kind kind = Kind::kInjection;  ///< where this link sits in the graph
  /// Undegraded capacity (bytes/s).
  double bandwidth_bytes_per_s = 0.0;
  /// True when the fault layer degraded this link at build time.
  bool degraded = false;

  /// Capacity after degradation (bytes/s).
  [[nodiscard]] double effective_bandwidth(double degrade_factor) const {
    return degraded ? bandwidth_bytes_per_s * degrade_factor
                    : bandwidth_bytes_per_s;
  }
};

/// Link ids of one minimal path, in hop order. A path has at most five
/// links: a dragonfly inter-group hop is injection, local, global, local,
/// ejection.
class Route {
 public:
  void push_back(int link) { ids_[size_++] = link; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const int* begin() const { return ids_.data(); }
  [[nodiscard]] const int* end() const { return ids_.data() + size_; }

 private:
  std::array<int, 5> ids_{};
  std::uint32_t size_ = 0;
};

/// The link graph for one machine: builds the wiring and answers routing
/// queries (`route`) as lists of link ids. Paths are minimal and
/// deterministic (static routing — aligned traffic *does* hotspot, which
/// is the behavior the congestion model exists to expose).
class FabricTopology {
 public:
  /// Builds the graph for `machine` under wiring `kind`.
  FabricTopology(const arch::Machine& machine, Topology kind);

  /// Wiring pattern the graph was built with.
  [[nodiscard]] Topology kind() const { return kind_; }
  /// Number of endpoint nodes (count).
  [[nodiscard]] int node_count() const { return node_count_; }
  /// Nodes attached to one leaf switch / dragonfly group (count).
  [[nodiscard]] int nodes_per_switch() const { return nodes_per_switch_; }
  /// Leaf switches (fat-tree) or groups (dragonfly) (count).
  [[nodiscard]] int switch_count() const { return switch_count_; }
  /// Spine switches (fat-tree only; 0 for dragonfly) (count).
  [[nodiscard]] int spine_count() const { return spine_count_; }
  /// All links, indexable by the ids `route` emits.
  [[nodiscard]] const std::vector<FabricLink>& links() const { return links_; }

  /// The link ids of the (minimal, static) path from `src_node` to
  /// `dst_node`. Same-node traffic has none.
  [[nodiscard]] Route route(int src_node, int dst_node) const;

  /// Leaf switch / group of a node.
  [[nodiscard]] int switch_of(int node) const {
    return node / nodes_per_switch_;
  }

  /// Marks `fraction` of the core links (uplinks/downlinks/global) as
  /// degraded, selected deterministically from `seed`.
  void degrade_links(double fraction, std::uint64_t seed);

 private:
  Topology kind_;
  int node_count_ = 0;
  int nodes_per_switch_ = 0;
  int switch_count_ = 0;
  int spine_count_ = 0;
  std::vector<FabricLink> links_;
  /// First id of each link block (see fabric.cpp for the layout).
  int uplink_base_ = 0;
  int local_base_ = 0;
  int global_base_ = 0;
};

/// Event-driven multi-rank network fabric over one machine's interconnect.
/// All returned costs are seconds.
///
/// It holds no transport state: link cursors, the drop RNG and FIFO
/// channel order are `EventEngine`'s, which reads each message's `path`
/// here. Only an event-driven fabric builds the link graph.
///
/// Thread safety: quiet cost queries, `path` and `straggler_scale` are
/// safe to call concurrently, so engines may share one `const Fabric`.
/// Event-driven collectives reuse one per-fabric phase scratch, so those
/// calls on the same Fabric must be externally serialized.
class Fabric {
 public:
  /// `ranks_per_node` simulated ranks share each node's injection
  /// bandwidth; without `gpu_aware` every message end stages through the
  /// host link.
  explicit Fabric(const arch::Machine& machine, int ranks_per_node,
                  FabricConfig config = {}, bool gpu_aware = true);

  /// Build-time configuration.
  [[nodiscard]] const FabricConfig& config() const { return config_; }
  /// Machine the fabric models.
  [[nodiscard]] const arch::Machine& machine() const { return machine_; }
  /// Simulated ranks per node (count).
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }
  /// Total simulated ranks (count).
  [[nodiscard]] int total_ranks() const {
    return machine_.node_count * ranks_per_node_;
  }
  /// True when the event-driven engine is active (congestion on or any
  /// fault configured); false means every cost is the LogGP closed form.
  [[nodiscard]] bool event_driven() const {
    return config_.congestion || config_.faults.any();
  }

  /// Per-rank share of node injection bandwidth (bytes/s).
  [[nodiscard]] double rank_bandwidth() const { return rank_bw_; }
  /// rank_bandwidth degraded by the bisection factor (global patterns).
  [[nodiscard]] double rank_bandwidth_global() const {
    return rank_bw_global_;
  }
  /// Cost (seconds) of staging a `bytes`-sized device buffer through the
  /// host on one message end; zero when GPU-aware or CPU-only.
  [[nodiscard]] double staging_cost(double bytes) const;

  // --- cost queries (seconds) -------------------------------------------

  /// Point-to-point message of `bytes` between ranks on different nodes
  /// (seconds).
  [[nodiscard]] double p2p(double bytes) const;
  /// Halo exchange of `bytes_per_face` with `faces` neighbors (seconds).
  [[nodiscard]] double halo_exchange(double bytes_per_face, int faces) const;
  /// Allreduce of `bytes` over `ranks` ranks (Rabenseifner: reduce-scatter
  /// + allgather) (seconds).
  [[nodiscard]] double allreduce(double bytes, int ranks) const;
  /// Personalized all-to-all of `bytes_per_pair` within `ranks` ranks
  /// (seconds).
  [[nodiscard]] double alltoall(double bytes_per_pair, int ranks) const;
  /// Broadcast of `bytes` to `ranks` ranks (binomial tree, pipelined: the
  /// volume is paid once, the latency per tree level) (seconds).
  [[nodiscard]] double bcast(double bytes, int ranks) const;
  /// Barrier over `ranks` ranks: latency-only tree (seconds).
  [[nodiscard]] double barrier(int ranks) const;

  // --- message paths (EventEngine substrate) -----------------------------

  /// What one message costs regardless of the traffic before it.
  struct Path {
    Route links;  ///< links it occupies; none when quiet or same-node
    /// `bytes` over the slowest of `links`, or over the rank's injection
    /// share when there are none (seconds).
    double serial_s = 0.0;
    double staging_s = 0.0;  ///< host staging at both ends (seconds)
  };

  /// The path of `bytes` from `src_rank` to `dst_rank`.
  [[nodiscard]] Path path(int src_rank, int dst_rank, double bytes) const;
  /// Links in the graph, the ids `path` emits (count; 0 when quiet).
  [[nodiscard]] std::size_t link_count() const {
    return topo_ ? topo_->links().size() : 0;
  }

  /// Node hosting `rank` (block placement: rank / ranks_per_node).
  [[nodiscard]] int node_of_rank(int rank) const {
    return rank / ranks_per_node_;
  }
  /// True when the fault layer marked `rank` a straggler.
  [[nodiscard]] bool is_straggler(int rank) const;
  /// Compute-time multiplier for `rank` (dimensionless; 1 for healthy
  /// ranks, `straggler_slowdown` for stragglers).
  [[nodiscard]] double straggler_scale(int rank) const {
    return is_straggler(rank) ? config_.faults.straggler_slowdown : 1.0;
  }

 private:
  /// Link loads of one phase of a collective. Every message of a phase
  /// has the same size, so a link's load after k messages is k
  /// sequential `+= bytes`, whichever ranks sent them: the phase counts
  /// messages per link and `drain_loads` turns counts into loads.
  struct PhaseScratch {
    std::vector<std::uint32_t> count;  ///< messages per link this phase
    std::vector<int> touched;          ///< links with a nonzero count
    std::vector<double> load_of;       ///< load_of[k]: k sequential adds
  };

  /// Counts one message from rank `src + i` to rank `dst + i` for every i
  /// in [0, len), routing once per run of ranks that share a (source
  /// node, destination node) pair (same-node runs load no link).
  void load_shift(int src, int dst, int len) const;
  /// Bottleneck seconds of the phase counted since the last drain, whose
  /// messages carry `bytes` each (max of load / effective bandwidth over
  /// the touched links), then clears the counts.
  [[nodiscard]] double drain_loads(double bytes) const;
  /// Expected fault surcharge for one phase of `msgs` concurrent messages
  /// whose resend costs `msg_cost_s` (seconds).
  [[nodiscard]] double retry_surcharge(double msgs, double msg_cost_s) const;
  /// Shared engine for ring-style phase schedules (alltoall).
  [[nodiscard]] double ring_phases(double bytes_per_pair, int ranks) const;
  /// Shared engine for XOR/binomial phase schedules (allreduce, bcast,
  /// barrier). Returns the volume + congestion + fault portion only; the
  /// caller owns latency and staging terms.
  [[nodiscard]] double tree_phases(double total_volume, int ranks, int steps,
                                   bool pairwise) const;
  void trace(const char* op, double bytes, int ranks, double cost) const;

  arch::Machine machine_;
  int ranks_per_node_;
  bool gpu_aware_;
  FabricConfig config_;
  /// The two rank bandwidths (bytes/s), computed once per fabric.
  double rank_bw_ = 0.0;
  double rank_bw_global_ = 0.0;
  /// The link graph; built only when event-driven.
  std::optional<FabricTopology> topo_;
  /// The phase scratch of the event-driven collectives; `count` is sized
  /// to the link graph on first use.
  mutable PhaseScratch scratch_;
};

}  // namespace exa::net
