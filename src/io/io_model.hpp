#pragma once
/// \file io_model.hpp
/// Configuration of the storage model: a Lustre-like parallel filesystem
/// (OSTs, striping, per-OST bandwidth, metadata cost) plus an optional
/// node-local burst-buffer tier.
///
/// Every application in the paper checkpoints and writes analysis output
/// at scale (Pele plotfiles §3.8, GESTS field dumps §3.3, LAMMPS restart
/// dumps §3.10), yet the simulator priced compute (`exa::sim`) and the
/// network (`exa::net`) while treating storage as free. `IoConfig` is the
/// knob set `exa::io::FileSystem` prices those writes against.
///
/// **Quiet default (golden-gated):** a default-constructed `IoConfig` is
/// the *free* filesystem — infinite bandwidth everywhere and zero
/// metadata cost — so every operation completes at the virtual time it
/// started and adds exactly 0.0 seconds to any total. App drivers carry
/// an `IoConfig` member and all pre-existing golden baselines stay
/// bit-stable. `lustre()` / `lustre_with_burst_buffer()` are calibrated
/// non-trivial presets.
///
/// Units: all times seconds, all sizes bytes, all bandwidths bytes/s.

#include <limits>
#include <string>

namespace exa::io {

/// How the node-local burst-buffer tier (if any) completes writes.
enum class BurstBufferPolicy {
  kNone,          ///< no burst buffer: writes go straight to the PFS
  kWriteThrough,  ///< absorb locally, drain to the PFS immediately
  kWriteBack,     ///< absorb locally, drain only on flush()/drain_all()
};

[[nodiscard]] std::string to_string(BurstBufferPolicy policy);

/// The Lustre-like parallel-filesystem tier: `ost_count` object storage
/// targets each serving `ost_bandwidth_bytes_per_s`, files striped
/// round-robin over `stripe_count` OSTs in `stripe_size_bytes` chunks,
/// and one metadata server charging `metadata_op_s` per open/close.
struct PfsConfig {
  /// Object storage targets (count, >= 1).
  int ost_count = 8;
  /// Sustained write bandwidth of one OST (bytes/s; +inf = free).
  double ost_bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
  /// OSTs one file stripes over (count, >= 1, <= ost_count).
  int stripe_count = 4;
  /// Round-robin stripe chunk size (whole bytes, > 0, < 2^53).
  double stripe_size_bytes = 1.0 * 1024 * 1024;
  /// Metadata-server cost of one open or close, serialized through the
  /// single MDS (seconds, >= 0; 0 = free).
  double metadata_op_s = 0.0;
};

/// The node-local burst-buffer tier: per-node NVMe with its own absorb
/// bandwidth, finite capacity, and a background drain pipe to the PFS.
struct BurstBufferConfig {
  BurstBufferPolicy policy = BurstBufferPolicy::kNone;
  /// Usable capacity per node (bytes, >= 0). Writes that do not fit spill
  /// synchronously to the PFS.
  double capacity_bytes = 1.5e12;
  /// Writer-facing absorb bandwidth per node (bytes/s; +inf = free).
  double absorb_bandwidth_bytes_per_s =
      std::numeric_limits<double>::infinity();
  /// Background drain bandwidth per node toward the PFS (bytes/s;
  /// +inf = free).
  double drain_bandwidth_bytes_per_s =
      std::numeric_limits<double>::infinity();
};

/// Build-time configuration of one `FileSystem`.
struct IoConfig {
  PfsConfig pfs;
  BurstBufferConfig burst_buffer;
  /// Simulated ranks sharing one node (count, >= 1) — maps a writing rank
  /// to its node's burst buffer.
  int ranks_per_node = 8;
  /// OSTs that get their own Chrome trace lane ("io/ost<k>") when the
  /// tracer is enabled (count; first k OSTs).
  int trace_ost_lanes = 8;
  /// Nodes whose burst buffer gets a trace lane ("io/bb<n>") (count).
  int trace_bb_lanes = 4;
  /// Upper bound on retained DXT access records; further accesses are
  /// still priced but not recorded (count).
  std::size_t max_records = std::size_t{1} << 20;

  /// Throws support::Error when any field is out of its documented range
  /// (mirrors the network model's ranks>=1 guards).
  void validate() const;

  /// True when every cost in the config is zero (infinite bandwidths,
  /// zero metadata): the filesystem adds no virtual time at all.
  [[nodiscard]] bool quiet() const;

  /// The free filesystem (same as default construction).
  [[nodiscard]] static IoConfig quiet_config();
  /// A calibrated Lustre-like tier: 64 OSTs x 5 GB/s, 4 x 1 MiB stripes,
  /// 50 us metadata ops.
  [[nodiscard]] static IoConfig lustre();
  /// `lustre()` plus a write-through node-local burst buffer (5 GB/s
  /// absorb, 2.5 GB/s background drain, 1.5 TB capacity).
  [[nodiscard]] static IoConfig lustre_with_burst_buffer();

  /// Parses a preset name ("quiet" | "lustre" | "bb"); throws
  /// support::Error on anything else. Backs the shared bench `--io=` flag.
  [[nodiscard]] static IoConfig preset(const std::string& name);
};

}  // namespace exa::io
