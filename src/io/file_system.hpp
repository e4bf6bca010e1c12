#pragma once
/// \file file_system.hpp
/// Deterministic virtual-time model of a striped parallel filesystem with
/// an optional node-local burst-buffer tier, plus Darshan-DXT-style
/// access records.
///
/// The model prices the storage path the paper's apps all share: N ranks
/// open a file each, stream their checkpoint/plotfile bytes, and close.
/// Mechanics mirror `net::Fabric`'s transport: every shared resource (one
/// OST, the metadata server, a node's NVMe absorb pipe, a node's drain
/// pipe) is a virtual-time *cursor* — an operation begins at
/// `max(start, cursor)`, occupies the resource for `bytes / bandwidth`
/// seconds, and advances the cursor. Two writers whose stripes land on
/// one OST therefore serialize against each other (fair-share
/// contention), which is exactly the co-scheduled-job interference story
/// `bench/io_scaling` gates.
///
/// Writes are striped round-robin over `stripe_count` OSTs in
/// `stripe_size_bytes` chunks starting at OST `file_id % ost_count`.
/// Striping is priced in closed form: a write is a head chunk, m whole
/// stripes and a tail, so each OST's share is a few runs of equal chunks,
/// and `support::repeat_add` advances its cursor and byte ledgers by a
/// whole run at once, bitwise equal to charging chunk by chunk. A write
/// costs O(stripe_count) host time whatever its size. Exactness needs
/// whole-byte stripes and byte positions below 2^53, which `validate()`
/// and `write()` enforce.
/// With a burst buffer configured, a write is absorbed by the writer's
/// node-local tier (completion = absorb completion) and drained to the
/// PFS in the background — immediately (write-through) or on `flush()`
/// (write-back); bytes that exceed the remaining capacity spill
/// synchronously to the PFS.
///
/// Schedules are issued by one driver thread; all methods mutate cursor
/// state and must be externally serialized. Every operation appends a
/// DXT-style `AccessRecord` and, when the tracer is enabled, a Chrome
/// span on lanes `io/ost<k>`, `io/bb<n>`, `io/mds`.
///
/// Units: all times seconds, all sizes bytes.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "io/io_model.hpp"

namespace exa::io {

/// Handle for an open simulated file (index into the file table).
struct FileHandle {
  int id = -1;  ///< file-table index; -1 means empty
  /// True when the handle refers to an opened file.
  [[nodiscard]] bool valid() const { return id >= 0; }
};

/// One Darshan-DXT-style access: which rank touched which extent of
/// which file on which backing resource, and when.
struct AccessRecord {
  enum class Op : std::uint8_t {
    kOpen,    ///< metadata-server open
    kWrite,   ///< extent landed directly on one OST
    kClose,   ///< metadata-server close
    kAbsorb,  ///< extent absorbed by the writer's node-local burst buffer
    kDrain,   ///< burst-buffer extent drained toward the PFS
  };
  Op op = Op::kWrite;
  int rank = 0;          ///< issuing rank (drains: the node's first rank)
  std::string file;      ///< file path as passed to open()
  int ost = -1;          ///< backing OST; -1 = burst buffer / metadata
  double offset = 0.0;   ///< file offset of the extent (bytes)
  double bytes = 0.0;    ///< extent length (bytes)
  double start_s = 0.0;  ///< operation begin (virtual seconds)
  double end_s = 0.0;    ///< operation end (virtual seconds)
};

[[nodiscard]] std::string to_string(AccessRecord::Op op);

/// Result of open(): the handle plus the virtual time the file is usable
/// (after the metadata server processed the open).
struct OpenResult {
  FileHandle handle;
  double ready_s = 0.0;
};

/// The storage model: per-OST / per-node virtual-time cursors plus byte
/// accounting. Deterministic — the same call sequence yields bit-equal
/// times regardless of host parallelism.
class FileSystem {
 public:
  /// Validates `config` (throws support::Error on out-of-range fields).
  explicit FileSystem(IoConfig config = {});

  [[nodiscard]] const IoConfig& config() const { return config_; }

  // --- per-rank file API -------------------------------------------------

  /// Opens `path` for `rank` at virtual time `start_s`, charging one
  /// metadata op. `stripe_count` overrides the config default (0 keeps
  /// it; the override is capped by ost_count at validation).
  OpenResult open(int rank, std::string path, double start_s,
                  int stripe_count = 0);
  /// Writes `bytes` at `offset` through the configured tiers; returns the
  /// virtual completion time (>= start_s). Zero-byte writes are free.
  /// Throws support::Error unless `offset + bytes < 2^53`.
  double write(FileHandle handle, double offset, double bytes,
               double start_s);
  /// Closes the file (one metadata op); returns the completion time.
  double close(FileHandle handle, double start_s);

  // --- burst-buffer control ---------------------------------------------

  /// Schedules drains for `node`'s write-back backlog and waits for every
  /// pending drain of that node; returns when its buffer is empty.
  double flush(int node, double start_s);
  /// flush() over all nodes; returns when every buffered byte landed.
  double drain_all(double start_s);
  /// Retires drains that completed by `now_s` (updates the resident /
  /// landed ledgers without scheduling new work).
  void settle(double now_s);

  // --- accounting (the conservation ledger) -----------------------------

  /// Bytes accepted by write() so far.
  [[nodiscard]] double bytes_written() const { return bytes_written_; }
  /// Bytes that landed on OSTs (direct writes + retired drains).
  [[nodiscard]] double bytes_landed() const { return bytes_landed_; }
  /// Bytes absorbed by burst buffers and not yet retired.
  [[nodiscard]] double bytes_resident() const;
  /// Bytes landed on one OST.
  [[nodiscard]] double ost_bytes(int ost) const;
  /// Virtual time `ost`'s service queue is busy until.
  [[nodiscard]] double ost_busy_until(int ost) const;

  // --- DXT records -------------------------------------------------------

  /// Retained access records, in issue order (capped by
  /// config.max_records).
  [[nodiscard]] const std::vector<AccessRecord>& records() const {
    return records_;
  }
  /// Accesses priced but not retained once the cap was hit.
  [[nodiscard]] std::uint64_t records_dropped() const { return dropped_; }

 private:
  struct File {
    std::string path;
    int rank = 0;
    int first_ost = 0;
    int stripe_count = 1;
    bool open = false;
  };
  /// One scheduled background drain, retired when virtual time passes
  /// `end_s`.
  struct DrainEntry {
    int file = -1;
    double offset = 0.0;
    double bytes = 0.0;
    double end_s = 0.0;
  };
  /// A write-back extent absorbed but not yet scheduled for draining.
  struct BacklogEntry {
    int file = -1;
    double offset = 0.0;
    double bytes = 0.0;
    int rank = 0;
  };
  struct BurstBuffer {
    double absorb_until_s = 0.0;  ///< writer-facing NVMe cursor
    double drain_until_s = 0.0;   ///< background drain-pipe cursor
    double resident_bytes = 0.0;  ///< absorbed minus retired
    std::deque<DrainEntry> pending;    ///< scheduled, end_s ascending
    std::vector<BacklogEntry> backlog; ///< write-back, awaiting flush
  };

  /// Charges `bytes` at `offset` through the striped OST cursors; returns
  /// completion. Appends one kWrite record per touched OST, in first-touch
  /// order. O(stripe_count).
  double pfs_write(int file_id, int rank, double offset, double bytes,
                   double start_s);
  /// One serialized metadata-server operation.
  double metadata_op(AccessRecord::Op op, int rank, int file_id,
                     double start_s);
  /// Credits a drained extent to its OSTs (ledger only, no cursor
  /// charge — the drain pipe already priced the transfer). O(stripe_count).
  void account_landing(int file_id, double offset, double bytes);
  /// Retires `node`'s pending drains completed by `now_s`.
  void retire(int node, double now_s);
  /// Moves a node's write-back backlog onto its drain pipe.
  void schedule_backlog(BurstBuffer& bb, double start_s);
  [[nodiscard]] int ost_of(const File& file, std::uint64_t chunk) const;
  [[nodiscard]] int node_of_rank(int rank) const {
    return rank / config_.ranks_per_node;
  }
  BurstBuffer& buffer_of(int node);
  const File& checked_file(FileHandle handle, bool must_be_open) const;
  void record(AccessRecord rec);

  IoConfig config_;
  std::vector<File> files_;
  std::vector<double> ost_cursor_;  ///< per-OST busy-until (seconds)
  std::vector<double> ost_bytes_;   ///< per-OST landed bytes
  double mds_cursor_ = 0.0;         ///< metadata-server busy-until
  std::vector<BurstBuffer> buffers_;  ///< per node, grown on demand
  double bytes_written_ = 0.0;
  double bytes_landed_ = 0.0;
  std::vector<AccessRecord> records_;
  std::uint64_t dropped_ = 0;
};

}  // namespace exa::io
