/// Property tests of exa::io::FileSystem using the qa core. Four
/// load-bearing guarantees: (1) the byte-conservation ledger closes at
/// every point of any schedule (written == landed + resident); (2) the
/// quiet path adds exactly zero virtual time in any issue order — the
/// foundation the app drivers' golden-stable defaults rest on; (3) the
/// model is bit-deterministic: replaying a schedule on a fresh filesystem
/// reproduces every completion time exactly (the io_threads ctest
/// variants re-run this under EXA_THREADS=1/4/16); (4) the closed-form
/// striping prices every schedule bit for bit like the chunk-by-chunk
/// walk it replaced, which lives on below as the oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/checkpoint.hpp"
#include "io/file_system.hpp"
#include "io/io_model.hpp"
#include "qa/property.hpp"

namespace exa::qa {
namespace {

/// A plausible-but-random loud filesystem: small OST pools so contention
/// actually happens, bandwidths from disk-class to NVMe-class, all three
/// burst-buffer policies.
io::IoConfig gen_io_config(Gen& g) {
  io::IoConfig config;
  config.pfs.ost_count = static_cast<int>(g.size(1, 16));
  config.pfs.stripe_count = static_cast<int>(
      g.size(1, static_cast<std::size_t>(config.pfs.ost_count)));
  // Whole bytes (IoConfig::validate), not only powers of two.
  config.pfs.stripe_size_bytes =
      std::floor(std::pow(2.0, g.uniform(12.0, 22.0)));
  config.pfs.ost_bandwidth_bytes_per_s = g.uniform(1.0e8, 2.0e10);
  config.pfs.metadata_op_s = g.chance(0.3) ? 0.0 : g.uniform(0.0, 1.0e-3);
  config.ranks_per_node = static_cast<int>(g.size(1, 8));
  if (g.chance(0.6)) {
    config.burst_buffer.policy = g.chance(0.5)
                                     ? io::BurstBufferPolicy::kWriteThrough
                                     : io::BurstBufferPolicy::kWriteBack;
    // Small capacities force the overflow-spill path regularly.
    config.burst_buffer.capacity_bytes = std::pow(2.0, g.uniform(16.0, 26.0));
    config.burst_buffer.absorb_bandwidth_bytes_per_s =
        g.uniform(1.0e8, 2.0e10);
    config.burst_buffer.drain_bandwidth_bytes_per_s =
        g.uniform(1.0e8, 2.0e10);
  }
  return config;
}

double gen_write_bytes(Gen& g) {
  if (g.chance(0.05)) return 0.0;  // the zero-byte edge
  return std::pow(2.0, g.uniform(0.0, 26.0));
}

/// One random schedule: opens, interleaved writes at drifting virtual
/// times, occasional flushes, closes. Returns every completion time the
/// filesystem handed back, in issue order.
std::vector<double> run_schedule(io::FileSystem& fs, Gen& g,
                                 const std::vector<double>& bytes,
                                 const std::vector<double>& starts) {
  std::vector<double> out;
  const int ranks = static_cast<int>(bytes.size());
  std::vector<io::OpenResult> open(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    open[static_cast<std::size_t>(r)] =
        fs.open(r, "p/r" + std::to_string(r), starts[static_cast<std::size_t>(r)]);
    out.push_back(open[static_cast<std::size_t>(r)].ready_s);
  }
  std::vector<double> written(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const auto& o = open[static_cast<std::size_t>(r)];
    written[static_cast<std::size_t>(r)] = fs.write(
        o.handle, 0.0, bytes[static_cast<std::size_t>(r)], o.ready_s);
    out.push_back(written[static_cast<std::size_t>(r)]);
  }
  for (int r = 0; r < ranks; ++r) {
    out.push_back(fs.close(open[static_cast<std::size_t>(r)].handle,
                           written[static_cast<std::size_t>(r)]));
  }
  (void)g;
  return out;
}

EXA_PROPERTY(IoProps, ConservationLedgerAlwaysCloses) {
  const io::IoConfig config = gen_io_config(g);
  io::FileSystem fs(config);
  const int ranks = static_cast<int>(g.size(1, 24));
  double issued = 0.0;
  double horizon = 0.0;
  std::vector<io::OpenResult> open(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    open[static_cast<std::size_t>(r)] =
        fs.open(r, "r" + std::to_string(r), g.uniform(0.0, 1.0));
  }
  const auto check_ledger = [&](const char* when) {
    const double lhs = fs.bytes_written();
    const double rhs = fs.bytes_landed() + fs.bytes_resident();
    const double scale = std::max(std::abs(lhs), 1.0);
    require(std::abs(lhs - rhs) / scale <= 1e-9,
            std::string(when) + ": ledger open: written=" +
                std::to_string(lhs) + " landed+resident=" +
                std::to_string(rhs));
  };
  for (int r = 0; r < ranks; ++r) {
    const auto& o = open[static_cast<std::size_t>(r)];
    const double bytes = gen_write_bytes(g);
    issued += bytes;
    horizon = std::max(horizon, fs.write(o.handle, 0.0, bytes, o.ready_s));
    check_ledger("after write");
    if (g.chance(0.2)) {
      horizon = std::max(
          horizon, fs.flush(static_cast<int>(g.size(0, 4)), horizon));
      check_ledger("after flush");
    }
  }
  require(std::abs(fs.bytes_written() - issued) <=
              1e-9 * std::max(issued, 1.0),
          "bytes_written drifted from the issued total");
  const double done = fs.drain_all(horizon);
  check_ledger("after drain_all");
  require(fs.bytes_resident() == 0.0,
          "resident bytes after drain_all: " +
              std::to_string(fs.bytes_resident()));
  require(done >= horizon, "drain_all completed before it started");
}

EXA_PROPERTY(IoProps, QuietPathAddsNoTimeInAnyOrder) {
  io::IoConfig config;  // quiet: infinite bandwidths, zero metadata
  if (g.chance(0.5)) {
    // Quietness must survive an enabled-but-free burst buffer too.
    config.burst_buffer.policy = g.chance(0.5)
                                     ? io::BurstBufferPolicy::kWriteThrough
                                     : io::BurstBufferPolicy::kWriteBack;
  }
  config.ranks_per_node = static_cast<int>(g.size(1, 8));
  require(config.quiet(), "generated config is not quiet");
  io::FileSystem fs(config);
  const int ops = static_cast<int>(g.size(1, 40));
  std::vector<io::OpenResult> handles;
  double latest = 0.0;
  for (int i = 0; i < ops; ++i) {
    // Deliberately non-monotone start times: a free filesystem must not
    // let a late-issued early-time op queue behind anything.
    const double start = g.uniform(0.0, 100.0);
    latest = std::max(latest, start);
    if (handles.empty() || g.chance(0.4)) {
      const io::OpenResult o =
          fs.open(static_cast<int>(g.size(0, 31)), "f" + std::to_string(i),
                  start);
      require(o.ready_s == start, "open added time on a quiet filesystem");
      handles.push_back(o);
    } else {
      const io::OpenResult& o =
          handles[g.size(0, handles.size() - 1)];
      const double end =
          fs.write(o.handle, 0.0, gen_write_bytes(g), start);
      require(end == start, "write added time on a quiet filesystem: " +
                                std::to_string(end - start) + "s");
    }
  }
  // Pending zero-duration drains end at their (virtual) write times, so
  // draining at the schedule horizon must add exactly nothing beyond it.
  require(fs.drain_all(latest) == latest,
          "drain_all added time on a quiet filesystem");
}

EXA_PROPERTY(IoProps, ReplayIsBitDeterministic) {
  const io::IoConfig config = gen_io_config(g);
  const int ranks = static_cast<int>(g.size(1, 16));
  std::vector<double> bytes;
  std::vector<double> starts;
  for (int r = 0; r < ranks; ++r) {
    bytes.push_back(gen_write_bytes(g));
    starts.push_back(g.uniform(0.0, 1.0e-2));
  }
  io::FileSystem first(config);
  io::FileSystem second(config);
  const std::vector<double> a = run_schedule(first, g, bytes, starts);
  const std::vector<double> b = run_schedule(second, g, bytes, starts);
  require(a.size() == b.size(), "replay produced a different op count");
  for (std::size_t i = 0; i < a.size(); ++i) {
    require(a[i] == b[i],
            "completion " + std::to_string(i) + " not bit-equal: " +
                std::to_string(a[i]) + " vs " + std::to_string(b[i]));
  }
  require(first.bytes_landed() == second.bytes_landed() &&
              first.bytes_resident() == second.bytes_resident(),
          "replay ledgers diverged");
}

/// The oracle: FileSystem as it priced striped writes before the closed
/// form, walking one stripe-size chunk at a time (O(bytes / stripe) per
/// write). Same cursors, ledgers, burst-buffer tiers and DXT records;
/// no tracer lanes or DxtLog.
class ChunkWalkFs {
 public:
  explicit ChunkWalkFs(const io::IoConfig& config)
      : config_(config),
        ost_cursor_(static_cast<std::size_t>(config.pfs.ost_count), 0.0),
        ost_bytes_(static_cast<std::size_t>(config.pfs.ost_count), 0.0) {}

  io::OpenResult open(int rank, const std::string& path, double start_s,
                      int stripe_count) {
    if (stripe_count == 0) stripe_count = config_.pfs.stripe_count;
    const int id = static_cast<int>(files_.size());
    files_.push_back({path, rank, id % config_.pfs.ost_count, stripe_count});
    return {io::FileHandle{id}, metadata_op(Op::kOpen, id, start_s)};
  }

  double write(io::FileHandle handle, double offset, double bytes,
               double start_s) {
    if (bytes == 0.0) return start_s;
    const File& file = files_[static_cast<std::size_t>(handle.id)];
    const io::BurstBufferConfig& bbc = config_.burst_buffer;
    if (bbc.policy == io::BurstBufferPolicy::kNone) {
      return pfs_write(handle.id, offset, bytes, start_s);
    }
    const int node = file.rank / config_.ranks_per_node;
    Buffer& bb = buffer_of(node);
    retire(node, start_s);
    const double absorbed =
        std::min(bytes, std::max(0.0, bbc.capacity_bytes - bb.resident));
    const double spilled = bytes - absorbed;
    double completion_s = start_s;
    if (absorbed > 0.0) {
      const Span abs = occupy(bb.absorb_until, start_s,
                              absorbed / bbc.absorb_bandwidth_bytes_per_s);
      bb.resident += absorbed;
      completion_s = std::max(completion_s, abs.end_s);
      records_.push_back({Op::kAbsorb, file.rank, file.path, -1, offset,
                          absorbed, abs.begin_s, abs.end_s});
      if (bbc.policy == io::BurstBufferPolicy::kWriteThrough) {
        const Span drain = occupy(bb.drain_until, abs.end_s,
                                  absorbed / bbc.drain_bandwidth_bytes_per_s);
        bb.pending.push_back({handle.id, offset, absorbed, drain.end_s});
        records_.push_back({Op::kDrain, file.rank, file.path, -1, offset,
                            absorbed, drain.begin_s, drain.end_s});
      } else {
        bb.backlog.push_back({handle.id, offset, absorbed, file.rank});
      }
    }
    if (spilled > 0.0) {
      completion_s = std::max(
          completion_s,
          pfs_write(handle.id, offset + absorbed, spilled, start_s));
    }
    return completion_s;
  }

  double close(io::FileHandle handle, double start_s) {
    return metadata_op(Op::kClose, handle.id, start_s);
  }

  double flush(int node, double start_s) {
    if (static_cast<std::size_t>(node) >= buffers_.size()) return start_s;
    Buffer& bb = buffers_[static_cast<std::size_t>(node)];
    retire(node, start_s);
    for (const Backlog& entry : bb.backlog) {
      const double bw = config_.burst_buffer.drain_bandwidth_bytes_per_s;
      const Span drain = occupy(bb.drain_until, start_s, entry.bytes / bw);
      bb.pending.push_back(
          {entry.file, entry.offset, entry.bytes, drain.end_s});
      records_.push_back({Op::kDrain, entry.rank,
                          files_[static_cast<std::size_t>(entry.file)].path, -1,
                          entry.offset, entry.bytes, drain.begin_s,
                          drain.end_s});
    }
    bb.backlog.clear();
    const double end_s = bb.pending.empty()
                             ? start_s
                             : std::max(start_s, bb.pending.back().end_s);
    retire(node, end_s);
    return end_s;
  }

  double drain_all(double start_s) {
    double end_s = start_s;
    for (std::size_t node = 0; node < buffers_.size(); ++node) {
      end_s = std::max(end_s, flush(static_cast<int>(node), start_s));
    }
    return end_s;
  }

  void settle(double now_s) {
    for (std::size_t node = 0; node < buffers_.size(); ++node) {
      retire(static_cast<int>(node), now_s);
    }
  }

  [[nodiscard]] double bytes_landed() const { return bytes_landed_; }
  [[nodiscard]] double bytes_resident() const {
    double total = 0.0;
    for (const Buffer& bb : buffers_) total += bb.resident;
    return total;
  }
  [[nodiscard]] double ost_bytes(int ost) const {
    return ost_bytes_[static_cast<std::size_t>(ost)];
  }
  [[nodiscard]] double ost_busy_until(int ost) const {
    return ost_cursor_[static_cast<std::size_t>(ost)];
  }
  [[nodiscard]] const std::vector<io::AccessRecord>& records() const {
    return records_;
  }

 private:
  using Op = io::AccessRecord::Op;
  struct File {
    std::string path;
    int rank = 0;
    int first_ost = 0;
    int stripe_count = 1;
  };
  /// A scheduled drain, retired once virtual time passes end_s.
  struct Pending {
    int file = -1;
    double offset = 0.0;
    double bytes = 0.0;
    double end_s = 0.0;
  };
  /// A write-back extent awaiting flush.
  struct Backlog {
    int file = -1;
    double offset = 0.0;
    double bytes = 0.0;
    int rank = 0;
  };
  struct Buffer {
    double absorb_until = 0.0;
    double drain_until = 0.0;
    double resident = 0.0;
    std::deque<Pending> pending;
    std::vector<Backlog> backlog;
  };
  struct Span {
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  static Span occupy(double& cursor_s, double start_s, double duration_s) {
    if (duration_s == 0.0) return {start_s, start_s};
    const double begin_s = std::max(start_s, cursor_s);
    cursor_s = begin_s + duration_s;
    return {begin_s, cursor_s};
  }

  [[nodiscard]] int ost_of(const File& file, std::uint64_t chunk) const {
    const auto within =
        static_cast<int>(chunk % static_cast<std::uint64_t>(file.stripe_count));
    return (file.first_ost + within) % config_.pfs.ost_count;
  }

  /// The walk: integer chunk indices, one cursor charge per chunk.
  double pfs_write(int file_id, double offset, double bytes, double start_s) {
    const File& file = files_[static_cast<std::size_t>(file_id)];
    const double stripe = config_.pfs.stripe_size_bytes;
    const double bw = config_.pfs.ost_bandwidth_bytes_per_s;
    struct Extent {
      int ost = -1;
      double offset = 0.0;
      double bytes = 0.0;
      double begin_s = 0.0;
      double end_s = 0.0;
    };
    std::vector<Extent> extents;
    double completion_s = start_s;
    double cursor = offset;
    double remaining = bytes;
    auto chunk_index = static_cast<std::uint64_t>(offset / stripe);
    while (remaining > 0.0) {
      const double chunk_end = static_cast<double>(chunk_index + 1) * stripe;
      const double chunk =
          std::min(remaining, std::max(0.0, chunk_end - cursor));
      if (chunk > 0.0) {
        const int ost = ost_of(file, chunk_index);
        const Span occ = occupy(ost_cursor_[static_cast<std::size_t>(ost)],
                                start_s, chunk / bw);
        ost_bytes_[static_cast<std::size_t>(ost)] += chunk;
        bytes_landed_ += chunk;
        completion_s = std::max(completion_s, occ.end_s);
        auto it = std::find_if(extents.begin(), extents.end(),
                               [ost](const Extent& e) { return e.ost == ost; });
        if (it == extents.end()) {
          extents.push_back({ost, cursor, chunk, occ.begin_s, occ.end_s});
        } else {
          it->bytes += chunk;
          it->begin_s = std::min(it->begin_s, occ.begin_s);
          it->end_s = std::max(it->end_s, occ.end_s);
        }
        remaining -= chunk;
      }
      cursor = chunk_end;
      ++chunk_index;
    }
    for (const Extent& e : extents) {
      records_.push_back({Op::kWrite, file.rank, file.path, e.ost, e.offset,
                          e.bytes, e.begin_s, e.end_s});
    }
    return completion_s;
  }

  /// The walk again, ledger only: a retired drain lands on its OSTs.
  void account_landing(int file_id, double offset, double bytes) {
    const File& file = files_[static_cast<std::size_t>(file_id)];
    const double stripe = config_.pfs.stripe_size_bytes;
    double cursor = offset;
    double remaining = bytes;
    auto chunk_index = static_cast<std::uint64_t>(offset / stripe);
    while (remaining > 0.0) {
      const double chunk_end = static_cast<double>(chunk_index + 1) * stripe;
      const double chunk =
          std::min(remaining, std::max(0.0, chunk_end - cursor));
      if (chunk > 0.0) {
        ost_bytes_[static_cast<std::size_t>(ost_of(file, chunk_index))] +=
            chunk;
        remaining -= chunk;
      }
      cursor = chunk_end;
      ++chunk_index;
    }
    bytes_landed_ += bytes;
  }

  double metadata_op(Op op, int file_id, double start_s) {
    const Span occ = occupy(mds_cursor_, start_s, config_.pfs.metadata_op_s);
    const File& file = files_[static_cast<std::size_t>(file_id)];
    records_.push_back(
        {op, file.rank, file.path, -1, 0.0, 0.0, occ.begin_s, occ.end_s});
    return occ.end_s;
  }

  Buffer& buffer_of(int node) {
    if (static_cast<std::size_t>(node) >= buffers_.size()) {
      buffers_.resize(static_cast<std::size_t>(node) + 1);
    }
    return buffers_[static_cast<std::size_t>(node)];
  }

  void retire(int node, double now_s) {
    if (static_cast<std::size_t>(node) >= buffers_.size()) return;
    Buffer& bb = buffers_[static_cast<std::size_t>(node)];
    while (!bb.pending.empty() && bb.pending.front().end_s <= now_s) {
      const Pending& entry = bb.pending.front();
      account_landing(entry.file, entry.offset, entry.bytes);
      bb.resident -= entry.bytes;
      bb.pending.pop_front();
    }
    if (bb.pending.empty() && bb.backlog.empty()) bb.resident = 0.0;
  }

  io::IoConfig config_;
  std::vector<File> files_;
  std::vector<double> ost_cursor_;
  std::vector<double> ost_bytes_;
  double mds_cursor_ = 0.0;
  std::vector<Buffer> buffers_;
  double bytes_landed_ = 0.0;
  std::vector<io::AccessRecord> records_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string describe(const io::AccessRecord& r) {
  return io::to_string(r.op) + " rank=" + std::to_string(r.rank) + " " +
         r.file + " ost=" + std::to_string(r.ost) +
         " offset=" + std::to_string(r.offset) +
         " bytes=" + std::to_string(r.bytes) +
         " start=" + std::to_string(r.start_s) +
         " end=" + std::to_string(r.end_s);
}

/// A write's (offset, bytes): integer or fractional, now and then
/// >= 10^5 chunks, and near 2^53 when the stripe is huge.
std::pair<double, double> gen_extent(Gen& g, double stripe) {
  double offset = 0.0;
  double bytes = 0.0;
  if (stripe >= 0x1p40) {
    // Extents ending just below 2^53, where chunk ends stop being exact;
    // offsets below 2^52 carry fractions.
    offset = g.chance(0.5) ? 0x1p53 - g.uniform(1.0, 0x1p47)
                           : g.uniform(0.0, 0x1p53);
    const double room = 0x1p53 - offset;
    bytes = std::max(0.0, g.chance(0.5) ? room * g.uniform()
                                        : room - g.uniform(0.0, 4.0));
  } else {
    offset = std::floor(g.uniform(0.0, 64.0)) * stripe;
    if (g.chance(0.5)) offset += g.uniform(0.0, 4.0 * stripe);  // any byte
    if (g.chance(0.3)) offset += g.uniform(0.0, 1.0);           // fractional
    const double chunks = g.chance(0.04) ? g.uniform(1.0e5, 1.5e5)
                                         : std::pow(2.0, g.uniform(-8.0, 6.0));
    bytes = chunks * stripe;
    if (g.chance(0.5)) bytes = std::floor(bytes);  // whole bytes
  }
  if (offset + bytes >= 0x1p53) {  // FileSystem::write's domain
    bytes = std::max(0.0, std::floor(0x1p53 - 2.0 - offset));
  }
  return {offset, bytes};
}

EXA_PROPERTY(IoProps, ClosedFormMatchesChunkWalk) {
  io::IoConfig config = gen_io_config(g);
  // Stripes: as generated, 1 byte, any whole size, or huge (2^40..2^52).
  const int stripe_kind = static_cast<int>(g.size(0, 3));
  if (stripe_kind == 1) config.pfs.stripe_size_bytes = 1.0;
  if (stripe_kind == 2) {
    config.pfs.stripe_size_bytes = std::floor(g.uniform(1.0, 5.0e6));
  }
  if (stripe_kind == 3) {
    config.pfs.stripe_size_bytes =
        std::floor(std::pow(2.0, g.uniform(40.0, 52.0)));
  }
  const double stripe = config.pfs.stripe_size_bytes;
  io::FileSystem fs(config);
  ChunkWalkFs walk(config);

  const auto check_times = [&](double got, double want,
                               const std::string& what) {
    require(same_bits(got, want), what + ": " + std::to_string(got) +
                                      " vs walk " + std::to_string(want));
  };
  const auto check_ledgers = [&](const std::string& when) {
    for (int ost = 0; ost < config.pfs.ost_count; ++ost) {
      check_times(fs.ost_bytes(ost), walk.ost_bytes(ost),
                  when + ": ost_bytes(" + std::to_string(ost) + ")");
      check_times(fs.ost_busy_until(ost), walk.ost_busy_until(ost),
                  when + ": ost_busy_until(" + std::to_string(ost) + ")");
    }
    check_times(fs.bytes_landed(), walk.bytes_landed(),
                when + ": bytes_landed");
    check_times(fs.bytes_resident(), walk.bytes_resident(),
                when + ": bytes_resident");
  };

  const int files = static_cast<int>(g.size(1, 6));
  std::vector<io::FileHandle> handles;
  for (int f = 0; f < files; ++f) {
    const int rank = static_cast<int>(g.size(0, 31));
    const int stripe_count =
        g.chance(0.5) ? 0
                      : static_cast<int>(g.size(
                            1, static_cast<std::size_t>(config.pfs.ost_count)));
    const double start = g.uniform(0.0, 1.0e-3);
    const std::string path = "ckpt/f" + std::to_string(f);
    const io::OpenResult a = fs.open(rank, path, start, stripe_count);
    const io::OpenResult b = walk.open(rank, path, start, stripe_count);
    check_times(a.ready_s, b.ready_s, "open " + path);
    handles.push_back(a.handle);
  }
  double clock = 0.0;
  const int ops = static_cast<int>(g.size(1, 24));
  for (int i = 0; i < ops; ++i) {
    const std::string op = "op " + std::to_string(i);
    clock += g.uniform(0.0, 1.0e-3);
    if (g.chance(0.15)) {
      const int node = static_cast<int>(g.size(0, 4));
      check_times(fs.flush(node, clock), walk.flush(node, clock),
                  op + " flush");
    } else if (g.chance(0.1)) {
      fs.settle(clock);
      walk.settle(clock);
    } else {
      const io::FileHandle h = handles[g.index(handles.size())];
      const auto [offset, bytes] = gen_extent(g, stripe);
      check_times(fs.write(h, offset, bytes, clock),
                  walk.write(h, offset, bytes, clock),
                  op + " write offset=" + std::to_string(offset) +
                      " bytes=" + std::to_string(bytes));
    }
    check_ledgers(op);
  }
  check_times(fs.drain_all(clock), walk.drain_all(clock), "drain_all");
  for (const io::FileHandle h : handles) {
    check_times(fs.close(h, clock), walk.close(h, clock), "close");
  }
  check_ledgers("end");

  const auto& got = fs.records();
  const auto& want = walk.records();
  require(got.size() == want.size(),
          "record count " + std::to_string(got.size()) + " vs walk " +
              std::to_string(want.size()));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const io::AccessRecord& a = got[i];
    const io::AccessRecord& b = want[i];
    require(a.op == b.op && a.rank == b.rank && a.file == b.file &&
                a.ost == b.ost && same_bits(a.offset, b.offset) &&
                same_bits(a.bytes, b.bytes) &&
                same_bits(a.start_s, b.start_s) && same_bits(a.end_s, b.end_s),
            "record " + std::to_string(i) + ": " + describe(a) + " vs walk " +
                describe(b));
  }
}

}  // namespace
}  // namespace exa::qa
