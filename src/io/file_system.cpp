#include "io/file_system.hpp"

#include <algorithm>
#include <cmath>

#include "io/dxt.hpp"
#include "support/assert.hpp"
#include "support/repeat_add.hpp"
#include "trace/tracer.hpp"

namespace exa::io {

namespace {

/// Cursor charge on one shared resource: free resources (infinite
/// bandwidth / zero metadata cost) take zero time and skip the queue
/// entirely, so a quiet filesystem adds exactly 0.0 seconds no matter in
/// what order operations are issued.
struct Occupancy {
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// `count` back-to-back charges of `duration_s` on one resource (each
/// begins where the previous ended); returns the first begin and the last
/// end, bitwise equal to `count` single charges.
Occupancy occupy(double& cursor_s, double start_s, double duration_s,
                 std::uint64_t count = 1) {
  if (duration_s == 0.0) return {start_s, start_s};
  Occupancy occ;
  occ.begin_s = std::max(start_s, cursor_s);
  occ.end_s = support::repeat_add(occ.begin_s, duration_s, count);
  cursor_s = occ.end_s;
  return occ;
}

/// `count` equal chunks of one striped extent that land on one OST: the
/// chunks with stripe indices `first_chunk`, `first_chunk + stripe_count`,
/// and so on.
struct StripeRun {
  std::uint64_t first_chunk = 0;  ///< stripe index of the first chunk
  double offset = 0.0;            ///< file offset of the first chunk
  double chunk = 0.0;             ///< bytes per chunk
  std::uint64_t count = 0;        ///< chunks in the run
};

/// Splits `bytes` at `offset` into the chunks of the round-robin stripe
/// walk and hands `visit` one run per OST, in first-touch order: the head
/// chunk up to the first stripe boundary, then m whole stripes, of which
/// the i-th OST after the head gets ceil((m - i) / stripe_count), then the
/// tail. O(stripe_count) whatever the size.
///
/// Per OST, the runs come in the walk's chunk order, and every chunk
/// value is the walk's: the head and tail are taken by the walk's own
/// step, and between them the cursor sits on whole-byte stripe boundaries
/// below 2^53 (IoConfig::validate, FileSystem::write), where each chunk is
/// exactly `stripe` and `remaining -= stripe` is exact.
template <class Visit>
void for_each_stripe_run(double offset, double bytes, double stripe,
                         int stripe_count, Visit&& visit) {
  auto index = static_cast<std::uint64_t>(offset / stripe);
  double cursor = offset;
  double remaining = bytes;
  // One step of the walk: the chunk from `cursor` to the end of stripe
  // `index`, clipped to what remains.
  const auto step = [&] {
    const double chunk_end = static_cast<double>(index + 1) * stripe;
    const double chunk = std::min(remaining, std::max(0.0, chunk_end - cursor));
    if (chunk > 0.0) {
      visit(StripeRun{index, cursor, chunk, 1});
      remaining -= chunk;
    }
    cursor = chunk_end;
    ++index;
  };
  step();  // head
  const double tail = std::fmod(remaining, stripe);  // exact
  const auto whole = static_cast<std::uint64_t>((remaining - tail) / stripe);
  const auto stride = static_cast<std::uint64_t>(stripe_count);
  for (std::uint64_t i = 0; i < std::min(whole, stride); ++i) {
    visit(StripeRun{index + i, static_cast<double>(index + i) * stripe,
                    stripe, (whole - i + stride - 1) / stride});
  }
  index += whole;
  cursor = static_cast<double>(index) * stripe;
  remaining = tail;
  step();  // tail
  // A chunk end above 2^53 rounds, but offset + bytes < 2^53 leaves the
  // tail too little rounding slack to be cut short by it.
  EXA_ASSERT(remaining == 0.0);
}

}  // namespace

std::string to_string(AccessRecord::Op op) {
  switch (op) {
    case AccessRecord::Op::kOpen: return "open";
    case AccessRecord::Op::kWrite: return "write";
    case AccessRecord::Op::kClose: return "close";
    case AccessRecord::Op::kAbsorb: return "absorb";
    case AccessRecord::Op::kDrain: return "drain";
  }
  return "?";
}

FileSystem::FileSystem(IoConfig config) : config_(config) {
  config_.validate();
  ost_cursor_.assign(static_cast<std::size_t>(config_.pfs.ost_count), 0.0);
  ost_bytes_.assign(static_cast<std::size_t>(config_.pfs.ost_count), 0.0);
}

OpenResult FileSystem::open(int rank, std::string path, double start_s,
                            int stripe_count) {
  EXA_REQUIRE_MSG(rank >= 0, "open: rank must be >= 0");
  EXA_REQUIRE_MSG(std::isfinite(start_s), "open: start time must be finite");
  if (stripe_count == 0) stripe_count = config_.pfs.stripe_count;
  EXA_REQUIRE_MSG(stripe_count >= 1 && stripe_count <= config_.pfs.ost_count,
                  "open: stripe_count must be in [1, ost_count]");
  File file;
  file.path = std::move(path);
  file.rank = rank;
  file.first_ost = static_cast<int>(files_.size()) % config_.pfs.ost_count;
  file.stripe_count = stripe_count;
  file.open = true;
  files_.push_back(std::move(file));
  const FileHandle handle{static_cast<int>(files_.size()) - 1};
  const double ready_s =
      metadata_op(AccessRecord::Op::kOpen, rank, handle.id, start_s);
  return {handle, ready_s};
}

double FileSystem::write(FileHandle handle, double offset, double bytes,
                         double start_s) {
  const File& file = checked_file(handle, true);
  EXA_REQUIRE_MSG(std::isfinite(offset) && offset >= 0.0,
                  "write: offset must be finite and >= 0");
  EXA_REQUIRE_MSG(std::isfinite(bytes) && bytes >= 0.0,
                  "write: bytes must be finite and >= 0");
  EXA_REQUIRE_MSG(std::isfinite(start_s), "write: start time must be finite");
  EXA_REQUIRE_MSG(offset + bytes < 0x1p53,
                  "write: offset + bytes must be < 2^53 (9 PB), the range "
                  "where every byte position is an exact double; split the "
                  "file");
  if (bytes == 0.0) return start_s;
  bytes_written_ += bytes;

  const BurstBufferConfig& bbc = config_.burst_buffer;
  if (bbc.policy == BurstBufferPolicy::kNone) {
    return pfs_write(handle.id, file.rank, offset, bytes, start_s);
  }

  const int node = node_of_rank(file.rank);
  BurstBuffer& bb = buffer_of(node);
  retire(node, start_s);
  const double available =
      std::max(0.0, bbc.capacity_bytes - bb.resident_bytes);
  const double absorbed = std::min(bytes, available);
  const double spilled = bytes - absorbed;
  double completion_s = start_s;

  if (absorbed > 0.0) {
    const Occupancy abs = occupy(bb.absorb_until_s, start_s,
                                 absorbed / bbc.absorb_bandwidth_bytes_per_s);
    bb.resident_bytes += absorbed;
    completion_s = std::max(completion_s, abs.end_s);
    record({AccessRecord::Op::kAbsorb, file.rank, file.path, -1, offset,
            absorbed, abs.begin_s, abs.end_s});
    if (bbc.policy == BurstBufferPolicy::kWriteThrough) {
      const Occupancy drain =
          occupy(bb.drain_until_s, abs.end_s,
                 absorbed / bbc.drain_bandwidth_bytes_per_s);
      bb.pending.push_back({handle.id, offset, absorbed, drain.end_s});
      record({AccessRecord::Op::kDrain, file.rank, file.path, -1, offset,
              absorbed, drain.begin_s, drain.end_s});
    } else {
      bb.backlog.push_back({handle.id, offset, absorbed, file.rank});
    }
  }
  if (spilled > 0.0) {
    // The overflow bypasses the full buffer and pays the PFS price
    // synchronously, concurrent with the absorb.
    completion_s = std::max(
        completion_s,
        pfs_write(handle.id, file.rank, offset + absorbed, spilled, start_s));
  }
  return completion_s;
}

double FileSystem::close(FileHandle handle, double start_s) {
  const File& file = checked_file(handle, true);
  EXA_REQUIRE_MSG(std::isfinite(start_s), "close: start time must be finite");
  files_[static_cast<std::size_t>(handle.id)].open = false;
  return metadata_op(AccessRecord::Op::kClose, file.rank, handle.id, start_s);
}

double FileSystem::flush(int node, double start_s) {
  EXA_REQUIRE_MSG(node >= 0, "flush: node must be >= 0");
  EXA_REQUIRE_MSG(std::isfinite(start_s), "flush: start time must be finite");
  if (static_cast<std::size_t>(node) >= buffers_.size()) return start_s;
  BurstBuffer& bb = buffers_[static_cast<std::size_t>(node)];
  retire(node, start_s);
  schedule_backlog(bb, start_s);
  const double end_s =
      bb.pending.empty() ? start_s : std::max(start_s, bb.pending.back().end_s);
  retire(node, end_s);
  return end_s;
}

double FileSystem::drain_all(double start_s) {
  double end_s = start_s;
  for (std::size_t node = 0; node < buffers_.size(); ++node) {
    end_s = std::max(end_s, flush(static_cast<int>(node), start_s));
  }
  return end_s;
}

void FileSystem::settle(double now_s) {
  for (std::size_t node = 0; node < buffers_.size(); ++node) {
    retire(static_cast<int>(node), now_s);
  }
}

double FileSystem::bytes_resident() const {
  double total = 0.0;
  for (const BurstBuffer& bb : buffers_) total += bb.resident_bytes;
  return total;
}

double FileSystem::ost_bytes(int ost) const {
  EXA_REQUIRE_MSG(ost >= 0 && ost < config_.pfs.ost_count,
                  "ost_bytes: ost out of range");
  return ost_bytes_[static_cast<std::size_t>(ost)];
}

double FileSystem::ost_busy_until(int ost) const {
  EXA_REQUIRE_MSG(ost >= 0 && ost < config_.pfs.ost_count,
                  "ost_busy_until: ost out of range");
  return ost_cursor_[static_cast<std::size_t>(ost)];
}

double FileSystem::pfs_write(int file_id, int rank, double offset,
                             double bytes, double start_s) {
  const File& file = files_[static_cast<std::size_t>(file_id)];
  const double bw = config_.pfs.ost_bandwidth_bytes_per_s;

  /// Per-OST aggregation of this call's chunks into one DXT record each.
  struct Extent {
    int ost = -1;
    double offset = 0.0;
    double bytes = 0.0;
    double begin_s = 0.0;
    double end_s = 0.0;
  };
  std::vector<Extent> extents;
  extents.reserve(static_cast<std::size_t>(file.stripe_count));

  double completion_s = start_s;
  for_each_stripe_run(
      offset, bytes, config_.pfs.stripe_size_bytes, file.stripe_count,
      [&](const StripeRun& run) {
        const int ost = ost_of(file, run.first_chunk);
        const auto slot = static_cast<std::size_t>(ost);
        const Occupancy occ =
            occupy(ost_cursor_[slot], start_s, run.chunk / bw, run.count);
        ost_bytes_[slot] =
            support::repeat_add(ost_bytes_[slot], run.chunk, run.count);
        bytes_landed_ =
            support::repeat_add(bytes_landed_, run.chunk, run.count);
        completion_s = std::max(completion_s, occ.end_s);

        auto it = std::find_if(extents.begin(), extents.end(),
                               [ost](const Extent& e) { return e.ost == ost; });
        if (it == extents.end()) {
          extents.push_back({ost, run.offset,
                             support::repeat_add(0.0, run.chunk, run.count),
                             occ.begin_s, occ.end_s});
        } else {
          it->bytes = support::repeat_add(it->bytes, run.chunk, run.count);
          it->begin_s = std::min(it->begin_s, occ.begin_s);
          it->end_s = std::max(it->end_s, occ.end_s);
        }
      });
  for (const Extent& e : extents) {
    record({AccessRecord::Op::kWrite, rank, file.path, e.ost, e.offset,
            e.bytes, e.begin_s, e.end_s});
  }
  return completion_s;
}

double FileSystem::metadata_op(AccessRecord::Op op, int rank, int file_id,
                               double start_s) {
  const Occupancy occ =
      occupy(mds_cursor_, start_s, config_.pfs.metadata_op_s);
  record({op, rank, files_[static_cast<std::size_t>(file_id)].path, -1, 0.0,
          0.0, occ.begin_s, occ.end_s});
  return occ.end_s;
}

void FileSystem::account_landing(int file_id, double offset, double bytes) {
  const File& file = files_[static_cast<std::size_t>(file_id)];
  for_each_stripe_run(offset, bytes, config_.pfs.stripe_size_bytes,
                      file.stripe_count, [&](const StripeRun& run) {
                        double& landed = ost_bytes_[static_cast<std::size_t>(
                            ost_of(file, run.first_chunk))];
                        landed = support::repeat_add(landed, run.chunk,
                                                     run.count);
                      });
  bytes_landed_ += bytes;
}

void FileSystem::retire(int node, double now_s) {
  if (static_cast<std::size_t>(node) >= buffers_.size()) return;
  BurstBuffer& bb = buffers_[static_cast<std::size_t>(node)];
  while (!bb.pending.empty() && bb.pending.front().end_s <= now_s) {
    const DrainEntry& entry = bb.pending.front();
    account_landing(entry.file, entry.offset, entry.bytes);
    bb.resident_bytes -= entry.bytes;
    bb.pending.pop_front();
  }
  // An empty buffer holds exactly nothing: the running +=/-= above can
  // leave a ±ulp residue (floating-point addition does not associate),
  // and the conservation ledger promises resident == 0.0 once every
  // absorbed byte has drained.
  if (bb.pending.empty() && bb.backlog.empty()) bb.resident_bytes = 0.0;
}

void FileSystem::schedule_backlog(BurstBuffer& bb, double start_s) {
  const BurstBufferConfig& bbc = config_.burst_buffer;
  for (const BacklogEntry& entry : bb.backlog) {
    const Occupancy drain = occupy(bb.drain_until_s, start_s,
                                   entry.bytes / bbc.drain_bandwidth_bytes_per_s);
    bb.pending.push_back({entry.file, entry.offset, entry.bytes, drain.end_s});
    record({AccessRecord::Op::kDrain, entry.rank,
            files_[static_cast<std::size_t>(entry.file)].path, -1,
            entry.offset, entry.bytes, drain.begin_s, drain.end_s});
  }
  bb.backlog.clear();
}

int FileSystem::ost_of(const File& file, std::uint64_t chunk) const {
  const auto within =
      static_cast<int>(chunk % static_cast<std::uint64_t>(file.stripe_count));
  return (file.first_ost + within) % config_.pfs.ost_count;
}

FileSystem::BurstBuffer& FileSystem::buffer_of(int node) {
  if (static_cast<std::size_t>(node) >= buffers_.size()) {
    buffers_.resize(static_cast<std::size_t>(node) + 1);
  }
  return buffers_[static_cast<std::size_t>(node)];
}

const FileSystem::File& FileSystem::checked_file(FileHandle handle,
                                                 bool must_be_open) const {
  EXA_REQUIRE_MSG(handle.valid() &&
                      static_cast<std::size_t>(handle.id) < files_.size(),
                  "invalid file handle");
  const File& file = files_[static_cast<std::size_t>(handle.id)];
  if (must_be_open) {
    EXA_REQUIRE_MSG(file.open, "file is not open: " + file.path);
  }
  return file;
}

void FileSystem::record(AccessRecord rec) {
  auto& tracer = trace::Tracer::instance();
  if (tracer.enabled()) {
    std::string track;
    switch (rec.op) {
      case AccessRecord::Op::kWrite:
        if (rec.ost >= 0 && rec.ost < config_.trace_ost_lanes) {
          track = "io/ost" + std::to_string(rec.ost);
        }
        break;
      case AccessRecord::Op::kAbsorb:
      case AccessRecord::Op::kDrain: {
        const int node = node_of_rank(rec.rank);
        if (node < config_.trace_bb_lanes) {
          track = "io/bb" + std::to_string(node);
        }
        break;
      }
      case AccessRecord::Op::kOpen:
      case AccessRecord::Op::kClose:
        track = "io/mds";
        break;
    }
    if (!track.empty()) {
      tracer.complete(to_string(rec.op) + "/r" + std::to_string(rec.rank),
                      track, rec.start_s, rec.end_s - rec.start_s, "io");
    }
  }
  DxtLog::instance().record(rec);
  if (records_.size() < config_.max_records) {
    records_.push_back(std::move(rec));
  } else {
    ++dropped_;
  }
}

}  // namespace exa::io
