#include "io/file_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "io/io_model.hpp"
#include "support/assert.hpp"
#include "trace/tracer.hpp"

namespace exa::io {
namespace {

/// 4 OSTs x 1 GB/s, 2 x 1 MiB stripes, free metadata: small enough to
/// reason about exact chunk placement and cursor times.
IoConfig tiny_pfs() {
  IoConfig config;
  config.pfs.ost_count = 4;
  config.pfs.ost_bandwidth_bytes_per_s = 1.0e9;
  config.pfs.stripe_count = 2;
  config.pfs.stripe_size_bytes = 1.0 * 1024 * 1024;
  config.pfs.metadata_op_s = 0.0;
  return config;
}

constexpr double kMiB = 1024.0 * 1024;

TEST(FileSystem, QuietConfigAddsExactlyZeroTime) {
  FileSystem fs;  // default = quiet
  const OpenResult o = fs.open(0, "f", 1.25);
  EXPECT_EQ(o.ready_s, 1.25);
  EXPECT_EQ(fs.write(o.handle, 0.0, 1e12, o.ready_s), 1.25);
  EXPECT_EQ(fs.close(o.handle, 1.25), 1.25);
  // A later-starting op must not delay an earlier one through the cursors.
  const OpenResult o2 = fs.open(1, "g", 0.5);
  EXPECT_EQ(fs.write(o2.handle, 0.0, 1e12, 0.5), 0.5);
}

TEST(FileSystem, StripesRoundRobinFromFileFirstOst) {
  FileSystem fs(tiny_pfs());
  // File 0 starts at OST 0 and stripes over {0, 1}.
  const OpenResult o = fs.open(0, "f", 0.0);
  fs.write(o.handle, 0.0, 4.0 * kMiB, 0.0);
  EXPECT_EQ(fs.ost_bytes(0), 2.0 * kMiB);
  EXPECT_EQ(fs.ost_bytes(1), 2.0 * kMiB);
  EXPECT_EQ(fs.ost_bytes(2), 0.0);
  // File 1 starts at OST 1 and stripes over {1, 2}.
  const OpenResult o2 = fs.open(1, "g", 0.0);
  fs.write(o2.handle, 0.0, 2.0 * kMiB, 0.0);
  EXPECT_EQ(fs.ost_bytes(1), 3.0 * kMiB);
  EXPECT_EQ(fs.ost_bytes(2), 1.0 * kMiB);
}

TEST(FileSystem, WriteTimePipelinesAcrossStripedOsts) {
  FileSystem fs(tiny_pfs());
  const OpenResult o = fs.open(0, "f", 0.0);
  // 8 MiB over 2 OSTs at 1 GB/s: 4 MiB per OST in parallel.
  const double end = fs.write(o.handle, 0.0, 8.0 * kMiB, 0.0);
  EXPECT_DOUBLE_EQ(end, 4.0 * kMiB / 1.0e9);
  EXPECT_DOUBLE_EQ(fs.ost_busy_until(0), end);
  EXPECT_DOUBLE_EQ(fs.ost_busy_until(1), end);
}

TEST(FileSystem, SharedOstContentionSerializesWriters) {
  FileSystem fs(tiny_pfs());
  const OpenResult a = fs.open(0, "a", 0.0);
  const OpenResult b = fs.open(4, "b", 0.0);  // file id 1: OSTs {1, 2}
  const OpenResult c = fs.open(8, "c", 0.0);  // file id 2: OSTs {2, 3}
  const double t_a = fs.write(a.handle, 0.0, 4.0 * kMiB, 0.0);
  // b shares OST 1 with a: its chunks there queue behind a's.
  const double t_b = fs.write(b.handle, 0.0, 4.0 * kMiB, 0.0);
  EXPECT_GT(t_b, t_a);
  // c's OSTs {2, 3} only carry b's OST-2 chunks; partial overlap.
  const double t_c = fs.write(c.handle, 0.0, 4.0 * kMiB, 0.0);
  EXPECT_GT(t_c, t_a);
}

TEST(FileSystem, MetadataServerSerializesOpens) {
  IoConfig config = tiny_pfs();
  config.pfs.metadata_op_s = 1.0e-3;
  FileSystem fs(config);
  const OpenResult first = fs.open(0, "a", 0.0);
  const OpenResult second = fs.open(1, "b", 0.0);
  EXPECT_DOUBLE_EQ(first.ready_s, 1.0e-3);
  EXPECT_DOUBLE_EQ(second.ready_s, 2.0e-3);  // queued behind the first
  EXPECT_DOUBLE_EQ(fs.close(first.handle, first.ready_s), 3.0e-3);
}

TEST(FileSystem, ZeroByteWritesAreFree) {
  FileSystem fs(tiny_pfs());
  const OpenResult o = fs.open(0, "f", 0.0);
  EXPECT_EQ(fs.write(o.handle, 0.0, 0.0, 0.75), 0.75);
  EXPECT_EQ(fs.bytes_written(), 0.0);
  EXPECT_EQ(fs.bytes_landed(), 0.0);
}

TEST(FileSystem, RejectsBadHandlesAndArguments) {
  FileSystem fs(tiny_pfs());
  EXPECT_THROW(fs.write(FileHandle{}, 0.0, 1.0, 0.0), support::Error);
  EXPECT_THROW(fs.write(FileHandle{7}, 0.0, 1.0, 0.0), support::Error);
  const OpenResult o = fs.open(0, "f", 0.0);
  EXPECT_THROW(fs.write(o.handle, -1.0, 1.0, 0.0), support::Error);
  EXPECT_THROW(fs.write(o.handle, 0.0, -1.0, 0.0), support::Error);
  EXPECT_THROW((void)fs.open(-1, "g", 0.0), support::Error);
  fs.close(o.handle, 0.0);
  EXPECT_THROW(fs.write(o.handle, 0.0, 1.0, 0.0), support::Error);  // closed
}

TEST(FileSystem, RejectsBytePositionsFrom2To53) {
  FileSystem fs(tiny_pfs());
  const OpenResult o = fs.open(0, "f", 0.0);
  EXPECT_THROW(fs.write(o.handle, 0x1p53, 1.0, 0.0), support::Error);
  EXPECT_THROW(fs.write(o.handle, 0x1p52, 0x1p52, 0.0), support::Error);
  EXPECT_THROW(fs.write(o.handle, 0.0, 1.0e16, 0.0), support::Error);
  try {
    fs.write(o.handle, 0x1p52, 0x1p52, 0.0);
    FAIL() << "write past 2^53 accepted";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("split the file"), std::string::npos)
        << e.what();
  }
  // The last whole byte below 2^53 is still writable.
  EXPECT_NO_THROW(fs.write(o.handle, 0x1p53 - 2, 1.0, 0.0));
  EXPECT_EQ(fs.bytes_landed(), 1.0);
}

/// Size-independence guard: 64 ranks each write 2^50 bytes (1 PiB, 2^30
/// stripe chunks) through the lustre preset. Priced chunk by chunk this
/// takes hours; in closed form it is O(stripe_count) per write, and the
/// io_size_independence ctest runs it under a short TIMEOUT.
TEST(FileSystem, PebibyteWritesCostStripeCountNotBytes) {
  const IoConfig config = IoConfig::lustre();  // 64 OSTs, 4 x 1 MiB stripes
  FileSystem fs(config);
  constexpr int kRanks = 64;
  constexpr double kBytes = 0x1p50;
  std::vector<FileHandle> handles;
  for (int rank = 0; rank < kRanks; ++rank) {
    handles.push_back(fs.open(rank, "pb/r" + std::to_string(rank), 0.0).handle);
  }
  double end = 0.0;
  for (const FileHandle h : handles) {
    end = std::max(end, fs.write(h, 0.0, kBytes, 1.0));
  }
  // File r stripes over OSTs r..r+3 (mod 64): 2^48 bytes on each, so
  // every OST carries four files' quarters. Integer sums below 2^53 are
  // exact, so the ledgers are exact too.
  for (int ost = 0; ost < config.pfs.ost_count; ++ost) {
    EXPECT_EQ(fs.ost_bytes(ost), kBytes) << "ost " << ost;
  }
  EXPECT_EQ(fs.bytes_landed(), kRanks * kBytes);
  EXPECT_EQ(fs.bytes_written(), kRanks * kBytes);
  // Each write's DXT record per OST carries its exact quarter.
  std::size_t writes = 0;
  for (const AccessRecord& rec : fs.records()) {
    if (rec.op != AccessRecord::Op::kWrite) continue;
    ++writes;
    EXPECT_EQ(rec.bytes, kBytes / 4);
  }
  EXPECT_EQ(writes, std::size_t{kRanks} * 4);
  // Every OST serves its 2^50 bytes at 5 GB/s from t = 1 s, to within
  // summation rounding.
  const double busy = kBytes / config.pfs.ost_bandwidth_bytes_per_s;
  EXPECT_NEAR(end, 1.0 + busy, 1e-6 * busy);
}

IoConfig tiny_bb(BurstBufferPolicy policy) {
  IoConfig config = tiny_pfs();
  config.burst_buffer.policy = policy;
  config.burst_buffer.capacity_bytes = 8.0 * kMiB;
  config.burst_buffer.absorb_bandwidth_bytes_per_s = 2.0e9;
  config.burst_buffer.drain_bandwidth_bytes_per_s = 1.0e9;
  config.ranks_per_node = 2;
  return config;
}

TEST(FileSystem, BurstBufferAbsorbsAtNodeBandwidth) {
  FileSystem fs(tiny_bb(BurstBufferPolicy::kWriteThrough));
  const OpenResult o = fs.open(0, "f", 0.0);
  const double end = fs.write(o.handle, 0.0, 4.0 * kMiB, 0.0);
  EXPECT_DOUBLE_EQ(end, 4.0 * kMiB / 2.0e9);  // absorb, not PFS, pace
  EXPECT_EQ(fs.bytes_resident(), 4.0 * kMiB);
  EXPECT_EQ(fs.bytes_landed(), 0.0);  // drain still in flight
  // Ranks 0 and 1 share node 0's absorb pipe: rank 1 queues behind.
  const OpenResult o2 = fs.open(1, "g", 0.0);
  EXPECT_DOUBLE_EQ(fs.write(o2.handle, 0.0, 4.0 * kMiB, 0.0), 2.0 * end);
  // Rank 2 lives on node 1 and absorbs in parallel.
  const OpenResult o3 = fs.open(2, "h", 0.0);
  EXPECT_DOUBLE_EQ(fs.write(o3.handle, 0.0, 4.0 * kMiB, 0.0), end);
}

TEST(FileSystem, WriteThroughDrainsRetireToOsts) {
  FileSystem fs(tiny_bb(BurstBufferPolicy::kWriteThrough));
  const OpenResult o = fs.open(0, "f", 0.0);
  fs.write(o.handle, 0.0, 4.0 * kMiB, 0.0);
  // Drain of 4 MiB at 1 GB/s completes at absorb end + 4.194 ms.
  const double drained = fs.drain_all(1.0);
  EXPECT_LE(drained, 1.0);  // long finished by then
  EXPECT_EQ(fs.bytes_resident(), 0.0);
  EXPECT_EQ(fs.bytes_landed(), 4.0 * kMiB);
  EXPECT_EQ(fs.ost_bytes(0) + fs.ost_bytes(1), 4.0 * kMiB);
}

TEST(FileSystem, WriteBackHoldsBytesUntilFlush) {
  FileSystem fs(tiny_bb(BurstBufferPolicy::kWriteBack));
  const OpenResult o = fs.open(0, "f", 0.0);
  const double end = fs.write(o.handle, 0.0, 4.0 * kMiB, 0.0);
  fs.settle(end + 10.0);  // no drain scheduled: nothing to retire
  EXPECT_EQ(fs.bytes_resident(), 4.0 * kMiB);
  EXPECT_EQ(fs.bytes_landed(), 0.0);
  const double flushed = fs.flush(0, end);
  EXPECT_DOUBLE_EQ(flushed, end + 4.0 * kMiB / 1.0e9);
  EXPECT_EQ(fs.bytes_resident(), 0.0);
  EXPECT_EQ(fs.bytes_landed(), 4.0 * kMiB);
}

TEST(FileSystem, CapacityOverflowSpillsToPfs) {
  FileSystem fs(tiny_bb(BurstBufferPolicy::kWriteThrough));
  const OpenResult o = fs.open(0, "f", 0.0);
  // 12 MiB against an 8 MiB buffer: 4 MiB spills synchronously.
  const double end = fs.write(o.handle, 0.0, 12.0 * kMiB, 0.0);
  EXPECT_EQ(fs.bytes_resident(), 8.0 * kMiB);
  EXPECT_EQ(fs.bytes_landed(), 4.0 * kMiB);  // the spill, already on OSTs
  // Completion covers both the absorb and the spilled PFS write.
  EXPECT_GE(end, 8.0 * kMiB / 2.0e9);
  fs.drain_all(end + 1.0);
  EXPECT_EQ(fs.bytes_landed(), 12.0 * kMiB);
  EXPECT_EQ(fs.bytes_written(), 12.0 * kMiB);
}

TEST(FileSystem, RecordsEveryAccessInIssueOrder) {
  FileSystem fs(tiny_pfs());
  const OpenResult o = fs.open(3, "dir/f", 0.0);
  fs.write(o.handle, 0.0, 2.0 * kMiB, o.ready_s);
  fs.close(o.handle, 1.0);
  const auto& recs = fs.records();
  // open + one aggregated write extent per touched OST (2) + close.
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].op, AccessRecord::Op::kOpen);
  EXPECT_EQ(recs[1].op, AccessRecord::Op::kWrite);
  EXPECT_EQ(recs[2].op, AccessRecord::Op::kWrite);
  EXPECT_EQ(recs[3].op, AccessRecord::Op::kClose);
  EXPECT_EQ(recs[1].rank, 3);
  EXPECT_EQ(recs[1].file, "dir/f");
  EXPECT_EQ(recs[1].bytes + recs[2].bytes, 2.0 * kMiB);
  EXPECT_EQ(fs.records_dropped(), 0u);
}

TEST(FileSystem, RecordCapCountsDrops) {
  IoConfig config = tiny_pfs();
  config.max_records = 2;
  FileSystem fs(config);
  const OpenResult o = fs.open(0, "f", 0.0);
  fs.write(o.handle, 0.0, 2.0 * kMiB, 0.0);
  fs.close(o.handle, 1.0);
  EXPECT_EQ(fs.records().size(), 2u);
  EXPECT_EQ(fs.records_dropped(), 2u);
}

TEST(FileSystem, TracerGetsOstAndMdsLanes) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable();
  {
    IoConfig config = tiny_pfs();
    config.pfs.metadata_op_s = 1.0e-6;
    FileSystem fs(config);
    const OpenResult o = fs.open(0, "f", 0.0);
    fs.write(o.handle, 0.0, 2.0 * kMiB, o.ready_s);
    fs.close(o.handle, 1.0);
  }
  const auto events = tracer.snapshot();
  tracer.disable();
  tracer.clear();
  bool saw_ost = false;
  bool saw_mds = false;
  for (const auto& e : events) {
    if (e.track == "io/ost0") saw_ost = true;
    if (e.track == "io/mds") saw_mds = true;
  }
  EXPECT_TRUE(saw_ost);
  EXPECT_TRUE(saw_mds);
}

TEST(FileSystem, ConservationAcrossMixedTiers) {
  FileSystem fs(tiny_bb(BurstBufferPolicy::kWriteThrough));
  double issued = 0.0;
  double clock = 0.0;
  for (int rank = 0; rank < 6; ++rank) {
    const OpenResult o =
        fs.open(rank, "r" + std::to_string(rank), clock);
    const double bytes = (rank + 1) * kMiB;
    clock = fs.write(o.handle, 0.0, bytes, o.ready_s);
    fs.close(o.handle, clock);
    issued += bytes;
  }
  EXPECT_EQ(fs.bytes_written(), issued);
  EXPECT_DOUBLE_EQ(
      fs.bytes_written(),
      fs.bytes_landed() + fs.bytes_resident());
  fs.drain_all(clock);
  EXPECT_EQ(fs.bytes_resident(), 0.0);
  EXPECT_DOUBLE_EQ(fs.bytes_landed(), issued);
}

}  // namespace
}  // namespace exa::io
