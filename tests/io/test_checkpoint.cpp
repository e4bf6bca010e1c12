#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "io/dxt.hpp"
#include "io/file_system.hpp"
#include "io/io_model.hpp"
#include "support/assert.hpp"
#include "trace/chrome_export.hpp"
#include "trace/tracer.hpp"

namespace exa::io {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "exaready_io_" + name;
}

TEST(Checkpoint, QuietConfigCostsExactlyZero) {
  EXPECT_EQ(checkpoint_time(IoConfig::quiet_config(), 512, 1.0e9), 0.0);
  FileSystem fs;
  const CheckpointStats stats = checkpoint(fs, 64, 1.0e9, 2.5);
  EXPECT_EQ(stats.begin_s, 2.5);
  EXPECT_EQ(stats.end_s, 2.5);
  EXPECT_EQ(stats.makespan_s(), 0.0);
}

TEST(Checkpoint, LustreConfigCostsAggregateBandwidthTime) {
  const IoConfig lustre = IoConfig::lustre();
  const int ranks = 128;
  const double bytes = 256.0 * 1024 * 1024;
  const double t = checkpoint_time(lustre, ranks, bytes);
  // The pool serves ranks * bytes at ost_count * ost_bandwidth once every
  // OST is fed; metadata adds a little on top.
  const double backbone = ranks * bytes /
                          (lustre.pfs.ost_count *
                           lustre.pfs.ost_bandwidth_bytes_per_s);
  EXPECT_GT(t, backbone);
  EXPECT_LT(t, backbone * 1.2);
}

TEST(Checkpoint, MoreRanksNeverFinishEarlier) {
  const IoConfig lustre = IoConfig::lustre();
  const double bytes = 64.0 * 1024 * 1024;
  double prev = 0.0;
  for (const int ranks : {32, 64, 128, 256}) {
    const double t = checkpoint_time(lustre, ranks, bytes);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Checkpoint, ClockCouplingAdvancesRankClocks) {
  // Staggered clocks, so checkpoint starts are unequal.
  std::vector<double> clocks(8);
  for (std::size_t r = 0; r < clocks.size(); ++r) clocks[r] = 0.01 * r;
  FileSystem fs(IoConfig::lustre());
  const CheckpointStats stats = checkpoint(fs, clocks, 8.0 * 1024 * 1024);
  EXPECT_EQ(stats.ranks, 8);
  EXPECT_DOUBLE_EQ(stats.begin_s, 0.0);  // rank 0's clock
  for (std::size_t r = 0; r < clocks.size(); ++r) {
    EXPECT_GT(clocks[r], 0.01 * r);  // every clock moved past its start
    EXPECT_LE(clocks[r], stats.end_s);
  }
  EXPECT_DOUBLE_EQ(*std::max_element(clocks.begin(), clocks.end()),
                   stats.end_s);
}

TEST(Checkpoint, ClockCouplingIsFreeOnQuietFilesystem) {
  std::vector<double> clocks = {0.005, 0.010, 0.015, 0.020};
  const std::vector<double> before = clocks;
  FileSystem fs;  // quiet
  checkpoint(fs, clocks, 1.0e9);
  EXPECT_EQ(clocks, before);
}

TEST(Dxt, JsonlRoundTripsAccessRecords) {
  FileSystem fs(IoConfig::lustre());
  const OpenResult o = fs.open(5, "ckpt/r5", 0.0);
  fs.write(o.handle, 0.0, 3.0 * 1024 * 1024, o.ready_s);
  fs.close(o.handle, 1.0);
  const std::string path = temp_path("dxt.jsonl");
  write_dxt_jsonl(path, fs.records());
  const auto loaded = load_dxt_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), fs.records().size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const AccessRecord& a = fs.records()[i];
    const AccessRecord& b = loaded[i];
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.ost, b.ost);
    EXPECT_DOUBLE_EQ(a.offset, b.offset);
    EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
    EXPECT_DOUBLE_EQ(a.start_s, b.start_s);
    EXPECT_DOUBLE_EQ(a.end_s, b.end_s);
  }
}

TEST(Dxt, GlobalLogCapturesAcrossFilesystems) {
  auto& log = DxtLog::instance();
  log.enable();
  {
    FileSystem a(IoConfig::lustre());
    const OpenResult o = a.open(0, "a", 0.0);
    a.close(o.handle, 0.0);
    FileSystem b(IoConfig::lustre());
    const OpenResult o2 = b.open(1, "b", 0.0);
    b.close(o2.handle, 0.0);
  }
  const auto records = log.snapshot();
  log.disable();
  log.clear();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].file, "a");
  EXPECT_EQ(records[2].file, "b");
}

TEST(Dxt, OpNamesRoundTrip) {
  for (const auto op :
       {AccessRecord::Op::kOpen, AccessRecord::Op::kWrite,
        AccessRecord::Op::kClose, AccessRecord::Op::kAbsorb,
        AccessRecord::Op::kDrain}) {
    EXPECT_EQ(op_from_string(to_string(op)), op);
  }
  EXPECT_THROW((void)op_from_string("read"), support::Error);
}

TEST(ChromeExport, CheckpointEmitsIoLanes) {
  auto& tracer = trace::Tracer::instance();
  tracer.enable();
  {
    // Plain Lustre produces OST write lanes; the burst-buffer config
    // absorbs every byte node-locally, so it produces the bb lanes.
    FileSystem pfs(IoConfig::lustre());
    checkpoint(pfs, 16, 4.0 * 1024 * 1024);
    FileSystem bb(IoConfig::lustre_with_burst_buffer());
    checkpoint(bb, 16, 4.0 * 1024 * 1024);
  }
  const std::string json = trace::chrome_trace_json(tracer.snapshot());
  tracer.disable();
  tracer.clear();
  // The exporter splits track "io/ost0" into process "io" (process_name
  // metadata) and thread "ost0" (thread_name metadata).
  EXPECT_NE(json.find("\"name\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ost0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bb0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mds\""), std::string::npos);
}

}  // namespace
}  // namespace exa::io
