#include "io/io_model.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace exa::io {

namespace {

/// A bandwidth knob is valid when it is positive; +inf means "free".
bool valid_bandwidth(double bytes_per_s) {
  return bytes_per_s > 0.0 && !std::isnan(bytes_per_s);
}

/// True when the bandwidth adds no time (the quiet limit).
bool free_bandwidth(double bytes_per_s) {
  return std::isinf(bytes_per_s);
}

}  // namespace

std::string to_string(BurstBufferPolicy policy) {
  switch (policy) {
    case BurstBufferPolicy::kNone: return "none";
    case BurstBufferPolicy::kWriteThrough: return "write-through";
    case BurstBufferPolicy::kWriteBack: return "write-back";
  }
  return "?";
}

void IoConfig::validate() const {
  EXA_REQUIRE_MSG(pfs.ost_count >= 1, "IoConfig: ost_count must be >= 1");
  EXA_REQUIRE_MSG(pfs.stripe_count >= 1,
                  "IoConfig: stripe_count must be >= 1");
  EXA_REQUIRE_MSG(pfs.stripe_count <= pfs.ost_count,
                  "IoConfig: stripe_count must not exceed ost_count");
  EXA_REQUIRE_MSG(pfs.stripe_size_bytes > 0.0,
                  "IoConfig: stripe_size_bytes must be > 0");
  // FileSystem's closed-form striping is exact only on whole-byte chunk
  // boundaries below 2^53, where every stripe multiple is a double.
  EXA_REQUIRE_MSG(pfs.stripe_size_bytes == std::floor(pfs.stripe_size_bytes),
                  "IoConfig: stripe_size_bytes must be a whole number of "
                  "bytes (Lustre stripes are 64 KiB multiples), got " +
                      std::to_string(pfs.stripe_size_bytes));
  EXA_REQUIRE_MSG(pfs.stripe_size_bytes < 0x1p53,
                  "IoConfig: stripe_size_bytes must be < 2^53 bytes");
  EXA_REQUIRE_MSG(valid_bandwidth(pfs.ost_bandwidth_bytes_per_s),
                  "IoConfig: ost_bandwidth_bytes_per_s must be > 0");
  EXA_REQUIRE_MSG(pfs.metadata_op_s >= 0.0 && !std::isnan(pfs.metadata_op_s),
                  "IoConfig: metadata_op_s must be >= 0");
  EXA_REQUIRE_MSG(ranks_per_node >= 1,
                  "IoConfig: ranks_per_node must be >= 1");
  EXA_REQUIRE_MSG(trace_ost_lanes >= 0, "IoConfig: trace_ost_lanes < 0");
  EXA_REQUIRE_MSG(trace_bb_lanes >= 0, "IoConfig: trace_bb_lanes < 0");
  if (burst_buffer.policy != BurstBufferPolicy::kNone) {
    EXA_REQUIRE_MSG(burst_buffer.capacity_bytes >= 0.0,
                    "IoConfig: burst-buffer capacity_bytes must be >= 0");
    EXA_REQUIRE_MSG(
        valid_bandwidth(burst_buffer.absorb_bandwidth_bytes_per_s),
        "IoConfig: absorb_bandwidth_bytes_per_s must be > 0");
    EXA_REQUIRE_MSG(valid_bandwidth(burst_buffer.drain_bandwidth_bytes_per_s),
                    "IoConfig: drain_bandwidth_bytes_per_s must be > 0");
  }
}

bool IoConfig::quiet() const {
  const bool pfs_quiet = free_bandwidth(pfs.ost_bandwidth_bytes_per_s) &&
                         pfs.metadata_op_s == 0.0;
  if (burst_buffer.policy == BurstBufferPolicy::kNone) return pfs_quiet;
  return pfs_quiet &&
         free_bandwidth(burst_buffer.absorb_bandwidth_bytes_per_s) &&
         free_bandwidth(burst_buffer.drain_bandwidth_bytes_per_s);
}

IoConfig IoConfig::quiet_config() { return IoConfig{}; }

IoConfig IoConfig::lustre() {
  IoConfig config;
  config.pfs.ost_count = 64;
  config.pfs.ost_bandwidth_bytes_per_s = 5.0e9;
  config.pfs.stripe_count = 4;
  config.pfs.stripe_size_bytes = 1.0 * 1024 * 1024;
  config.pfs.metadata_op_s = 50.0e-6;
  return config;
}

IoConfig IoConfig::lustre_with_burst_buffer() {
  IoConfig config = lustre();
  config.burst_buffer.policy = BurstBufferPolicy::kWriteThrough;
  config.burst_buffer.capacity_bytes = 1.5e12;
  config.burst_buffer.absorb_bandwidth_bytes_per_s = 5.0e9;
  config.burst_buffer.drain_bandwidth_bytes_per_s = 2.5e9;
  return config;
}

IoConfig IoConfig::preset(const std::string& name) {
  if (name == "quiet") return quiet_config();
  if (name == "lustre") return lustre();
  if (name == "bb") return lustre_with_burst_buffer();
  EXA_REQUIRE_MSG(false, "unknown io preset '" + name +
                             "' (expected quiet | lustre | bb)");
  return {};
}

}  // namespace exa::io
