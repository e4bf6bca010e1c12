#include "io/io_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "io/file_system.hpp"
#include "support/assert.hpp"

namespace exa::io {
namespace {

TEST(IoConfig, DefaultIsQuietAndValid) {
  const IoConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(config.quiet());
  EXPECT_TRUE(IoConfig::quiet_config().quiet());
}

TEST(IoConfig, CalibratedPresetsAreValidAndLoud) {
  for (const IoConfig& config :
       {IoConfig::lustre(), IoConfig::lustre_with_burst_buffer()}) {
    EXPECT_NO_THROW(config.validate());
    EXPECT_FALSE(config.quiet());
  }
  EXPECT_EQ(IoConfig::lustre_with_burst_buffer().burst_buffer.policy,
            BurstBufferPolicy::kWriteThrough);
}

TEST(IoConfig, PresetNamesRoundTrip) {
  EXPECT_TRUE(IoConfig::preset("quiet").quiet());
  EXPECT_EQ(IoConfig::preset("lustre").pfs.ost_count,
            IoConfig::lustre().pfs.ost_count);
  EXPECT_EQ(IoConfig::preset("bb").burst_buffer.policy,
            BurstBufferPolicy::kWriteThrough);
  EXPECT_THROW((void)IoConfig::preset("gpfs"), support::Error);
  EXPECT_THROW((void)IoConfig::preset(""), support::Error);
}

TEST(IoConfigValidation, RejectsNonPositiveOstCount) {
  IoConfig config;
  config.pfs.ost_count = 0;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.ost_count = -4;
  EXPECT_THROW(config.validate(), support::Error);
}

TEST(IoConfigValidation, RejectsStripeCountOutsideOstRange) {
  IoConfig config;
  config.pfs.stripe_count = 0;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.stripe_count = config.pfs.ost_count + 1;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.stripe_count = config.pfs.ost_count;  // full-width is legal
  EXPECT_NO_THROW(config.validate());
}

TEST(IoConfigValidation, RejectsNonPositiveStripeSizeAndBandwidth) {
  IoConfig config;
  config.pfs.stripe_size_bytes = 0.0;
  EXPECT_THROW(config.validate(), support::Error);
  config = IoConfig{};
  config.pfs.ost_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.ost_bandwidth_bytes_per_s = -1.0;
  EXPECT_THROW(config.validate(), support::Error);
}

TEST(IoConfigValidation, RejectsFractionalOrHugeStripeSize) {
  IoConfig config;
  config.pfs.stripe_size_bytes = 4096.5;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.stripe_size_bytes = 0.25;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.stripe_size_bytes = 0x1p53;
  EXPECT_THROW(config.validate(), support::Error);
  config.pfs.stripe_size_bytes = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), support::Error);
  // Whole bytes below 2^53 are fine, powers of two or not.
  for (const double stripe : {1.0, 3.0, 65536.0 * 3, 0x1p53 - 1}) {
    config.pfs.stripe_size_bytes = stripe;
    EXPECT_NO_THROW(config.validate()) << stripe;
  }
  // The error says what to fix.
  config.pfs.stripe_size_bytes = 1000.5;
  try {
    config.validate();
    FAIL() << "fractional stripe accepted";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("whole number of bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(IoConfigValidation, RejectsNegativeMetadataCost) {
  IoConfig config;
  config.pfs.metadata_op_s = -1e-6;
  EXPECT_THROW(config.validate(), support::Error);
}

TEST(IoConfigValidation, RejectsBadBurstBufferFieldsOnlyWhenEnabled) {
  IoConfig config;
  // With the tier disabled its knobs are dormant and unchecked.
  config.burst_buffer.capacity_bytes = -1.0;
  EXPECT_NO_THROW(config.validate());
  config.burst_buffer.policy = BurstBufferPolicy::kWriteThrough;
  EXPECT_THROW(config.validate(), support::Error);
  config.burst_buffer.capacity_bytes = 1e9;
  config.burst_buffer.absorb_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(config.validate(), support::Error);
  config.burst_buffer.absorb_bandwidth_bytes_per_s = 1e9;
  config.burst_buffer.drain_bandwidth_bytes_per_s = -2.0;
  EXPECT_THROW(config.validate(), support::Error);
  config.burst_buffer.drain_bandwidth_bytes_per_s = 1e9;
  EXPECT_NO_THROW(config.validate());
}

TEST(IoConfigValidation, RejectsNonPositiveRanksPerNode) {
  IoConfig config;
  config.ranks_per_node = 0;
  EXPECT_THROW(config.validate(), support::Error);
}

TEST(IoConfigValidation, FileSystemConstructorValidates) {
  IoConfig config;
  config.pfs.ost_count = 0;
  EXPECT_THROW(FileSystem fs(config), support::Error);
}

}  // namespace
}  // namespace exa::io
