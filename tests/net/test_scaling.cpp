#include "net/scaling.hpp"

#include <gtest/gtest.h>

#include "support/assert.hpp"

namespace exa::net {
namespace {

TEST(ScalingStudy, WeakEfficiency) {
  ScalingStudy s("demo", ScalingKind::kWeak);
  s.run({1, 2, 4}, [](int nodes) { return 1.0 + 0.05 * nodes; });
  ASSERT_EQ(s.points().size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[0].efficiency, 1.0);
  EXPECT_LT(s.final_efficiency(), 1.0);
  EXPECT_GT(s.final_efficiency(), 0.8);
}

TEST(ScalingStudy, StrongSpeedup) {
  ScalingStudy s("demo", ScalingKind::kStrong);
  s.run({1, 2, 4}, [](int nodes) { return 1.0 / nodes; });  // ideal
  EXPECT_DOUBLE_EQ(s.points()[2].ratio, 4.0);
  EXPECT_DOUBLE_EQ(s.points()[2].efficiency, 1.0);
}

TEST(ScalingStudy, TableRenderable) {
  ScalingStudy s("demo", ScalingKind::kWeak);
  s.run({1, 8}, [](int) { return 0.5; });
  EXPECT_EQ(s.to_table().row_count(), 2u);
}

TEST(ScalingStudy, RejectsNonPositiveTimes) {
  ScalingStudy s("demo", ScalingKind::kWeak);
  EXPECT_THROW(s.run({1}, [](int) { return 0.0; }), support::Error);
}

}  // namespace
}  // namespace exa::net
