/// support::repeat_add against the plain loop it replaces, bit for bit:
/// ties, absorbed increments, binade crossings, zero and subnormal
/// starts, and counts up to 10^7.

#include "support/repeat_add.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/rng.hpp"

namespace exa::support {
namespace {

double loop_add(double x, double d, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) x += d;
  return x;
}

/// Bitwise comparison, with the inputs in the failure message.
void expect_matches_loop(double x, double d, std::uint64_t k) {
  const double want = loop_add(x, d, k);
  const double got = repeat_add(x, d, k);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << "x=" << x << " d=" << d << " k=" << k
      << ": got " << got << ", loop " << want;
}

constexpr double kUlpOfOne = 0x1p-52;  // spacing of [1, 2)

TEST(RepeatAdd, ZeroCountIsIdentity) {
  EXPECT_EQ(repeat_add(1.5, 0.25, 0), 1.5);
  EXPECT_EQ(repeat_add(0.0, 1.0, 0), 0.0);
}

TEST(RepeatAdd, TiesSettleAfterOneStep) {
  // d an odd multiple of half an ulp: each add is a tie, resolved to the
  // even neighbour, so the first increment depends on x's last bit.
  for (const double half_ulps : {1.0, 3.0, 5.0, 7.0, 1001.0}) {
    const double d = half_ulps * kUlpOfOne / 2;
    for (const double x : {1.0, 1.0 + kUlpOfOne, 1.0 + 2 * kUlpOfOne,
                           1.75 - kUlpOfOne}) {
      for (const std::uint64_t k : {1u, 2u, 3u, 1000u, 1000000u}) {
        expect_matches_loop(x, d, k);
      }
    }
  }
}

TEST(RepeatAdd, BelowHalfAnUlpIsAFixedPoint) {
  expect_matches_loop(1.0, kUlpOfOne / 4, 10000000);
  expect_matches_loop(1.0 + kUlpOfOne, kUlpOfOne / 4, 10000000);
  EXPECT_EQ(repeat_add(1.0, kUlpOfOne / 4, 10000000), 1.0);
  // Exactly half an ulp from an even x is a tie that stays put.
  EXPECT_EQ(repeat_add(1.0, kUlpOfOne / 2, 10000000), 1.0);
  // From an odd x the first tie moves to even, then stays.
  expect_matches_loop(1.0 + kUlpOfOne, kUlpOfOne / 2, 10000000);
  expect_matches_loop(1.0e16, 0.9, 1000);  // ulp 2 at 1e16
}

TEST(RepeatAdd, CrossesManyBinades) {
  // 0.1 is not representable and its rounded increment changes at every
  // binade: from 1e-3 to ~1e5 that is 27 of them.
  expect_matches_loop(1.0e-3, 0.1, 1000000);
  // A small step from a large start, and a step that dwarfs the start.
  expect_matches_loop(3.0, 1.0e-7, 5000000);
  expect_matches_loop(1.0e-200, 1.0, 100000);
  // Durations as the filesystem charges them: 1 MiB at 5 GB/s.
  expect_matches_loop(0.0, 1048576.0 / 5.0e9, 4000000);
}

TEST(RepeatAdd, UlpSizedStepsUpToABinadeTop) {
  // Steps of about one ulp land exactly on 2.0, where the grid coarsens
  // and the same d rounds differently (or stops moving x at all).
  for (const double ulps : {0.75, 1.0, 1.25, 1.5, 2.0, 2.5}) {
    for (const std::uint64_t k : {31u, 32u, 33u, 64u, 65u, 1000u}) {
      expect_matches_loop(2.0 - 64 * kUlpOfOne, ulps * kUlpOfOne, k);
    }
  }
}

TEST(RepeatAdd, FromZero) {
  for (const double d : {0.1, 1.0, 3.0, 1048576.0, 1.0 / 3.0, 0x1p-1074}) {
    for (const std::uint64_t k : {1u, 2u, 3u, 4u, 5u, 999999u}) {
      expect_matches_loop(0.0, d, k);
    }
  }
}

TEST(RepeatAdd, SubnormalGrid) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  expect_matches_loop(0.0, 3 * tiny, 1000000);
  expect_matches_loop(tiny, 2.5e-310, 100000);  // crosses into normals
  expect_matches_loop(std::numeric_limits<double>::min(), 1.5 * tiny, 100000);
}

TEST(RepeatAdd, TenMillionAdds) {
  expect_matches_loop(0.0, 0.1, 10000000);
  expect_matches_loop(12345.678, 1.0 / 3.0, 10000000);
  expect_matches_loop(0.0, 1048576.0, 10000000);  // exact: integers < 2^53
}

TEST(RepeatAdd, NonFiniteAndNonPositiveFallBackToTheLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_matches_loop(1.0, inf, 5);
  expect_matches_loop(inf, 1.0, 5);
  expect_matches_loop(1.0, 0.0, 5);
  expect_matches_loop(-10.0, 0.1, 1000);
  expect_matches_loop(10.0, -0.1, 1000);
  expect_matches_loop(0.0, 1.0e308, 3);  // overflows to inf
}

TEST(RepeatAdd, RandomStartsAndStepsMatchTheLoop) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto exponent = [&](int lo, int hi) {
      return static_cast<int>(rng.uniform_int(lo, hi));
    };
    const double x =
        trial % 7 == 0 ? 0.0 : std::ldexp(rng.uniform(), exponent(-60, 60));
    const double d = std::ldexp(rng.uniform() + 0.5, exponent(-70, 20));
    const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, 20000));
    expect_matches_loop(x, d, k);
  }
}

}  // namespace
}  // namespace exa::support
