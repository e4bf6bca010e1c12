#pragma once
/// \file repeat_add.hpp
/// Bitwise-exact closed form of a repeated floating-point add.
///
/// `repeat_add(x, d, k)` returns exactly what `k` sequential `x += d`
/// return, bit for bit, at O(binades crossed) cost instead of O(k). It
/// lets a model that used to accumulate one chunk at a time (the striped
/// filesystem's per-OST cursors and byte ledgers) jump straight to the
/// end without moving a single ulp.
///
/// Why it is exact: inside one binade [2^(e-1), 2^e) the doubles form a
/// uniform grid of spacing u, so an add whose result stays below the
/// binade's top rounds `x + d` to `x + r·u` with r = d/u rounded to an
/// integer. That r is the same for every x on the grid, except when d/u
/// sits exactly halfway between two integers: then ties-to-even picks
/// the r that makes the result's last bit even, which depends on x's last
/// bit. After one such add the result is even, and it stays even, so
/// from then on r is constant too. Hence once two consecutive increments
/// inside one binade agree, every further add contributes exactly that
/// increment until the binade's top, and those adds collapse into one
/// exact multiply-add. An add that would change nothing (d below half an
/// ulp of x) is a fixed point and ends the loop at once.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace exa::support {

/// `x` after `k` sequential `x += d`, bitwise identical to the loop.
/// Runs in O(binades crossed) when `x >= 0` and `d > 0` (the loop itself
/// otherwise).
[[nodiscard]] inline double repeat_add(double x, double d, std::uint64_t k) {
  double prev_inc = -1.0;  // last increment, when it stayed in one binade
  while (k > 0) {
    double y = x + d;
    --k;
    if (y == x) return x;  // d is absorbed: every later add is too
    int ex = 0;
    int ey = 0;
    (void)std::frexp(x, &ex);
    (void)std::frexp(y, &ey);
    if (!(x > 0.0 && d > 0.0 && std::isfinite(y)) || ex != ey) {
      prev_inc = -1.0;
      x = y;
      continue;
    }
    const double inc = y - x;  // exact: both on the binade's grid
    if (inc == prev_inc && k > 0) {
      // y's last bit is settled, so every further add from inside the
      // binade is exactly `inc`, up to and including one that lands on
      // the top (a point of both grids). Take them all at once.
      const double top = std::ldexp(1.0, ey);
      const double u = std::max(std::ldexp(1.0, ey - 53),
                                std::numeric_limits<double>::denorm_min());
      const auto room = static_cast<std::uint64_t>((top - y) / u);
      const std::uint64_t n =
          std::min(k, room / static_cast<std::uint64_t>(inc / u));
      y += static_cast<double>(n) * inc;  // exact: n·inc and y + n·inc on grid
      k -= n;
    }
    prev_inc = inc;
    x = y;
  }
  return x;
}

}  // namespace exa::support
