#pragma once
/// \file stats.hpp
/// Descriptive statistics used by benchmark reporting: means, geometric
/// means (the right average for speed-up ratios), percentiles, and a simple
/// least-squares fit used to extract scaling exponents.

#include <span>
#include <vector>

namespace exa::support {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);   // population variance
[[nodiscard]] double stddev(std::span<const double> xs);
/// Geometric mean; requires all elements > 0.
[[nodiscard]] double geomean(std::span<const double> xs);
[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double p);
[[nodiscard]] double median(std::span<const double> xs);

/// Result of a least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

/// Fits y = c * x^alpha by regressing log y on log x; returns {alpha, log c, r2}.
/// All inputs must be positive. Used to verify O(N^3) / O(N log N) claims.
[[nodiscard]] LinearFit loglog_fit(std::span<const double> xs,
                                   std::span<const double> ys);

/// Parallel efficiency of a weak-scaling series: t(1) / t(n).
[[nodiscard]] std::vector<double> weak_scaling_efficiency(
    std::span<const double> times);

}  // namespace exa::support
