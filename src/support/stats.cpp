#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace exa::support {

double mean(std::span<const double> xs) {
  EXA_REQUIRE(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  EXA_REQUIRE(!xs.empty());
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double geomean(std::span<const double> xs) {
  EXA_REQUIRE(!xs.empty());
  double acc = 0.0;
  for (double x : xs) {
    EXA_REQUIRE_MSG(x > 0.0, "geomean requires positive inputs");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double min_of(std::span<const double> xs) {
  EXA_REQUIRE(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  EXA_REQUIRE(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  EXA_REQUIRE(!xs.empty());
  EXA_REQUIRE(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  EXA_REQUIRE(xs.size() == ys.size());
  EXA_REQUIRE(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  EXA_REQUIRE_MSG(denom != 0.0, "degenerate x values in linear_fit");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - (fit.slope * xs[i] + fit.intercept);
    ss_res += r * r;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit loglog_fit(std::span<const double> xs, std::span<const double> ys) {
  EXA_REQUIRE(xs.size() == ys.size());
  std::vector<double> lx(xs.size());
  std::vector<double> ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXA_REQUIRE_MSG(xs[i] > 0.0 && ys[i] > 0.0,
                    "loglog_fit requires positive inputs");
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return linear_fit(lx, ly);
}

std::vector<double> weak_scaling_efficiency(std::span<const double> times) {
  EXA_REQUIRE(!times.empty());
  std::vector<double> eff(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXA_REQUIRE(times[i] > 0.0);
    eff[i] = times.front() / times[i];
  }
  return eff;
}

}  // namespace exa::support
