#pragma once
/// \file stats.hpp
/// Order statistics for the benchmark's reports: median, Python-compatible
/// quantiles, and the tail percentile a sample count can support.

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Cut points dividing \p data into \p n intervals of equal probability —
/// the same values as Python's `statistics.quantiles(data, n=n)` with its
/// default "exclusive" method, so the spreads this benchmark prints match
/// the ones its users compute from the result lines.  Needs >= 2 values.
inline std::vector<double> quantiles(std::vector<double> data, int n = 4) {
  if (n < 1) throw std::invalid_argument("quantiles: n must be >= 1");
  if (data.size() < 2)
    throw std::invalid_argument("quantiles: need at least two data points");
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((data[static_cast<std::size_t>(j - 1)] * double(n - delta) +
                    data[static_cast<std::size_t>(j)] * double(delta)) /
                   double(n));
  }
  return cuts;
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> data) {
  if (data.empty()) throw std::invalid_argument("median of no data");
  std::sort(data.begin(), data.end());
  const std::size_t h = data.size() / 2;
  return data.size() % 2 ? data[h] : 0.5 * (data[h - 1] + data[h]);
}

/// The highest of the usual reporting percentiles (50, 90, 95, 99, 99.9)
/// that still has at least \p min_beyond samples above it among \p count
/// samples; nullopt when not even the median does.  A percentile with
/// fewer samples beyond it than that is one or two outliers, not a tail.
inline std::optional<double> supported_percentile(std::size_t count,
                                                  std::size_t min_beyond = 10) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(count) * (1 - p / 100);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) best = p;
  }
  return best;
}

/// Nearest-rank percentile \p p (0 < p <= 100) of \p data.
inline double percentile(std::vector<double> data, double p) {
  if (data.empty()) throw std::invalid_argument("percentile of no data");
  std::sort(data.begin(), data.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100 * static_cast<double>(data.size())));
  return data[std::clamp<std::size_t>(rank, 1, data.size()) - 1];
}

}  // namespace perfbench
