#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

/// \file stats.h
/// \brief Nearest-rank percentiles that carry their sample count, and the
/// interquartile mean of per-call series.

namespace deco::perfbench {

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported at all: a p99 needs at least 1000 samples.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< values the percentile was taken over
  size_t beyond = 0;   ///< samples strictly above its rank
  /// False for an empty sample, and for a tail percentile (above the
  /// median) with fewer than `kMinBeyond` samples beyond it; such a
  /// percentile must not be reported.
  bool supported = false;
};

/// \brief Nearest-rank percentile `q` in (0, 1] of `values`: the smallest
/// value with at least `q * n` samples at or below it.
inline Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;  // unsupported
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.supported = q <= 0.5 || p.beyond >= kMinBeyond;
  return p;
}

/// \brief Median of a per-call series (nearest rank).
inline double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5).value;
}

/// \brief Interquartile mean of a per-call series: the mean of what is
/// left after dropping the lowest and the highest `n / 4` values. Calls
/// that ran through a burst of interference land in the dropped tails,
/// and unlike a median it does not jump between neighbouring values.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

}  // namespace deco::perfbench
