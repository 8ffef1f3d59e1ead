// Exact order statistics over raw samples. No histogram buckets: every
// quantile the benchmark prints is one of the measured values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace bb {

// The tail rule: a percentile is reported only when at least this many
// samples lie above it.
inline constexpr std::size_t kTailSamplesAbove = 10;

// Nearest-rank index of percentile p (0 < p <= 100) in n sorted samples.
inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("rank_index: no samples");
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

// Samples strictly above the nearest-rank percentile position.
inline std::size_t samples_above(std::size_t n, double p) {
  return n - 1 - rank_index(n, p);
}

inline bool tail_supported(std::size_t n, double p) {
  return n > 0 && samples_above(n, p) >= kTailSamplesAbove;
}

// Smallest sample count at which percentile p satisfies the tail rule.
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (!tail_supported(n, p)) ++n;
  return n;
}

inline double percentile(std::vector<double> samples, double p) {
  const std::size_t k = rank_index(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

// Latency samples arrive in bursts that share one pump, so one noisy pump
// moves many of them. The reported statistic is the median, over groups of
// consecutive passes, of each group's own order statistic; a group closes
// once it holds `min_group` samples (a short last group is folded into the
// one before it). One group = the plain pooled statistic.
inline double grouped_percentile(const std::vector<std::vector<double>>& passes,
                                 std::size_t min_group, double p) {
  std::vector<std::vector<double>> groups;
  std::vector<double> current;
  for (const std::vector<double>& pass : passes) {
    current.insert(current.end(), pass.begin(), pass.end());
    if (current.size() >= min_group) {
      groups.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    if (groups.empty()) {
      groups.push_back(std::move(current));
    } else {
      groups.back().insert(groups.back().end(), current.begin(), current.end());
    }
  }
  std::vector<double> values;
  for (std::vector<double>& group : groups) {
    values.push_back(percentile(std::move(group), p));
  }
  return median(std::move(values));
}

}  // namespace bb
