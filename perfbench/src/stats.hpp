// Percentile helpers for the benchmark's timings.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n samples
// is the sample at rank ceil(p·n/100) in ascending order, so it is always
// a measured value. A timing may be reported at a percentile only when at
// least kMinBeyond samples lie beyond it; for p90 that needs n >= 100.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile's
};

/// 1-based nearest rank of the `percent`-th percentile of n samples.
inline std::size_t nearest_rank(std::size_t n, unsigned percent) {
  if (n == 0 || percent == 0 || percent > 100) {
    throw std::invalid_argument("nearest_rank: need samples and 0 < percent <= 100");
  }
  return (n * percent + 99) / 100;
}

inline Percentile percentile(std::vector<double> samples, unsigned percent) {
  const std::size_t rank = nearest_rank(samples.size(), percent);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return {samples[rank - 1], samples.size(), samples.size() - rank};
}

/// The median (p50) value; 0 for no samples, which the benchmark uses for
/// a span a workload never runs.
inline double p50_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : percentile(samples, 50).value;
}

/// Events per second from the gaps between them: the median over
/// `windows` consecutive stretches of the gaps (the last takes the
/// remainder) of each stretch's count over its summed time. A burst of
/// host noise shorter than half the run moves it less than it moves the
/// plain count over total time.
inline double windowed_rate_per_s(const std::vector<double>& gaps_ms, std::size_t windows) {
  if (windows == 0 || gaps_ms.size() < windows) {
    throw std::invalid_argument("windowed_rate_per_s: need at least one gap per window");
  }
  const std::size_t per = gaps_ms.size() / windows;
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = gaps_ms.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows ? gaps_ms.end() : first + static_cast<std::ptrdiff_t>(per);
    double total_ms = 0.0;
    for (auto it = first; it != last; ++it) total_ms += *it;
    rates.push_back(1e3 * static_cast<double>(last - first) / total_ms);
  }
  return percentile(std::move(rates), 50).value;
}

/// Smallest sample count that leaves kMinBeyond samples beyond the
/// `percent`-th percentile.
inline std::size_t min_samples_for(unsigned percent) {
  std::size_t n = 1;
  while (n - nearest_rank(n, percent) < kMinBeyond) ++n;
  return n;
}

/// The tail rule: throws unless `p` has kMinBeyond samples beyond it.
inline void require_tail_samples(const Percentile& p, const std::string& what) {
  if (p.beyond < kMinBeyond) {
    throw std::runtime_error(what + ": only " + std::to_string(p.beyond) +
                             " of " + std::to_string(p.samples) +
                             " samples beyond the percentile (need " +
                             std::to_string(kMinBeyond) + ")");
  }
}

}  // namespace perfbench
