#include "stats.hpp"

#include <algorithm>

namespace vizcache::perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Equal neighbours (two infinite failures among them) need no blend.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double tail_percentile(const std::vector<std::vector<double>>& parts,
                       usize warmup, double p) {
  std::vector<double> warm;
  std::vector<double> all;
  for (const std::vector<double>& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
    if (part.size() > warmup) {
      warm.insert(warm.end(),
                  part.begin() + static_cast<std::ptrdiff_t>(warmup),
                  part.end());
    }
  }
  return percentile(warm.empty() ? std::move(all) : std::move(warm), p);
}

double mean_window_percentile(const std::vector<std::vector<double>>& parts,
                              usize warmup, usize window, double p) {
  double sum = 0.0;
  usize windows = 0;
  for (const std::vector<double>& part : parts) {
    for (usize begin = warmup; window > 0 && begin + window <= part.size();
         begin += window) {
      const auto first = part.begin() + static_cast<std::ptrdiff_t>(begin);
      sum += percentile(
          std::vector<double>(first, first + static_cast<std::ptrdiff_t>(window)),
          p);
      ++windows;
    }
  }
  return windows > 0 ? sum / static_cast<double>(windows)
                     : tail_percentile(parts, warmup, p);
}

}  // namespace vizcache::perfbench
