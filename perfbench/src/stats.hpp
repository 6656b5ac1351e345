#pragma once

// Summary statistics shared by the workloads: percentiles of latency
// samples, safe ratios, and the sample collector each client thread owns.

#include <chrono>
#include <vector>

#include "util/types.hpp"

namespace vizcache::perfbench {

/// Seconds on the steady clock (the only clock the benchmark times with).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`, the same rule
/// as numpy's default. Empty input gives 0.
double percentile(std::vector<double> values, double p);

/// Median of `values` (percentile 0.5).
double median(std::vector<double> values);

/// num / den, or 0 when den is 0.
double ratio(double num, double den);

/// Percentile `p` of the samples of every part (one part per client
/// thread, in completion order) after the first `warmup` samples of each
/// part, pooled: the cold first operations of each client are left out and
/// every later one counts. When no sample is left after the warm-up it is
/// the percentile of everything.
double tail_percentile(const std::vector<std::vector<double>>& parts,
                       usize warmup, double p);

/// Mean of the percentile `p` of every run of `window` consecutive samples
/// of each part after its first `warmup` samples (a trailing partial
/// window is dropped). Every window's tail counts in proportion, so a
/// stall or a burst moves the result wherever it falls, while one window
/// cannot move it by more than its own share. Without a whole window it is
/// tail_percentile.
double mean_window_percentile(const std::vector<std::vector<double>>& parts,
                              usize warmup, usize window, double p);

}  // namespace vizcache::perfbench
