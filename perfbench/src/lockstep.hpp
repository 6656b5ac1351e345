#pragma once

// Loose lockstep for the viewers of a multi-viewer workload.

#include <atomic>
#include <limits>
#include <vector>

#include "util/types.hpp"

namespace vizcache::perfbench {

/// Keeps the viewers of one window in loose lockstep: none starts a step
/// more than kMaxLead steps ahead of the slowest. The viewers then keep
/// their places on the tour, so a thread that the scheduler or a lock
/// starves cannot change which blocks share DRAM. The waits fall between
/// timed operations; a starved viewer still costs throughput.
class Lockstep {
 public:
  static constexpr u64 kMaxLead = 16;

  explicit Lockstep(usize viewers) : done_(viewers) {}

  /// Viewer `v` has finished `steps` steps: publish that, then wait until
  /// it may start the next one.
  void next(usize v, u64 steps) {
    publish(v, steps);
    if (steps <= kMaxLead) return;
    for (std::atomic<u64>& other : done_) {
      for (u64 d = other.load(); d < steps - kMaxLead; d = other.load()) {
        other.wait(d);
      }
    }
  }

  /// Viewer `v` stopped stepping and holds nobody back.
  void finish(usize v) { publish(v, std::numeric_limits<u64>::max()); }

 private:
  void publish(usize v, u64 steps) {
    done_[v].store(steps);
    done_[v].notify_all();
  }

  std::vector<std::atomic<u64>> done_;
};

}  // namespace vizcache::perfbench
