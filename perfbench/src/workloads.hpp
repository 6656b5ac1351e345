#pragma once

// The three benchmark workloads (explore, crowd, wire). Each sets up the
// world several times, runs a closed-loop timed window, checks the
// program's outputs inside and after it, and returns its metrics: the
// end-to-end set for an untraced run, the per-layer set for a traced one.

#include <string>
#include <vector>

#include "util/types.hpp"

namespace vizcache::perfbench {

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      ///< tiny world and counts (tests only)
  std::string trace_out;   ///< where a traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Repeats bit for bit for one seed (a deterministic count, not a time).
  bool exact = false;
  /// Measured by a post-window probe because the workload does not
  /// exercise the layer (per-layer metrics only).
  bool probe = false;
};

struct RunReport {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  ///< first few mismatches, for the log
  std::vector<Metric> metrics;      ///< the JSON metrics of this mode
  std::vector<Metric> extra;        ///< printed only (not in the JSON)
  bool correct() const { return failed == 0; }
};

/// Throws InvalidArgument for an unknown workload.
RunReport run_workload(const RunConfig& config);

}  // namespace vizcache::perfbench
