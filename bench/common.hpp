#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/metrics.hpp"
#include "util/step_timeline.hpp"
#include "util/table_printer.hpp"

namespace vizcache::bench {

/// Minimal insertion-ordered JSON emitter for the machine-readable
/// `BENCH_*.json` perf-trajectory files. Covers exactly what the bench
/// binaries need — flat or nested objects of numbers/strings/bools — so the
/// repo does not grow a JSON-library dependency. Keys keep insertion order
/// so diffs between runs stay line-stable.
class JsonObject {
 public:
  JsonObject();
  ~JsonObject();
  JsonObject(JsonObject&&) noexcept;
  JsonObject& operator=(JsonObject&&) noexcept;
  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  JsonObject& number(const std::string& key, double value);
  JsonObject& integer(const std::string& key, i64 value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& string(const std::string& key, const std::string& value);
  JsonObject& object(const std::string& key, JsonObject value);

  /// Pretty-printed JSON text (2-space indent), no trailing newline.
  std::string to_string() const;

  /// Writes to_string() + '\n' to `path`; throws IoError on failure.
  void write(const std::string& path) const;

 private:
  struct Entry;
  std::string render(usize depth) const;
  std::vector<Entry> entries_;
};

/// Shared bench-binary environment. Every binary accepts `key=value`
/// overrides:
///   scale=0.1        dataset resolution relative to Table I
///   positions=400    camera-path length (the paper uses 400)
///   seed=42          random-path seed
///   quick=1          ~4x cheaper sweep for smoke runs
///   csv=path.csv     output CSV location (default: bench_<name>.csv)
struct BenchEnv {
  Config cfg;
  std::string name;
  double scale = 0.1;
  usize positions = 400;
  u64 seed = 42;
  bool quick = false;

  static BenchEnv parse(const std::string& name, int argc, const char* const* argv);

  /// Open the bench's CSV (csv=path, default bench_<name>.csv) with the
  /// given header and announce its path under the banner. Benches that
  /// write no CSV never call it, so they announce no file.
  CsvWriter open_csv(const std::vector<std::string>& columns) const;

  /// Print the run banner (binary, parameters, seed) so every reported row
  /// is reproducible.
  void banner(const std::string& what) const;
};

/// A registry snapshot as a nested JsonObject: {"counters": {...},
/// "gauges": {...}, "histograms": {name: {count, sum, min, max,
/// "buckets": {"le_<bound>": n, ..., "le_inf": n}}}}. Names are already
/// sorted in the snapshot, so output is diff-stable.
JsonObject metrics_snapshot_json(const MetricsSnapshot& snapshot);

/// Write a run's observability artifacts: `<stem>.trace.json` (Chrome
/// trace-event JSON, load via chrome://tracing or ui.perfetto.dev) and
/// `<stem>.metrics.json` (metrics_snapshot_json). Prints where they landed.
void write_observability(const std::string& stem, const StepTimeline& timeline,
                         const MetricsSnapshot& snapshot);

/// Random-path helper matching the paper's "random path with view-direction
/// changes between lo-hi degrees".
CameraPath random_path(double lo_deg, double hi_deg, usize positions, u64 seed);

/// Spherical-path helper for "spherical path with X-degree intervals".
CameraPath spherical_path(double step_deg, usize positions);

/// Formats "lo-hi" (e.g. "10-15") degree-range labels.
std::string degree_range_label(double lo, double hi);

}  // namespace vizcache::bench
