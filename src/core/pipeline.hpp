#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/importance.hpp"
#include "core/query.hpp"
#include "core/visibility.hpp"
#include "core/visibility_table.hpp"
#include "geom/path.hpp"
#include "render/render_model.hpp"
#include "storage/hierarchy.hpp"
#include "storage/trace.hpp"
#include "util/metrics.hpp"
#include "util/step_timeline.hpp"

namespace vizcache {

/// Per-step timing/counters of a pipeline run.
struct StepResult {
  u64 step = 0;
  usize visible_blocks = 0;
  usize fast_misses = 0;        ///< visible blocks not already in fast memory
  usize prefetched = 0;         ///< blocks moved by this step's prefetch pass
  SimSeconds io_time = 0.0;     ///< demand fetch time
  SimSeconds lookup_time = 0.0; ///< T_visible nearest-sample query time
  SimSeconds prefetch_time = 0.0;
  SimSeconds render_time = 0.0;
  /// Step wall time, overlapped_step_time(): io + max(render, lookup +
  /// prefetch) — prefetching overlaps rendering (paper Section V-D).
  SimSeconds total_time = 0.0;
};

/// A run's per-step times summed over its steps; every pipeline's run
/// result carries these totals.
struct RunTotals {
  SimSeconds io_time = 0.0;
  SimSeconds lookup_time = 0.0;
  SimSeconds prefetch_time = 0.0;
  SimSeconds render_time = 0.0;
  SimSeconds total_time = 0.0;

  /// Add every step's times, field by field in step order.
  void add_steps(const std::vector<StepResult>& steps);

  /// The paper's Fig. 7b metric: demand I/O plus table-lookup overhead.
  SimSeconds io_plus_lookup() const { return io_time + lookup_time; }
};

/// Whole-run aggregate.
struct RunResult : RunTotals {
  std::vector<StepResult> steps;
  HierarchyStats hierarchy;
  TraceRecorder trace;          ///< demand accesses, for Belady replays
  StepTimeline timeline;        ///< per-step spans on the simulated clock
  MetricsSnapshot metrics;      ///< registry snapshot taken at run end

  double fast_miss_rate = 0.0;  ///< DRAM-level miss fraction
  double total_miss_rate = 0.0; ///< paper's multi-level miss rate
};

/// Record one step's spans on `lane` of `timeline`, from `clock` on the
/// simulated clock: the demand fetches first, the render once they land,
/// and for an `app_aware` step the lookup + prefetch pass running beside the
/// render (Algorithm 1 line 22); a prefetch span only when the pass did
/// anything. `Step` is StepResult or the service's SessionStepResult.
template <class Step>
void record_step_spans(StepTimeline& timeline, const Step& sr, u32 lane,
                       SimSeconds clock, bool app_aware) {
  const SimSeconds render_start = clock + sr.io_time;
  timeline.record({StepEvent::Kind::kFetch, sr.step, lane, clock, render_start,
                   sr.visible_blocks});
  timeline.record({StepEvent::Kind::kRender, sr.step, lane, render_start,
                   render_start + sr.render_time, 0});
  if (!app_aware) return;
  const SimSeconds lookup_end = render_start + sr.lookup_time;
  timeline.record(
      {StepEvent::Kind::kLookup, sr.step, lane, render_start, lookup_end, 0});
  if (sr.prefetched > 0 || sr.prefetch_time > 0.0) {
    timeline.record({StepEvent::Kind::kPrefetch, sr.step, lane, lookup_end,
                     lookup_end + sr.prefetch_time, sr.prefetched});
  }
}

/// The run loop of the single-hierarchy pipelines (VizPipeline,
/// TemporalPipeline): calls `step(index, trace)` for index 0..steps-1 and
/// records each result — the `pipeline.step.total_seconds` histogram and
/// the step's timeline spans (record_step_spans, lane 0) on the run's
/// simulated clock. Then it sums the totals, takes `hierarchy`'s miss
/// rates, sets the `pipeline.*` instruments and snapshots `metrics` into the
/// result.
RunResult run_steps(
    usize steps, bool app_aware, const MemoryHierarchy& hierarchy,
    MetricsRegistry& metrics,
    const std::function<StepResult(usize, TraceRecorder&)>& step);

/// Configuration of one visualization run over a camera path.
struct PipelineConfig {
  /// When set, runs the application-aware pipeline (paper Algorithm 1):
  /// preload by importance, demand-fetch with protected LRU, prefetch the
  /// predicted next-view blocks (entropy > sigma) overlapped with rendering.
  bool app_aware = false;

  /// Replacement policy of every hierarchy level. Baselines: kFifo / kLru /
  /// any zoo member. The app-aware mode uses kLru (Algorithm 1's
  /// lowest-time-value replacement is exactly LRU + per-step protection).
  PolicyKind policy = PolicyKind::kLru;

  /// Entropy threshold sigma (bits). Blocks must exceed it to be preloaded
  /// (line 7) or prefetched (line 22). Ignored for baselines.
  double sigma_bits = 0.0;

  /// Preload important blocks before the walk (line 7). App-aware only.
  bool preload_important = true;

  RenderTimeModel render_model = gpu_render_model();
  LookupCostModel lookup_cost;
};

/// Executes camera-path runs against a block grid and a memory hierarchy.
/// The pipeline is purely simulation-driven (it never touches payload
/// bytes), which keeps the full Fig. 7/9/11/12/13 sweeps fast and exactly
/// deterministic; the example apps exercise the same logic against real
/// file I/O and the real ray-caster.
class VizPipeline {
 public:
  /// `table`/`importance` may be null for baseline runs. `metadata` enables
  /// query-driven runs (data-dependent operations).
  VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
              PipelineConfig config, const VisibilityTable* table = nullptr,
              const ImportanceTable* importance = nullptr,
              const BlockMetadataTable* metadata = nullptr);

  /// Run a full camera path from a cold (or preloaded) hierarchy. With a
  /// query `schedule` (requires metadata), each step's working set is the
  /// view-visible blocks that also pass the step's active query — the
  /// paper's dynamically-changed transfer function / query workload.
  RunResult run(const CameraPath& path, const QuerySchedule* schedule = nullptr);

  MemoryHierarchy& hierarchy() { return hierarchy_; }

  /// The pipeline's metric registry (hierarchy + cache + pipeline
  /// instruments). Reset at the start of every run(); RunResult::metrics is
  /// its end-of-run snapshot. Exposed so harnesses can add their own
  /// instruments to the same snapshot.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  StepResult run_step(const Camera& camera, u64 step, const RegionQuery* query,
                      TraceRecorder& trace);

  const BlockGrid& grid_;
  MemoryHierarchy hierarchy_;
  PipelineConfig config_;
  const VisibilityTable* table_;
  const ImportanceTable* importance_;
  const BlockMetadataTable* metadata_;
  BlockBoundsIndex bounds_;
  /// Heap-owned so the pipeline stays movable (MetricsRegistry holds a
  /// Mutex); instrument pointers bound into hierarchy_ stay valid across
  /// moves because the registry owns its instruments by unique_ptr.
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace vizcache
