#include "core/pipeline.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

VizPipeline::VizPipeline(const BlockGrid& grid, MemoryHierarchy hierarchy,
                         PipelineConfig config, const VisibilityTable* table,
                         const ImportanceTable* importance,
                         const BlockMetadataTable* metadata)
    : grid_(grid),
      hierarchy_(std::move(hierarchy)),
      config_(config),
      table_(table),
      importance_(importance),
      metadata_(metadata),
      bounds_(grid),
      metrics_(std::make_unique<MetricsRegistry>()) {
  hierarchy_.bind_metrics(metrics_.get());
  if (config_.app_aware) {
    VIZ_REQUIRE(table_ != nullptr, "app-aware pipeline needs T_visible");
    VIZ_REQUIRE(importance_ != nullptr, "app-aware pipeline needs T_important");
  }
}

RunResult VizPipeline::run(const CameraPath& path,
                           const QuerySchedule* schedule) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  VIZ_REQUIRE(schedule == nullptr || metadata_ != nullptr,
              "query schedules require a block metadata table");
  hierarchy_.reset();
  metrics_->reset();

  // Algorithm 1 lines 1-7: initialization and importance preloading. Blocks
  // with entropy above sigma enter fast memory (capacity permitting), most
  // important first. Preloading is pre-processing: no time is charged.
  if (config_.app_aware && config_.preload_important) {
    preload_ranked(
        *importance_, config_.sigma_bits, hierarchy_.cache(0).capacity_bytes(),
        [this](BlockId id) { return grid_.block_bytes(id); },
        [this](BlockId id) { hierarchy_.preload(id); });
  }

  RunResult result;
  result.steps.reserve(path.size());
  MetricHistogram& step_hist = metrics_->histogram(
      "pipeline.step.total_seconds", latency_seconds_bounds());
  SimSeconds clock = 0.0;
  // Steps are 1-based so preloaded blocks (step 0) are evictable at step 1.
  for (usize i = 0; i < path.size(); ++i) {
    const RegionQuery* query =
        schedule ? &schedule->active_at(i) : nullptr;
    const StepResult sr = run_step(path[i], i + 1, query, result.trace);
    result.steps.push_back(sr);
    step_hist.observe(sr.total_time);

    // Timeline spans of this step on the run's simulated clock. Demand
    // fetches come first; the render starts once they land; the app-aware
    // lookup + prefetch pass runs concurrently with the render (Algorithm 1
    // line 22) and lands on the overlap lane.
    const SimSeconds render_start = clock + sr.io_time;
    result.timeline.record({StepEvent::Kind::kFetch, sr.step, 0, clock,
                            render_start, sr.visible_blocks});
    result.timeline.record({StepEvent::Kind::kRender, sr.step, 0, render_start,
                            render_start + sr.render_time, 0});
    if (config_.app_aware) {
      const SimSeconds lookup_end = render_start + sr.lookup_time;
      result.timeline.record(
          {StepEvent::Kind::kLookup, sr.step, 0, render_start, lookup_end, 0});
      if (sr.prefetched > 0 || sr.prefetch_time > 0.0) {
        result.timeline.record({StepEvent::Kind::kPrefetch, sr.step, 0,
                                lookup_end, lookup_end + sr.prefetch_time,
                                sr.prefetched});
      }
    }
    clock += sr.total_time;
  }

  result.hierarchy = hierarchy_.stats();
  result.fast_miss_rate = result.hierarchy.fast_miss_rate();
  result.total_miss_rate = result.hierarchy.total_miss_rate();
  for (const StepResult& s : result.steps) {
    result.io_time += s.io_time;
    result.lookup_time += s.lookup_time;
    result.prefetch_time += s.prefetch_time;
    result.render_time += s.render_time;
    result.total_time += s.total_time;
  }
  metrics_->counter("pipeline.steps").inc(path.size());
  metrics_->gauge("pipeline.io_seconds").set(result.io_time);
  metrics_->gauge("pipeline.lookup_seconds").set(result.lookup_time);
  metrics_->gauge("pipeline.prefetch_seconds").set(result.prefetch_time);
  metrics_->gauge("pipeline.render_seconds").set(result.render_time);
  metrics_->gauge("pipeline.total_seconds").set(result.total_time);
  metrics_->gauge("pipeline.fast_miss_rate").set(result.fast_miss_rate);
  result.metrics = metrics_->snapshot();
  return result;
}

StepResult VizPipeline::run_step(const Camera& camera, u64 step,
                                 const RegionQuery* query,
                                 TraceRecorder& trace) {
  StepResult sr;
  sr.step = step;

  // Algorithm 1 lines 9-13: the exact visible set of this view point. A
  // data-dependent query narrows it to blocks that may contain matching
  // values (min/max metadata culling).
  std::vector<BlockId> visible =
      query ? query_visible_blocks(camera, bounds_, *metadata_, *query)
            : bounds_.visible_blocks(camera);
  sr.visible_blocks = visible.size();

  // Lines 14-19: stage every visible block into fast memory; replacement is
  // the hierarchy's policy with per-step protection (time[victim] < i).
  for (BlockId id : visible) {
    trace.record(step, id);
    if (!hierarchy_.resident_fast(id)) ++sr.fast_misses;
    sr.io_time += hierarchy_.fetch(id, step);
  }

  // Line 21: render the visible blocks.
  sr.render_time = config_.render_model.frame_time(visible.size());

  if (config_.app_aware) {
    // Line 22: during rendering, look up T_visible at the nearest sampled
    // view point and prefetch the predicted blocks whose entropy exceeds
    // sigma. Prefetch time overlaps rendering.
    sr.lookup_time = table_->lookup_time(config_.lookup_cost);
    const std::vector<BlockId>& predicted = table_->query(camera.position());

    // Paper Section IV-B "ideal case": predicted + current visible blocks
    // together fill fast memory. Budget prefetching to the DRAM space not
    // occupied by this step's visible set, most important blocks first, so
    // over-prediction cannot thrash the working set.
    u64 visible_bytes = 0;
    for (BlockId id : visible) visible_bytes += grid_.block_bytes(id);
    const u64 capacity = hierarchy_.cache(0).capacity_bytes();
    u64 budget = capacity > visible_bytes ? capacity - visible_bytes : 0;

    std::vector<BlockId> candidates;
    candidates.reserve(predicted.size());
    for (BlockId id : predicted) {
      if (importance_->entropy(id) <= config_.sigma_bits) continue;
      // Under an active query, blocks that cannot contain matching values
      // are not worth prefetching either.
      if (query && !query->may_match(*metadata_, id)) continue;
      if (hierarchy_.resident_fast(id)) continue;
      candidates.push_back(id);
    }
    std::sort(candidates.begin(), candidates.end(), [this](BlockId a, BlockId b) {
      return importance_->entropy(a) > importance_->entropy(b);
    });
    for (BlockId id : candidates) {
      const u64 bytes = grid_.block_bytes(id);
      if (bytes > budget) break;
      budget -= bytes;
      sr.prefetch_time += hierarchy_.prefetch(id, step);
      ++sr.prefetched;
    }
    sr.total_time =
        sr.io_time + std::max(sr.render_time, sr.lookup_time + sr.prefetch_time);
  } else {
    // Baselines cannot overlap: I/O is idle during rendering (Section IV-D).
    sr.total_time = sr.io_time + sr.render_time;
  }
  return sr;
}

}  // namespace vizcache
