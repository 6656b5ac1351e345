#include "core/pipeline.hpp"

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

void RunTotals::add_steps(const std::vector<StepResult>& steps) {
  for (const StepResult& s : steps) {
    io_time += s.io_time;
    lookup_time += s.lookup_time;
    prefetch_time += s.prefetch_time;
    render_time += s.render_time;
    total_time += s.total_time;
  }
}

RunResult run_steps(
    usize steps, bool app_aware, const MemoryHierarchy& hierarchy,
    MetricsRegistry& metrics,
    const std::function<StepResult(usize, TraceRecorder&)>& step) {
  RunResult result;
  result.steps.reserve(steps);
  MetricHistogram& step_hist = metrics.histogram(
      "pipeline.step.total_seconds", latency_seconds_bounds());
  SimSeconds clock = 0.0;
  for (usize i = 0; i < steps; ++i) {
    const StepResult sr = step(i, result.trace);
    result.steps.push_back(sr);
    step_hist.observe(sr.total_time);
    record_step_spans(result.timeline, sr, 0, clock, app_aware);
    clock += sr.total_time;
  }

  result.hierarchy = hierarchy.stats();
  result.fast_miss_rate = result.hierarchy.fast_miss_rate();
  result.total_miss_rate = result.hierarchy.total_miss_rate();
  result.add_steps(result.steps);
  metrics.counter("pipeline.steps").inc(steps);
  metrics.gauge("pipeline.io_seconds").set(result.io_time);
  metrics.gauge("pipeline.lookup_seconds").set(result.lookup_time);
  metrics.gauge("pipeline.prefetch_seconds").set(result.prefetch_time);
  metrics.gauge("pipeline.render_seconds").set(result.render_time);
  metrics.gauge("pipeline.total_seconds").set(result.total_time);
  metrics.gauge("pipeline.fast_miss_rate").set(result.fast_miss_rate);
  result.metrics = metrics.snapshot();
  return result;
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

  // Steps are 1-based so preloaded blocks (step 0) are evictable at step 1.
  return run_steps(path.size(), config_.app_aware, hierarchy_, *metrics_,
                   [&](usize i, TraceRecorder& trace) {
                     const RegionQuery* query =
                         schedule ? &schedule->active_at(i) : nullptr;
                     return run_step(path[i], i + 1, query, trace);
                   });
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

    // Paper Section IV-B "ideal case": predicted + current visible blocks
    // together fill fast memory. Budget prefetching to the DRAM space not
    // occupied by this step's visible set, most important blocks first, so
    // over-prediction cannot thrash the working set.
    u64 visible_bytes = 0;
    for (BlockId id : visible) visible_bytes += grid_.block_bytes(id);
    const u64 capacity = hierarchy_.cache(0).capacity_bytes();
    u64 budget = capacity > visible_bytes ? capacity - visible_bytes : 0;

    // Under an active query, blocks that cannot contain matching values are
    // not worth prefetching either.
    std::function<bool(BlockId)> may_match;
    if (query) {
      may_match = [&](BlockId id) { return query->may_match(*metadata_, id); };
    }
    const std::vector<BlockId> candidates = rank_prefetch(
        *importance_, config_.sigma_bits, table_->query(camera.position()),
        [this](BlockId id) { return hierarchy_.resident_fast(id); }, may_match);
    sr.prefetched = spend_prefetch(
        candidates, budget,
        [this](BlockId id) { return grid_.block_bytes(id); },
        [&](BlockId id) {
          sr.prefetch_time += hierarchy_.prefetch(id, step);
          return true;
        });
  }
  // Baselines cannot overlap: I/O is idle during rendering (Section IV-D),
  // and their lookup and prefetch times are zero.
  sr.total_time = overlapped_step_time(sr.io_time, sr.render_time,
                                       sr.lookup_time, sr.prefetch_time);
  return sr;
}

}  // namespace vizcache
