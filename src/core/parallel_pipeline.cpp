#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

ParallelPipeline::ParallelPipeline(const BlockGrid& grid, Partition partition,
                                   PipelineConfig config, double cache_ratio,
                                   const VisibilityTable* table,
                                   const ImportanceTable* importance)
    : grid_(grid),
      partition_(std::move(partition)),
      config_(config),
      importance_(importance),
      table_(table),
      bounds_(grid) {
  VIZ_REQUIRE(partition_.block_count() == grid.block_count(),
              "partition/grid block count mismatch");
  if (config_.app_aware) {
    VIZ_REQUIRE(table_ != nullptr && importance_ != nullptr,
                "app-aware parallel pipeline needs both tables");
  }
  // Each worker owns 1/N of the dataset and 1/N of every cache level.
  u64 dataset_bytes = 0;
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    dataset_bytes += grid.block_bytes(id);
  }
  const usize n = partition_.worker_count();
  hierarchies_.reserve(n);
  for (usize w = 0; w < n; ++w) {
    hierarchies_.push_back(MemoryHierarchy::paper_testbed(
        std::max<u64>(1, dataset_bytes / n), cache_ratio, config_.policy,
        [g = &grid_](BlockId id) { return g->block_bytes(id); }));
  }
  metrics_ = std::make_unique<MetricsRegistry>();
  // Same prefix for every worker: the registry's find-or-create semantics
  // make the shared instruments whole-run aggregates across workers.
  for (MemoryHierarchy& h : hierarchies_) h.bind_metrics(metrics_.get());
}

MemoryHierarchy& ParallelPipeline::worker_hierarchy(usize w) {
  VIZ_REQUIRE(w < hierarchies_.size(), "worker index out of range");
  return hierarchies_[w];
}

ParallelRunResult ParallelPipeline::run(const CameraPath& path) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  const usize n = partition_.worker_count();
  for (MemoryHierarchy& h : hierarchies_) h.reset();
  metrics_->reset();

  ParallelRunResult result;
  result.workers.assign(n, {});
  result.steps.reserve(path.size());
  MetricHistogram& step_hist = metrics_->histogram(
      "pipeline.step.total_seconds", latency_seconds_bounds());
  SimSeconds clock = 0.0;

  // Preload: each worker stages its own most-important blocks into its own
  // slice (Algorithm 1 line 7 per worker); other workers' blocks never fit.
  if (config_.app_aware && config_.preload_important) {
    for (usize w = 0; w < n; ++w) {
      preload_ranked(
          *importance_, config_.sigma_bits,
          hierarchies_[w].cache(0).capacity_bytes(),
          [&](BlockId id) {
            return partition_.owner(id) == w
                       ? grid_.block_bytes(id)
                       : std::numeric_limits<u64>::max();
          },
          [&](BlockId id) { hierarchies_[w].preload(id); });
    }
  }

  SimSeconds summed_io_work = 0.0;  // for fetch_speedup

  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    StepResult sr;
    sr.step = step;

    std::vector<BlockId> visible = bounds_.visible_blocks(path[i]);
    sr.visible_blocks = visible.size();

    // Demand fetch: each worker pulls its share concurrently.
    std::vector<SimSeconds> worker_io(n, 0.0);
    std::vector<usize> worker_blocks(n, 0);
    for (BlockId id : visible) {
      u32 w = partition_.owner(id);
      if (!hierarchies_[w].resident_fast(id)) ++sr.fast_misses;
      SimSeconds t = hierarchies_[w].fetch(id, step);
      worker_io[w] += t;
      ++worker_blocks[w];
      result.workers[w].entropy_load +=
          importance_ ? importance_->entropy(id) : 0.0;
    }
    for (usize w = 0; w < n; ++w) {
      result.workers[w].io_time += worker_io[w];
      result.workers[w].blocks_fetched += worker_blocks[w];
      summed_io_work += worker_io[w];
    }
    sr.io_time = *std::max_element(worker_io.begin(), worker_io.end());

    // Rendering is parallel too: the frame takes as long as the worker with
    // the largest visible share (plus compositing ~ the base cost).
    usize max_share = *std::max_element(worker_blocks.begin(), worker_blocks.end());
    sr.render_time = config_.render_model.frame_time(max_share);

    // Timeline: each worker fetches its share from `clock`, then all join at
    // the fetch barrier (the step's I/O makespan) and render concurrently.
    const SimSeconds render_start = clock + sr.io_time;
    for (usize w = 0; w < n; ++w) {
      if (worker_blocks[w] > 0) {
        result.timeline.record({StepEvent::Kind::kFetch, step,
                                static_cast<u32>(w), clock,
                                clock + worker_io[w], worker_blocks[w]});
      }
      result.timeline.record(
          {StepEvent::Kind::kRender, step, static_cast<u32>(w), render_start,
           render_start + config_.render_model.frame_time(worker_blocks[w]),
           0});
    }

    if (config_.app_aware) {
      sr.lookup_time = table_->lookup_time(config_.lookup_cost);
      const std::vector<BlockId>& predicted = table_->query(path[i].position());

      std::vector<SimSeconds> worker_pf(n, 0.0);
      std::vector<usize> worker_pf_blocks(n, 0);
      std::vector<u64> budget(n);
      for (usize w = 0; w < n; ++w) {
        u64 cap = hierarchies_[w].cache(0).capacity_bytes();
        u64 used = 0;
        for (BlockId id : visible) {
          if (partition_.owner(id) == w) used += grid_.block_bytes(id);
        }
        budget[w] = cap > used ? cap - used : 0;
      }
      // Rank once, then each worker spends its own budget on its share of
      // the ranking: a worker's budget stops only that worker's pass.
      const std::vector<BlockId> candidates = rank_prefetch(
          *importance_, config_.sigma_bits, predicted, [this](BlockId id) {
            return hierarchies_[partition_.owner(id)].resident_fast(id);
          });
      std::vector<std::vector<BlockId>> worker_candidates(n);
      for (BlockId id : candidates) {
        worker_candidates[partition_.owner(id)].push_back(id);
      }
      for (usize w = 0; w < n; ++w) {
        worker_pf_blocks[w] = spend_prefetch(
            worker_candidates[w], budget[w],
            [this](BlockId id) { return grid_.block_bytes(id); },
            [&](BlockId id) {
              const SimSeconds t = hierarchies_[w].prefetch(id, step);
              worker_pf[w] += t;
              result.workers[w].prefetch_time += t;
              return true;
            });
        sr.prefetched += worker_pf_blocks[w];
      }
      sr.prefetch_time = *std::max_element(worker_pf.begin(), worker_pf.end());

      // Timeline: the shared T_visible lookup runs once (worker 0's overlap
      // lane), then each worker prefetches its share during the render.
      result.timeline.record({StepEvent::Kind::kLookup, step, 0, render_start,
                              render_start + sr.lookup_time, 0});
      const SimSeconds prefetch_start = render_start + sr.lookup_time;
      for (usize w = 0; w < n; ++w) {
        if (worker_pf_blocks[w] == 0) continue;
        result.timeline.record({StepEvent::Kind::kPrefetch, step,
                                static_cast<u32>(w), prefetch_start,
                                prefetch_start + worker_pf[w],
                                worker_pf_blocks[w]});
      }
    }
    sr.total_time = overlapped_step_time(sr.io_time, sr.render_time,
                                         sr.lookup_time, sr.prefetch_time);

    step_hist.observe(sr.total_time);
    clock += sr.total_time;
    result.steps.push_back(sr);
  }

  u64 lookups = 0, misses = 0;
  for (const MemoryHierarchy& h : hierarchies_) {
    lookups += h.stats().level[0].lookups();
    misses += h.stats().level[0].misses;
  }
  result.fast_miss_rate =
      lookups ? static_cast<double>(misses) / static_cast<double>(lookups) : 0.0;
  result.add_steps(result.steps);
  result.fetch_speedup =
      result.io_time > 0.0 ? summed_io_work / result.io_time : 1.0;
  metrics_->counter("pipeline.steps").inc(path.size());
  metrics_->counter("pipeline.workers").inc(n);
  metrics_->gauge("pipeline.io_seconds").set(result.io_time);
  metrics_->gauge("pipeline.prefetch_seconds").set(result.prefetch_time);
  metrics_->gauge("pipeline.render_seconds").set(result.render_time);
  metrics_->gauge("pipeline.total_seconds").set(result.total_time);
  metrics_->gauge("pipeline.fast_miss_rate").set(result.fast_miss_rate);
  metrics_->gauge("pipeline.fetch_speedup").set(result.fetch_speedup);
  result.metrics = metrics_->snapshot();
  return result;
}

}  // namespace vizcache
