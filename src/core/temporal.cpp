#include "core/temporal.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vizcache {

TemporalPipeline::TemporalPipeline(
    const BlockGrid& grid, MemoryHierarchy hierarchy, TemporalConfig config,
    PlaybackSpec playback, const VisibilityTable* table,
    const std::vector<ImportanceTable>* importance_per_step)
    : grid_(grid),
      hierarchy_(std::move(hierarchy)),
      config_(config),
      playback_(playback),
      table_(table),
      importance_(importance_per_step),
      bounds_(grid),
      metrics_(std::make_unique<MetricsRegistry>()) {
  hierarchy_.bind_metrics(metrics_.get());
  VIZ_REQUIRE(playback_.timesteps >= 1, "need at least one timestep");
  VIZ_REQUIRE(playback_.steps_per_timestep >= 1,
              "steps_per_timestep must be >= 1");
  // The packed key space must fit the BlockId type.
  VIZ_REQUIRE(static_cast<u64>(grid.block_count()) * playback_.timesteps <
                  static_cast<u64>(kInvalidBlock),
              "block x timestep key space overflows BlockId");
  if (config_.app_aware) {
    VIZ_REQUIRE(table_ != nullptr, "app-aware temporal pipeline needs T_visible");
    VIZ_REQUIRE(importance_ != nullptr &&
                    importance_->size() == playback_.timesteps,
                "app-aware temporal pipeline needs one importance table per "
                "timestep");
  }
}

usize TemporalPipeline::timestep_at(usize path_index) const {
  usize t = path_index / playback_.steps_per_timestep;
  if (playback_.loop) return t % playback_.timesteps;
  return std::min(t, playback_.timesteps - 1);
}

RunResult TemporalPipeline::run(const CameraPath& path) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  hierarchy_.reset();
  metrics_->reset();

  // Preload: the most important blocks of the FIRST timestep (playback
  // starts there).
  if (config_.app_aware && config_.preload_important) {
    const usize nblocks = grid_.block_count();
    preload_ranked(
        (*importance_)[0], config_.sigma_bits,
        hierarchy_.cache(0).capacity_bytes(),
        [this](BlockId id) { return grid_.block_bytes(id); },
        [&](BlockId id) {
          hierarchy_.preload(TimeBlockKey::pack(id, 0, nblocks));
        });
  }

  return run_steps(path.size(), config_.app_aware, hierarchy_, *metrics_,
                   [&](usize i, TraceRecorder& trace) {
                     return run_step(path[i], i + 1, timestep_at(i), trace);
                   });
}

StepResult TemporalPipeline::run_step(const Camera& camera, u64 step,
                                      usize timestep, TraceRecorder& trace) {
  StepResult sr;
  sr.step = step;
  const usize nblocks = grid_.block_count();

  std::vector<BlockId> visible = bounds_.visible_blocks(camera);
  sr.visible_blocks = visible.size();

  u64 visible_bytes = 0;
  for (BlockId id : visible) {
    BlockId key = TimeBlockKey::pack(id, timestep, nblocks);
    trace.record(step, key);
    if (!hierarchy_.resident_fast(key)) ++sr.fast_misses;
    sr.io_time += hierarchy_.fetch(key, step);
    visible_bytes += grid_.block_bytes(id);
  }

  sr.render_time = config_.render_model.frame_time(visible.size());

  if (config_.app_aware) {
    sr.lookup_time = table_->lookup_time(config_.lookup_cost);

    const u64 capacity = hierarchy_.cache(0).capacity_bytes();
    u64 budget = capacity > visible_bytes ? capacity - visible_bytes : 0;

    // Spatial prediction at the current timestep (paper Algorithm 1).
    const std::vector<BlockId> candidates = rank_prefetch(
        (*importance_)[timestep], config_.sigma_bits,
        table_->query(camera.position()), [&](BlockId id) {
          return hierarchy_.resident_fast(
              TimeBlockKey::pack(id, timestep, nblocks));
        });

    // Temporal prediction: the playback clock is deterministic, so the
    // current view's blocks at the NEXT timestep are near-certain future
    // requests. They are queued after the spatial candidates, in view order,
    // and spend what the spatial pass left of the same budget.
    std::vector<BlockId> temporal;
    usize next_t = timestep + 1;
    if (playback_.loop) next_t %= playback_.timesteps;
    bool time_advances =
        config_.temporal_prefetch && next_t != timestep &&
        next_t < playback_.timesteps;
    if (time_advances) {
      const ImportanceTable& imp_next = (*importance_)[next_t];
      for (BlockId id : visible) {
        if (imp_next.entropy(id) <= config_.sigma_bits) continue;
        BlockId key = TimeBlockKey::pack(id, next_t, nblocks);
        if (!hierarchy_.resident_fast(key)) temporal.push_back(id);
      }
    }

    const auto bytes_of = [this](BlockId id) { return grid_.block_bytes(id); };
    const auto prefetch_at = [&](usize t) {
      return [&, t](BlockId id) {
        sr.prefetch_time +=
            hierarchy_.prefetch(TimeBlockKey::pack(id, t, nblocks), step);
        return true;
      };
    };
    sr.prefetched =
        spend_prefetch(candidates, budget, bytes_of, prefetch_at(timestep));
    if (time_advances) {
      sr.prefetched +=
          spend_prefetch(temporal, budget, bytes_of, prefetch_at(next_t));
    }
  }
  sr.total_time = overlapped_step_time(sr.io_time, sr.render_time,
                                       sr.lookup_time, sr.prefetch_time);
  return sr;
}

MemoryHierarchy make_temporal_hierarchy(const BlockGrid& grid,
                                        usize timesteps, double cache_ratio,
                                        PolicyKind policy) {
  u64 step_bytes = 0;
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    step_bytes += grid.block_bytes(id);
  }
  const usize nblocks = grid.block_count();
  return MemoryHierarchy::paper_testbed(
      step_bytes * timesteps, cache_ratio, policy,
      [&grid, nblocks](BlockId key) {
        return grid.block_bytes(TimeBlockKey::spatial(key, nblocks));
      });
}

}  // namespace vizcache
