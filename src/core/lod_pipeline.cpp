#include "core/lod_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/error.hpp"

namespace vizcache {

usize LodSelector::level_for(double dist) const {
  VIZ_REQUIRE(base_distance > 0.0, "base distance must be positive");
  if (dist <= base_distance) return 0;
  auto level = static_cast<usize>(std::floor(std::log2(dist / base_distance)));
  return std::min(level, max_level);
}

LodPipeline::LodPipeline(const MipPyramid& pyramid, LodSelector selector,
                         PolicyKind policy, double cache_ratio,
                         RenderTimeModel render_model)
    : pyramid_(pyramid),
      selector_(selector),
      render_model_(render_model),
      fine_bounds_(pyramid.grid(0)),
      hierarchy_(MemoryHierarchy::paper_testbed(
          pyramid.level_bytes(0), cache_ratio, policy,
          [p = &pyramid_](BlockId key) { return p->key_bytes(key); })) {
  VIZ_REQUIRE(selector.max_level < pyramid.level_count(),
              "selector max level exceeds the pyramid");
}

LodRunResult LodPipeline::run(const CameraPath& path) {
  VIZ_REQUIRE(!path.empty(), "empty camera path");
  hierarchy_.reset();

  LodRunResult result;
  result.steps.reserve(path.size());
  const BlockGrid& fine = pyramid_.grid(0);
  double fidelity_sum = 0.0;
  u64 fidelity_blocks = 0;

  for (usize i = 0; i < path.size(); ++i) {
    const u64 step = i + 1;
    StepResult sr;
    sr.step = step;

    std::vector<BlockId> visible = fine_bounds_.visible_blocks(path[i]);
    sr.visible_blocks = visible.size();

    // Map each visible fine block to its LOD-selected coarse block; several
    // fine blocks collapse onto one coarse block, which is where the I/O
    // saving comes from.
    std::unordered_set<BlockId> keys;
    for (BlockId id : visible) {
      Vec3 center = fine.block_bounds(id).center();
      double dist = (center - path[i].position()).norm();
      usize level = selector_.level_for(dist);
      fidelity_sum += std::pow(0.125, static_cast<double>(level));
      ++fidelity_blocks;

      BlockId coarse = pyramid_.grid(level).block_at_normalized(center);
      VIZ_CHECK(coarse != kInvalidBlock, "block center left the volume");
      keys.insert(pyramid_.pack_key(level, coarse));
    }

    // Deterministic fetch order.
    std::vector<BlockId> ordered(keys.begin(), keys.end());
    std::sort(ordered.begin(), ordered.end());
    for (BlockId key : ordered) {
      if (!hierarchy_.resident_fast(key)) {
        ++sr.fast_misses;
        result.bytes_fetched += pyramid_.key_bytes(key);
      }
      sr.io_time += hierarchy_.fetch(key, step);
    }

    sr.render_time = render_model_.frame_time(ordered.size());
    sr.total_time = overlapped_step_time(sr.io_time, sr.render_time,
                                         sr.lookup_time, sr.prefetch_time);
    result.steps.push_back(sr);
  }

  result.fast_miss_rate = hierarchy_.stats().fast_miss_rate();
  result.add_steps(result.steps);
  result.mean_fidelity =
      fidelity_blocks ? fidelity_sum / static_cast<double>(fidelity_blocks)
                      : 1.0;
  return result;
}

}  // namespace vizcache
