#pragma once

#include <algorithm>

#include "util/types.hpp"

namespace vizcache {

/// Deterministic model of per-frame GPU rendering time, used by the
/// simulated benches (the paper overlaps prefetching with rendering, so the
/// render duration directly determines how much prefetch time is hidden).
/// The examples use the real CPU ray-caster instead; this model mirrors its
/// scaling: a fixed per-frame setup cost plus a per-visible-block cost.
struct RenderTimeModel {
  SimSeconds base_s = 5e-3;        ///< frame setup / compositing
  SimSeconds per_block_s = 0.4e-3; ///< per visible block raymarch cost

  SimSeconds frame_time(usize visible_blocks) const {
    return base_s + per_block_s * static_cast<double>(visible_blocks);
  }
};

/// Wall time of one exploration step: the demand fetches land, then the
/// frame renders while the T_visible lookup and the prefetch pass run
/// beside it (paper Section V-D), so only what outlasts the render adds.
/// Baselines pass zero lookup and prefetch time: io + render.
inline SimSeconds overlapped_step_time(SimSeconds io, SimSeconds render,
                                       SimSeconds lookup, SimSeconds prefetch) {
  return io + std::max(render, lookup + prefetch);
}

/// GPU-class renderer (paper's testbed uses GPU-accelerated rendering).
RenderTimeModel gpu_render_model();

/// Slower CPU-class renderer (ablation: more render time hides more
/// prefetch).
RenderTimeModel cpu_render_model();

}  // namespace vizcache
