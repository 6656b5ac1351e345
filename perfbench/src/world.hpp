#pragma once

// The benchmark's one world: a Workbench over the 3d_ball volume at scale
// 0.2 (~34 MB, ~2,200 bricks of 16 KB) with its T_important and T_visible,
// and the paper testbed hierarchy behind a BlockService.

#include <memory>

#include "core/workbench.hpp"
#include "service/block_service.hpp"
#include "util/thread_pool.hpp"

namespace vizcache::perfbench {

struct WorldSpec {
  double scale = 0.2;
  usize target_blocks = 2200;
  OmegaSamplingSpec omega = WorkbenchSpec{}.omega;
  usize image_size = 128;  ///< explore frames are image_size^2

  /// A tiny world for the smoke tests (seconds, not minutes).
  static WorldSpec smoke();

  /// The Workbench configuration: the fields above, the vicinal radius
  /// floored by the tours' mean step, every other WorkbenchSpec default.
  WorkbenchSpec workbench() const;
};

/// Wall seconds of each phase of a Workbench set-up, timed one by one.
struct BuildTimes {
  double generate_s = 0.0;    ///< dataset + block store
  double importance_s = 0.0;  ///< T_important (reads every block once)
  double table_s = 0.0;       ///< T_visible
};

class World {
 public:
  /// `threads` sizes the render pool.
  World(const WorldSpec& spec, usize threads);

  const WorldSpec& spec() const { return spec_; }
  ThreadPool& pool() const { return *pool_; }
  const BlockStore& store() const { return bench_.store(); }
  const BlockGrid& grid() const { return bench_.grid(); }
  const VisibilityTable& table() const { return bench_.table(); }

  /// A fresh service over a cold paper-testbed hierarchy (LRU, cache ratio
  /// 0.5, so DRAM holds a quarter of the dataset), application-aware, no
  /// leader pacing.
  std::unique_ptr<BlockService> make_service() const;

  /// The same cold hierarchy without a service (storage replays).
  MemoryHierarchy make_hierarchy() const;

  /// Time each set-up phase again on its own: generate a copy of the
  /// dataset, build T_important over this world's store, and rebuild this
  /// world's T_visible in place. No service of this world may be alive.
  BuildTimes time_build_phases();

 private:
  WorldSpec spec_;
  std::unique_ptr<ThreadPool> pool_;
  Workbench bench_;
};

}  // namespace vizcache::perfbench
