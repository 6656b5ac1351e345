#include "world.hpp"

#include "path.hpp"
#include "stats.hpp"

namespace vizcache::perfbench {

WorldSpec WorldSpec::smoke() {
  WorldSpec s;
  s.scale = 0.08;
  s.target_blocks = 256;
  s.omega = {8, 16, 3, 2.5, 3.5};
  s.image_size = 32;
  return s;
}

WorkbenchSpec WorldSpec::workbench() const {
  WorkbenchSpec w;
  w.scale = scale;
  w.target_blocks = target_blocks;
  w.omega = omega;
  w.path_step_deg = 0.5 * (kStepMinDeg + kStepMaxDeg);
  return w;
}

World::World(const WorldSpec& spec, usize threads)
    : spec_(spec),
      pool_(std::make_unique<ThreadPool>(threads)),
      bench_(spec.workbench()) {}

MemoryHierarchy World::make_hierarchy() const {
  const BlockGrid* g = &grid();
  return MemoryHierarchy::paper_testbed(
      bench_.dataset_bytes(), bench_.spec().cache_ratio, PolicyKind::kLru,
      [g](BlockId id) { return g->block_bytes(id); });
}

std::unique_ptr<BlockService> World::make_service() const {
  ServiceConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = bench_.sigma_bits();
  cfg.render_model = bench_.spec().render_model;
  cfg.lookup_cost = bench_.spec().lookup_cost;
  cfg.leader_pace_seconds = 0.0;
  return std::make_unique<BlockService>(grid(), make_hierarchy(), cfg,
                                        &bench_.table(), &bench_.importance());
}

BuildTimes World::time_build_phases() {
  const WorkbenchSpec ws = bench_.spec();
  BuildTimes out;
  double t0 = now_s();
  {
    SyntheticVolume volume = make_dataset(ws.dataset, ws.scale);
    const BlockGrid g =
        BlockGrid::with_target_block_count(volume.desc.dims, ws.target_blocks);
    const SyntheticBlockStore copy(std::move(volume), g.block_dims());
  }
  double t1 = now_s();
  out.generate_s = t1 - t0;
  (void)ImportanceTable::build(store(), ws.entropy_bins, 0, 0, pool_.get());
  double t2 = now_s();
  out.importance_s = t2 - t1;
  bench_.rebuild_table(ws.omega, ws.fixed_radius);
  out.table_s = now_s() - t2;
  return out;
}

}  // namespace vizcache::perfbench
