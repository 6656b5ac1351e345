#include "core/workbench.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.hpp"
#include "util/histogram.hpp"

namespace vizcache {
namespace {

WorkbenchSpec tiny_spec() {
  WorkbenchSpec spec;
  spec.dataset = DatasetId::kBall3d;
  spec.scale = 0.06;  // ~61^3
  spec.target_blocks = 128;
  spec.omega = {6, 12, 3, 2.5, 3.5};
  return spec;
}

TEST(Workbench, BuildsAllComponents) {
  Workbench wb(tiny_spec());
  EXPECT_GT(wb.grid().block_count(), 64u);
  EXPECT_EQ(wb.importance().block_count(), wb.grid().block_count());
  EXPECT_EQ(wb.table().entry_count(), 6u * 12 * 3);
  EXPECT_GT(wb.dataset_bytes(), 0u);
}

TEST(Workbench, DefaultEntryTrimEqualsDramBlocks) {
  Workbench wb(tiny_spec());
  auto dram_blocks = static_cast<usize>(
      0.25 * static_cast<double>(wb.grid().block_count()));
  ASSERT_TRUE(wb.spec().max_blocks_per_entry.has_value());
  EXPECT_EQ(*wb.spec().max_blocks_per_entry, dram_blocks);
  EXPECT_LE(wb.table().max_entry_size(), dram_blocks);
}

TEST(Workbench, DatasetBytesMatchesGrid) {
  Workbench wb(tiny_spec());
  u64 expected = 0;
  for (BlockId id = 0; id < wb.grid().block_count(); ++id) {
    expected += wb.grid().block_bytes(id);
  }
  EXPECT_EQ(wb.dataset_bytes(), expected);
}

TEST(Workbench, RebuildTableChangesLattice) {
  Workbench wb(tiny_spec());
  usize before = wb.table().entry_count();
  wb.rebuild_table({10, 20, 3, 2.5, 3.5}, std::nullopt);
  EXPECT_EQ(wb.table().entry_count(), 10u * 20 * 3);
  EXPECT_NE(wb.table().entry_count(), before);
}

TEST(Workbench, SetCacheRatioAffectsHierarchy) {
  Workbench wb(tiny_spec());
  RandomPathSpec rp;
  rp.positions = 30;
  CameraPath path = make_random_path(rp);
  RunResult small = wb.run_baseline(PolicyKind::kLru, path);
  wb.set_cache_ratio(0.9);
  RunResult large = wb.run_baseline(PolicyKind::kLru, path);
  // Bigger caches can only help.
  EXPECT_LE(large.fast_miss_rate, small.fast_miss_rate + 1e-9);
}

TEST(Workbench, SetCacheRatioValidates) {
  Workbench wb(tiny_spec());
  EXPECT_THROW(wb.set_cache_ratio(0.0), InvalidArgument);
  EXPECT_THROW(wb.set_cache_ratio(1.5), InvalidArgument);
}

TEST(Workbench, SetPathStepValidates) {
  Workbench wb(tiny_spec());
  EXPECT_THROW(wb.set_path_step_deg(-1.0), InvalidArgument);
}

TEST(Workbench, SigmaMatchesFraction) {
  WorkbenchSpec spec = tiny_spec();
  spec.sigma_fraction = 0.5;
  Workbench wb(spec);
  auto above = wb.importance().above_threshold(wb.sigma_bits());
  double fraction = static_cast<double>(above.size()) /
                    static_cast<double>(wb.grid().block_count());
  // The ball has many exactly-zero-entropy blocks, so the split can only be
  // approximate; it must at least not exceed the block count and not be 0.
  EXPECT_GT(fraction, 0.1);
  EXPECT_LE(fraction, 1.0);
}

TEST(Workbench, FlameDatasetWorksToo) {
  WorkbenchSpec spec = tiny_spec();
  spec.dataset = DatasetId::kLiftedMixFrac;
  Workbench wb(spec);
  RandomPathSpec rp;
  rp.positions = 20;
  RunResult r = wb.run_app_aware(make_random_path(rp));
  EXPECT_EQ(r.steps.size(), 20u);
  EXPECT_GE(r.fast_miss_rate, 0.0);
}

// --- Set-up path regression ----------------------------------------------
// The workbench builds metadata, T_important and T_visible with two pooled
// reads per block and an octree cull. The reference below recomputes all
// three the plain way: one serial read per block for the metadata, two
// serial passes (global range, then histograms) for the entropies, and an
// exhaustive ConeFrustum::intersects_block scan for every vicinal camera.

// Forwards to a SyntheticBlockStore and counts the reads of every block.
class CountingStore final : public BlockStore {
 public:
  CountingStore(SyntheticVolume volume, Dims3 block_dims,
                std::vector<std::atomic<u32>>& reads)
      : inner_(std::move(volume), block_dims), reads_(reads) {
    for (auto& r : reads_) r.store(0);
  }

  const BlockGrid& grid() const override { return inner_.grid(); }
  const VolumeDesc& desc() const override { return inner_.desc(); }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override {
    reads_[id].fetch_add(1, std::memory_order_relaxed);
    return inner_.read_block(id, var, timestep);
  }

 private:
  SyntheticBlockStore inner_;
  std::vector<std::atomic<u32>>& reads_;
};

WorkbenchSpec setup_spec() {
  WorkbenchSpec spec = tiny_spec();
  spec.path_step_deg = 7.5;  // exercises the vicinal-radius floor
  return spec;
}

BlockGrid setup_grid(const WorkbenchSpec& spec) {
  return BlockGrid::with_target_block_count(
      make_dataset(spec.dataset, spec.scale).desc.dims, spec.target_blocks);
}

struct ReferenceSetup {
  std::vector<BlockMetadataTable::Entry> metadata;
  std::vector<double> entropy;
  std::vector<BlockId> ranked;
  std::vector<std::vector<BlockId>> table;
};

ReferenceSetup reference_setup(const WorkbenchSpec& spec) {
  const BlockGrid grid = setup_grid(spec);
  const SyntheticBlockStore store(make_dataset(spec.dataset, spec.scale),
                                  grid.block_dims());
  const usize n = grid.block_count();
  ReferenceSetup ref;

  for (BlockId id = 0; id < n; ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    BlockMetadataTable::Entry e;
    e.min = std::numeric_limits<float>::infinity();
    e.max = -std::numeric_limits<float>::infinity();
    double sum = 0.0;
    for (float v : payload) {
      e.min = std::min(e.min, v);
      e.max = std::max(e.max, v);
      sum += static_cast<double>(v);
    }
    e.mean = static_cast<float>(sum / static_cast<double>(payload.size()));
    ref.metadata.push_back(e);
  }

  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (BlockId id = 0; id < n; ++id) {
    for (float v : store.read_block(id, 0, 0)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!(lo < hi)) hi = lo + 1.0f;
  for (BlockId id = 0; id < n; ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    Histogram h(spec.entropy_bins, static_cast<double>(lo),
                static_cast<double>(hi));
    h.add(std::span<const float>(payload));
    ref.entropy.push_back(h.entropy_bits());
  }
  ref.ranked = ImportanceTable::from_scores(ref.entropy).ranked();

  std::vector<AABB> bounds;
  for (BlockId id = 0; id < n; ++id) bounds.push_back(grid.block_bounds(id));
  const usize cap = std::max<usize>(
      1, static_cast<usize>(spec.cache_ratio * spec.cache_ratio *
                            static_cast<double>(n)));
  const RadiusModel radius{spec.view_angle_deg,
                           spec.cache_ratio * spec.cache_ratio, 1e-3};
  const VisibilityTableSpec defaults;
  const std::vector<Vec3> positions = sample_omega_positions(spec.omega);
  for (usize index = 0; index < positions.size(); ++index) {
    const Vec3& v = positions[index];
    const double d = v.norm();
    const double step_len =
        2.0 * d * std::sin(deg_to_rad(spec.path_step_deg) * 0.5);
    Rng rng(defaults.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    std::vector<u8> mask(n, 0);
    for (const Vec3& p :
         sample_vicinal_ball(v, radius.radius_with_step_floor(d, step_len),
                             spec.vicinal_samples, rng)) {
      const ConeFrustum f(Camera(p, spec.view_angle_deg));
      for (BlockId id = 0; id < n; ++id) {
        if (f.intersects_block(bounds[id])) mask[id] = 1;
      }
    }
    std::vector<BlockId> entry;
    for (BlockId id = 0; id < n; ++id) {
      if (mask[id]) entry.push_back(id);
    }
    if (entry.size() > cap) {
      std::stable_sort(entry.begin(), entry.end(), [&](BlockId a, BlockId b) {
        return ref.entropy[a] > ref.entropy[b];
      });
      entry.resize(cap);
      std::sort(entry.begin(), entry.end());
    }
    ref.table.push_back(std::move(entry));
  }
  return ref;
}

void expect_matches_reference(const BlockMetadataTable& metadata,
                              const ImportanceTable& importance,
                              const VisibilityTable& table,
                              const ReferenceSetup& ref) {
  const usize n = ref.metadata.size();
  ASSERT_EQ(metadata.block_count(), n);
  ASSERT_EQ(importance.block_count(), n);
  for (BlockId id = 0; id < n; ++id) {
    // Bit-identical, not merely equal: compare the stored floats' bytes.
    const BlockMetadataTable::Entry& e = metadata.entry(id);
    EXPECT_EQ(std::memcmp(&e, &ref.metadata[id], sizeof(e)), 0)
        << "metadata of block " << id;
    const double got = importance.entropy(id);
    EXPECT_EQ(std::memcmp(&got, &ref.entropy[id], sizeof(got)), 0)
        << "entropy of block " << id;
  }
  EXPECT_EQ(importance.ranked(), ref.ranked);
  ASSERT_EQ(table.entry_count(), ref.table.size());
  for (usize i = 0; i < ref.table.size(); ++i) {
    EXPECT_EQ(table.entry(i), ref.table[i]) << "T_visible entry " << i;
  }
}

TEST(WorkbenchSetup, TablesBitIdenticalAndEachBlockReadAtMostTwice) {
  const WorkbenchSpec spec = setup_spec();
  const ReferenceSetup ref = reference_setup(spec);
  std::vector<std::atomic<u32>> reads(ref.metadata.size());
  Workbench wb(spec, std::make_unique<CountingStore>(
                         make_dataset(spec.dataset, spec.scale),
                         setup_grid(spec).block_dims(), reads));
  expect_matches_reference(wb.metadata(), wb.importance(), wb.table(), ref);
  u32 most_reads = 0;
  for (const auto& r : reads) most_reads = std::max(most_reads, r.load());
  EXPECT_LE(most_reads, 2u);
}

TEST(WorkbenchSetup, TablesDoNotDependOnPoolSize) {
  // The workbench's own build steps, on pools of 1 and 4 workers.
  const WorkbenchSpec spec = setup_spec();
  const ReferenceSetup ref = reference_setup(spec);
  const Workbench wb(spec);
  for (usize threads : {usize{1}, usize{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const BlockMetadataTable metadata =
        BlockMetadataTable::build(wb.store(), 1, 0, &pool);
    const ImportanceTable importance = ImportanceTable::build(
        wb.store(), metadata, spec.entropy_bins, 0, 0, &pool);
    const VisibilityTable table = VisibilityTable::build(
        wb.grid(), wb.table().spec(), &importance, &pool);
    expect_matches_reference(metadata, importance, table, ref);
  }
}

TEST(Workbench, InvalidScaleRejected) {
  WorkbenchSpec spec = tiny_spec();
  spec.scale = 0.0;
  EXPECT_THROW(Workbench{spec}, InvalidArgument);
}

}  // namespace
}  // namespace vizcache
