#include "volume/octree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geom/radius_model.hpp"
#include "geom/sampling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "volume/datasets.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

struct OctreeWorld {
  SyntheticVolume volume = make_flame_volume("f", {48, 40, 32});
  BlockGrid grid{{48, 40, 32}, {8, 8, 8}};
  SyntheticBlockStore store{volume, {8, 8, 8}};
  BlockMetadataTable metadata = BlockMetadataTable::build(store);
  BlockOctree tree = BlockOctree::build(grid, &metadata);
};

// The exhaustive per-block scan every octree frustum query must reproduce.
std::vector<BlockId> scan_visible(const std::vector<AABB>& bounds,
                                  const Camera& cam) {
  const ConeFrustum f(cam);
  std::vector<BlockId> out;
  for (BlockId id = 0; id < bounds.size(); ++id) {
    if (f.intersects_block(bounds[id])) out.push_back(id);
  }
  return out;
}

std::vector<AABB> all_bounds(const BlockGrid& grid) {
  std::vector<AABB> out;
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    out.push_back(grid.block_bounds(id));
  }
  return out;
}

// Both octree entry points' results for one camera, as ascending ids.
std::pair<std::vector<BlockId>, std::vector<BlockId>> octree_visible(
    const BlockOctree& tree, usize blocks, const Camera& cam) {
  const ConeFrustum f(cam);
  std::vector<u8> mask(blocks, 0);
  tree.mark_frustum(f, mask);
  std::vector<BlockId> marked;
  for (BlockId id = 0; id < mask.size(); ++id) {
    if (mask[id]) marked.push_back(id);
  }
  return {tree.query_frustum(f), marked};
}

// Checks every camera against the scan (chunked over a small pool, the
// scan being the slow part) and reports the first mismatch in full.
void expect_exact(const BlockOctree& tree, const BlockGrid& grid,
                  const std::vector<Camera>& cameras) {
  const std::vector<AABB> bounds = all_bounds(grid);
  std::vector<u8> ok(cameras.size(), 0);
  ThreadPool pool(4);
  parallel_for(&pool, 0, cameras.size(), 16, [&](usize lo, usize hi) {
    for (usize i = lo; i < hi; ++i) {
      const auto [queried, marked] =
          octree_visible(tree, bounds.size(), cameras[i]);
      const std::vector<BlockId> expected = scan_visible(bounds, cameras[i]);
      ok[i] = queried == expected && marked == expected;
    }
  });
  const auto bad = std::find(ok.begin(), ok.end(), u8{0});
  if (bad == ok.end()) return;
  const Camera& cam = cameras[static_cast<usize>(bad - ok.begin())];
  const auto [queried, marked] = octree_visible(tree, bounds.size(), cam);
  const std::vector<BlockId> expected = scan_visible(bounds, cam);
  ADD_FAILURE() << std::count(ok.begin(), ok.end(), u8{0}) << " of "
                << cameras.size() << " cameras differ; first: ("
                << cam.position().x << ", " << cam.position().y << ", "
                << cam.position().z << ") angle " << cam.view_angle_deg();
  EXPECT_EQ(queried, expected);
  EXPECT_EQ(marked, expected);
}

// The benchmark's world: 3d_ball at scale 0.2 cut into 13^3 blocks.
BlockGrid bench_grid() {
  BlockGrid grid = BlockGrid::with_target_block_count(
      make_dataset(DatasetId::kBall3d, 0.2).desc.dims, 2200);
  EXPECT_EQ(grid.block_count(), 13u * 13 * 13);
  return grid;
}

const OmegaSamplingSpec kBenchOmega{18, 36, 5, 2.5, 3.5};

TEST(BlockOctreeExact, LatticeAndVicinalCamerasAtTenDegrees) {
  // Every camera T_visible construction uses on the benchmark's world: the
  // default 3,240-position lattice, 8 vicinal points each, with the vicinal
  // radius of a 7.5-degree path step (the benchmark's tours).
  const BlockGrid grid = bench_grid();
  const RadiusModel radius{10.0, 0.25, 1e-3};
  const std::vector<Vec3> positions = sample_omega_positions(kBenchOmega);
  ASSERT_EQ(positions.size(), 3240u);
  std::vector<Camera> cameras;
  for (usize i = 0; i < positions.size(); ++i) {
    const double d = positions[i].norm();
    const double r =
        radius.radius_with_step_floor(d, 2.0 * d * std::sin(deg_to_rad(3.75)));
    Rng rng(99 ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    for (const Vec3& p : sample_vicinal_ball(positions[i], r, 8, rng)) {
      cameras.emplace_back(p, 10.0);
    }
  }
  expect_exact(BlockOctree::build(grid), grid, cameras);
}

TEST(BlockOctreeExact, LatticeCamerasAtWideAngles) {
  const BlockGrid grid = bench_grid();
  std::vector<Camera> cameras;
  for (const Vec3& p : sample_omega_positions(kBenchOmega)) {
    cameras.emplace_back(p, 30.0);
    cameras.emplace_back(p, 60.0);
  }
  expect_exact(BlockOctree::build(grid), grid, cameras);
}

TEST(BlockOctreeExact, CamerasInsideVolumeAndOnBlockFaces) {
  const BlockGrid grid = bench_grid();
  Rng rng(21);
  std::vector<Vec3> positions;
  // Random interior cameras (looking at the center from inside).
  for (int i = 0; i < 300; ++i) {
    positions.push_back({rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95),
                         rng.uniform(-0.95, 0.95)});
  }
  // Cameras exactly on block faces, edges and corners: snap coordinates to
  // the face planes of real blocks, inside the volume and on its hull.
  for (int i = 0; i < 300; ++i) {
    const AABB b = grid.block_bounds(
        static_cast<BlockId>(rng.next_below(grid.block_count())));
    Vec3 p{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
           rng.uniform(b.lo.z, b.hi.z)};
    const int snapped = i % 3;  // face, edge or corner
    p.x = rng.next_double() < 0.5 ? b.lo.x : b.hi.x;
    if (snapped >= 1) p.y = rng.next_double() < 0.5 ? b.lo.y : b.hi.y;
    if (snapped >= 2) p.z = rng.next_double() < 0.5 ? b.lo.z : b.hi.z;
    positions.push_back(p);
  }
  std::vector<Camera> cameras;
  for (const Vec3& p : positions) {
    for (double angle : {10.0, 30.0, 60.0}) cameras.emplace_back(p, angle);
  }
  expect_exact(BlockOctree::build(grid), grid, cameras);
}

TEST(BlockOctree, LeafPerBlock) {
  OctreeWorld w;
  EXPECT_EQ(w.tree.leaf_count(), w.grid.block_count());
  EXPECT_GT(w.tree.node_count(), w.tree.leaf_count());
  EXPECT_GE(w.tree.height(), 3u);
}

TEST(BlockOctree, FrustumQueryMatchesBruteForceExactly) {
  // The headline property: hierarchical culling never changes the result.
  OctreeWorld w;
  Rng rng(7);
  std::vector<Camera> cameras;
  for (int i = 0; i < 150; ++i) {
    Vec3 pos = direction_from_angles(rng.uniform(0.05, 3.09),
                                     rng.uniform(0.0, 6.28)) *
               rng.uniform(2.0, 4.0);
    cameras.emplace_back(pos, rng.uniform(5.0, 60.0));
  }
  expect_exact(w.tree, w.grid, cameras);
}

TEST(BlockOctree, FrustumQueryPrunes) {
  OctreeWorld w;
  Camera narrow({3, 0, 0}, 8.0);
  usize narrow_visits = 0;
  w.tree.query_frustum(ConeFrustum(narrow), &narrow_visits);
  Camera wide({3, 0, 0}, 90.0);
  usize wide_visits = 0;
  w.tree.query_frustum(ConeFrustum(wide), &wide_visits);
  // A narrow cone prunes the subtrees outside it; a wide cone that holds
  // the whole volume accepts the root without descending at all.
  EXPECT_LT(narrow_visits, w.tree.node_count());
  EXPECT_EQ(wide_visits, 1u);
  EXPECT_EQ(w.tree.query_frustum(ConeFrustum(wide)).size(),
            w.grid.block_count());
}

TEST(BlockOctree, RangeQueryMatchesMetadataScan) {
  OctreeWorld w;
  for (auto [lo, hi] : {std::pair{0.45f, 0.55f}, std::pair{0.9f, 1.0f},
                        std::pair{-1.0f, 2.0f}}) {
    auto expected = w.metadata.blocks_in_range(0, lo, hi);
    auto got = w.tree.query_range(lo, hi);
    EXPECT_EQ(got, expected);
  }
}

TEST(BlockOctree, FrustumRangeIsIntersection) {
  OctreeWorld w;
  Camera cam({3, 0.5, 0}, 25.0);
  ConeFrustum f(cam);
  auto view = w.tree.query_frustum(f);
  auto range = w.tree.query_range(0.4f, 0.6f);
  auto both = w.tree.query_frustum_range(f, 0.4f, 0.6f);
  std::vector<BlockId> expected;
  std::set_intersection(view.begin(), view.end(), range.begin(), range.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(both, expected);
}

TEST(BlockOctree, RangePruningVisitsFewerNodes) {
  OctreeWorld w;
  usize all_visits = 0;
  w.tree.query_range(-100.0f, 100.0f, &all_visits);
  usize core_visits = 0;
  w.tree.query_range(0.999f, 1.0f, &core_visits);  // only flame-core blocks
  EXPECT_LT(core_visits, all_visits);
}

TEST(BlockOctree, WithoutMetadataRangeThrows) {
  BlockGrid grid({16, 16, 16}, {8, 8, 8});
  BlockOctree tree = BlockOctree::build(grid);
  EXPECT_THROW(tree.query_range(0.0f, 1.0f), InvalidArgument);
  // But frustum queries work.
  Camera cam({3, 0, 0}, 30.0);
  EXPECT_FALSE(tree.query_frustum(ConeFrustum(cam)).empty());
}

TEST(BlockOctree, NonPowerOfTwoGrids) {
  // 5x3x2 block grid: branch-on-need must handle odd splits.
  BlockGrid grid({25, 15, 10}, {5, 5, 5});
  BlockOctree tree = BlockOctree::build(grid);
  EXPECT_EQ(tree.leaf_count(), grid.block_count());
  expect_exact(tree, grid, {Camera({2.5, 1.0, -0.5}, 40.0)});
}

TEST(BlockOctree, SingleBlockGrid) {
  BlockGrid grid({8, 8, 8}, {8, 8, 8});
  BlockOctree tree = BlockOctree::build(grid);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  Camera cam({3, 0, 0}, 30.0);
  auto vis = tree.query_frustum(ConeFrustum(cam));
  ASSERT_EQ(vis.size(), 1u);
  EXPECT_EQ(vis[0], 0u);
}

TEST(BlockOctree, InvalidRangeThrows) {
  OctreeWorld w;
  EXPECT_THROW(w.tree.query_range(1.0f, 0.0f), InvalidArgument);
  Camera cam({3, 0, 0}, 30.0);
  EXPECT_THROW(w.tree.query_frustum_range(ConeFrustum(cam), 1.0f, 0.0f),
               InvalidArgument);
}

TEST(ConeFrustumSphere, ConservativeNoFalseNegatives) {
  // Property: a block that intersects the cone never has its bounding
  // sphere classified outside, and one that does not never inside.
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    Vec3 pos = direction_from_angles(rng.uniform(0.05, 3.09),
                                     rng.uniform(0.0, 6.28)) *
               rng.uniform(2.0, 4.0);
    Camera cam(pos, rng.uniform(5.0, 50.0));
    ConeFrustum f(cam);
    Vec3 lo{rng.uniform(-1.0, 0.6), rng.uniform(-1.0, 0.6),
            rng.uniform(-1.0, 0.6)};
    AABB box(lo, lo + Vec3{rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4),
                           rng.uniform(0.05, 0.4)});
    const ConeOverlap c = f.classify_sphere(box.center(), box.diagonal() * 0.5);
    if (f.intersects_block(box)) {
      EXPECT_NE(c, ConeOverlap::kOutside);
    } else {
      EXPECT_NE(c, ConeOverlap::kInside);
    }
  }
}

}  // namespace
}  // namespace vizcache
