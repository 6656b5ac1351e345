#include "volume/block_store.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "util/error.hpp"
#include "volume/blocker.hpp"

namespace vizcache {
namespace {

TEST(MemoryBlockStore, MatchesExtraction) {
  SyntheticVolume ball = make_ball_volume({24, 24, 24});
  Field3D f = rasterize(ball);
  MemoryBlockStore store(f, {8, 8, 8});
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    auto expected = extract_block(f, store.grid(), id);
    auto got = store.read_block(id, 0, 0);
    ASSERT_EQ(got.size(), expected.size());
    for (usize i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
  }
}

TEST(MemoryBlockStore, RejectsMultiVariable) {
  Field3D f({8, 8, 8});
  MemoryBlockStore store(f, {4, 4, 4});
  EXPECT_THROW(store.read_block(0, 1, 0), InvalidArgument);
  EXPECT_THROW(store.read_block(0, 0, 1), InvalidArgument);
}

TEST(MemoryBlockStore, FillsDefaultDesc) {
  Field3D f({8, 8, 8});
  MemoryBlockStore store(f, {4, 4, 4});
  EXPECT_EQ(store.desc().dims, Dims3(8, 8, 8));
  EXPECT_EQ(store.desc().variables, 1u);
}

TEST(SyntheticBlockStore, AgreesWithRasterizedField) {
  SyntheticVolume ball = make_ball_volume({20, 20, 20});
  Field3D f = rasterize(ball);
  SyntheticBlockStore lazy(ball, {8, 8, 8});
  MemoryBlockStore eager(f, {8, 8, 8});
  for (BlockId id = 0; id < lazy.grid().block_count(); ++id) {
    auto a = lazy.read_block(id, 0, 0);
    auto b = eager.read_block(id, 0, 0);
    ASSERT_EQ(a.size(), b.size());
    for (usize i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "block " << id << " voxel " << i;
    }
  }
}

TEST(SyntheticBlockStore, MultiVariableReads) {
  SyntheticVolume climate = make_climate_volume({16, 16, 8}, 6, 3);
  SyntheticBlockStore store(climate, {8, 8, 4});
  auto v0 = store.read_block(0, 0, 0);
  auto v1 = store.read_block(0, 1, 0);
  auto t1 = store.read_block(0, 1, 1);
  EXPECT_NE(v0, v1);
  EXPECT_NE(v1, t1);
  EXPECT_THROW(store.read_block(0, 6, 0), InvalidArgument);
  EXPECT_THROW(store.read_block(0, 0, 3), InvalidArgument);
}

TEST(SyntheticBlockStore, DeterministicReads) {
  SyntheticVolume flame = make_flame_volume("f", {24, 24, 24});
  SyntheticBlockStore store(flame, {8, 8, 8});
  EXPECT_EQ(store.read_block(5, 0, 0), store.read_block(5, 0, 0));
}

TEST(SyntheticBlockStore, EdgeBlocksClipped) {
  SyntheticVolume ball = make_ball_volume({10, 10, 10});
  SyntheticBlockStore store(ball, {4, 4, 4});
  BlockId corner = store.grid().id_of({2, 2, 2});
  EXPECT_EQ(store.read_block(corner, 0, 0).size(), 8u);  // 2x2x2
}

TEST(BlockStore, BlockBytesHelper) {
  SyntheticVolume ball = make_ball_volume({8, 8, 8});
  SyntheticBlockStore store(ball, {4, 4, 4});
  EXPECT_EQ(store.block_bytes(0), 4u * 4 * 4 * 4);
}

TEST(SyntheticBlockStore, OutOfRangeIdThrows) {
  SyntheticVolume ball = make_ball_volume({8, 8, 8});
  SyntheticBlockStore store(ball, {4, 4, 4});
  EXPECT_THROW(store.read_block(999, 0, 0), InvalidArgument);
}

/// Every block of `vol` read through its block evaluator equals, byte for
/// byte, the read through the per-voxel function alone.
void expect_block_path_matches_oracle(const SyntheticVolume& vol,
                                      Dims3 block_dims) {
  ASSERT_TRUE(vol.block_fn);
  SyntheticVolume per_voxel = vol;
  per_voxel.block_fn = nullptr;
  const SyntheticBlockStore fast(vol, block_dims);
  const SyntheticBlockStore oracle(per_voxel, block_dims);
  for (BlockId id = 0; id < fast.grid().block_count(); ++id) {
    const std::vector<float> got = fast.read_block(id, 0, 0);
    const std::vector<float> want = oracle.read_block(id, 0, 0);
    ASSERT_EQ(got.size(), want.size()) << "block " << id;
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "block " << id;
  }
}

TEST(SyntheticBlockStore, BallBlockEvaluatorMatchesOracleOnBenchWorld) {
  // The benchmark's world: 205^3 in 16^3 bricks, 2,197 blocks, so the last
  // block on each axis is 13 voxels wide.
  const SyntheticVolume ball = make_ball_volume({205, 205, 205});
  EXPECT_EQ(SyntheticBlockStore(ball, {16, 16, 16}).grid().block_count(),
            2197u);
  expect_block_path_matches_oracle(ball, {16, 16, 16});
}

TEST(SyntheticBlockStore, BallBlockEvaluatorMatchesOracleOnDegenerateAxes) {
  // A one-voxel axis puts every voxel at coordinate 0 on it (norm's
  // total == 1 branch); mixed with ragged and one-voxel-wide blocks.
  expect_block_path_matches_oracle(make_ball_volume({1, 23, 17}, 3),
                                   {4, 8, 5});
  expect_block_path_matches_oracle(make_ball_volume({31, 1, 9}, 5),
                                   {7, 3, 1});
}

}  // namespace
}  // namespace vizcache
