#include "volume/block_metadata.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "util/error.hpp"

namespace vizcache {
namespace {

namespace fs = std::filesystem;

SyntheticBlockStore flame_store() {
  return SyntheticBlockStore(make_flame_volume("f", {32, 32, 32}), {8, 8, 8});
}

TEST(BlockMetadata, MinMaxMeanCorrect) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    float mn = payload[0], mx = payload[0];
    double sum = 0.0;
    for (float v : payload) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += static_cast<double>(v);
    }
    const auto& e = t.entry(id);
    EXPECT_FLOAT_EQ(e.min, mn);
    EXPECT_FLOAT_EQ(e.max, mx);
    EXPECT_NEAR(e.mean, sum / static_cast<double>(payload.size()), 1e-5);
  }
}

TEST(BlockMetadata, PooledBuildIsIdenticalToSerial) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable serial = BlockMetadataTable::build(store);
  ThreadPool pool(4);
  BlockMetadataTable pooled = BlockMetadataTable::build(store, 0, 0, &pool);
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    EXPECT_EQ(pooled.entry(id).min, serial.entry(id).min);
    EXPECT_EQ(pooled.entry(id).max, serial.entry(id).max);
    EXPECT_EQ(pooled.entry(id).mean, serial.entry(id).mean);
  }
}

// Serves the flame store but returns no values for block 0.
class HollowStore final : public BlockStore {
 public:
  const BlockGrid& grid() const override { return inner_.grid(); }
  const VolumeDesc& desc() const override { return inner_.desc(); }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override {
    if (id == 0) return {};
    return inner_.read_block(id, var, timestep);
  }

 private:
  SyntheticBlockStore inner_ = flame_store();
};

TEST(BlockMetadata, EmptyPayloadHasEmptyInterval) {
  // An empty block holds no value: it must match no range and must not
  // drag the global range toward 0 (T_important's entropy bins come from
  // variable_range).
  HollowStore store;
  BlockMetadataTable t = BlockMetadataTable::build(store);
  EXPECT_EQ(t.entry(0).min, std::numeric_limits<float>::infinity());
  EXPECT_EQ(t.entry(0).max, -std::numeric_limits<float>::infinity());
  EXPECT_EQ(t.entry(0).mean, 0.0f);
  EXPECT_FALSE(t.intersects_range(0, 0, -1e30f, 1e30f));

  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (BlockId id = 1; id < t.block_count(); ++id) {
    lo = std::min(lo, t.entry(id).min);
    hi = std::max(hi, t.entry(id).max);
  }
  EXPECT_EQ(t.variable_range(0), std::make_pair(lo, hi));
}

TEST(BlockMetadata, RangeTestSoundness) {
  // The metadata test must never produce a false negative: any block that
  // actually contains a value in the range must pass may-match.
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  const float lo = 0.4f, hi = 0.6f;
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    std::vector<float> payload = store.read_block(id, 0, 0);
    bool actually_contains = false;
    for (float v : payload) {
      if (v >= lo && v <= hi) actually_contains = true;
    }
    if (actually_contains) {
      EXPECT_TRUE(t.intersects_range(id, 0, lo, hi)) << "block " << id;
    }
  }
}

TEST(BlockMetadata, BlocksInRangeSelective) {
  // An iso-band in the flame's sheet region must skip ambient blocks.
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  auto candidates = t.blocks_in_range(0, 0.45f, 0.55f);
  EXPECT_GT(candidates.size(), 0u);
  EXPECT_LT(candidates.size(), store.grid().block_count());
}

TEST(BlockMetadata, FullRangeMatchesEverything) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  auto [lo, hi] = t.variable_range(0);
  EXPECT_EQ(t.blocks_in_range(0, lo, hi).size(), store.grid().block_count());
}

TEST(BlockMetadata, VariableRangeCoversBlockExtremes) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  auto [lo, hi] = t.variable_range(0);
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_GE(t.entry(id).min, lo);
    EXPECT_LE(t.entry(id).max, hi);
  }
  EXPECT_LT(lo, hi);
}

TEST(BlockMetadata, MultiVariable) {
  SyntheticBlockStore store(make_climate_volume({16, 16, 8}, 5, 1), {8, 8, 4});
  BlockMetadataTable t = BlockMetadataTable::build(store, 3);
  EXPECT_EQ(t.variable_count(), 3u);
  // Different variables have different summaries.
  bool differ = false;
  for (BlockId id = 0; id < t.block_count(); ++id) {
    if (t.entry(id, 0).mean != t.entry(id, 1).mean) differ = true;
  }
  EXPECT_TRUE(differ);
  EXPECT_THROW(t.entry(0, 3), InvalidArgument);
}

TEST(BlockMetadata, SaveLoadRoundTrip) {
  SyntheticBlockStore store = flame_store();
  BlockMetadataTable t = BlockMetadataTable::build(store);
  std::string path =
      (fs::temp_directory_path() / "vizcache_meta_test.bin").string();
  t.save(path);
  BlockMetadataTable loaded = BlockMetadataTable::load(path);
  ASSERT_EQ(loaded.block_count(), t.block_count());
  ASSERT_EQ(loaded.variable_count(), t.variable_count());
  for (BlockId id = 0; id < t.block_count(); ++id) {
    EXPECT_FLOAT_EQ(loaded.entry(id).min, t.entry(id).min);
    EXPECT_FLOAT_EQ(loaded.entry(id).max, t.entry(id).max);
  }
  fs::remove(path);
}

TEST(BlockMetadata, InvalidInputsThrow) {
  SyntheticBlockStore store = flame_store();
  EXPECT_THROW(BlockMetadataTable::build(store, 5), InvalidArgument);
  BlockMetadataTable t = BlockMetadataTable::build(store);
  EXPECT_THROW(t.blocks_in_range(0, 0.6f, 0.4f), InvalidArgument);
  EXPECT_THROW(BlockMetadataTable::load("/nonexistent/meta.bin"), IoError);
}

}  // namespace
}  // namespace vizcache
