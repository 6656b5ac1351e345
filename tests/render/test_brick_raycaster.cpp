#include "render/brick_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "volume/block_store.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

/// Fully-resident brick set over the analytic ball, bricked 4x4x4.
struct BallScene {
  BallScene()
      : store(make_ball_volume({32, 32, 32}), {8, 8, 8}),
        bricks(store.grid()) {
    bricks.load_all(store);
  }
  SyntheticBlockStore store;
  ResidentBrickSet bricks;
};

RaycastParams strict_params() {
  RaycastParams p;
  p.image_width = 48;
  p.image_height = 48;
  p.step_size = 0.02;
  // Early termination compares accumulated alpha against a threshold; the
  // two paths can disagree on the flip sample at default 0.98 and then
  // diverge by a whole sample's contribution. Disable it for golden runs.
  p.early_termination = 1.0f;
  return p;
}

double max_channel_diff(const Image& a, const Image& b) {
  double worst = 0.0;
  for (usize y = 0; y < a.height(); ++y) {
    for (usize x = 0; x < a.width(); ++x) {
      const Rgba& pa = a.at(x, y);
      const Rgba& pb = b.at(x, y);
      worst = std::max({worst, std::abs(static_cast<double>(pa.r - pb.r)),
                        std::abs(static_cast<double>(pa.g - pb.g)),
                        std::abs(static_cast<double>(pa.b - pb.b)),
                        std::abs(static_cast<double>(pa.a - pb.a))});
    }
  }
  return worst;
}

/// Golden comparison: the block-coherent DDA+LUT image must match the
/// retained scalar reference path within tol per channel.
void expect_paths_agree(const BrickSampler& bricks, const TransferFunction& tf,
                        const RaycastParams& p, double tol,
                        usize lut_resolution = 1024) {
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const TransferFunctionLUT lut(tf, p.step_size, lut_resolution);
  Image fast = raycast(cam, bricks, lut, p);
  Image ref = raycast(cam, make_reference_sampler(bricks), tf, p);
  EXPECT_LT(max_channel_diff(fast, ref), tol);
  // And the image is not trivially empty — agreement on black proves nothing.
  EXPECT_GT(fast.coverage(), 0.05);
}

TEST(BrickRaycaster, GoldenGrayscale) {
  BallScene s;
  expect_paths_agree(s.bricks, TransferFunction::grayscale(), strict_params(),
                     1e-3);
}

TEST(BrickRaycaster, GoldenFire) {
  BallScene s;
  expect_paths_agree(s.bricks, TransferFunction::fire(), strict_params(),
                     1e-3);
}

TEST(BrickRaycaster, GoldenCoolWarm) {
  BallScene s;
  expect_paths_agree(s.bricks, TransferFunction::cool_warm(), strict_params(),
                     1e-3);
}

TEST(BrickRaycaster, GoldenIsoBandNeedsResolution) {
  // A narrow iso band has steep opacity kinks: the default 1024-entry LUT
  // smooths them past 1e-3, a denser table does not.
  BallScene s;
  TransferFunction band =
      TransferFunction::iso_band(0.4f, 0.5f, {0.9f, 0.3f, 0.1f, 0.6f});
  expect_paths_agree(s.bricks, band, strict_params(), 1e-3, 16384);
}

TEST(BrickRaycaster, GoldenWithDefaultEarlyTermination) {
  // With early termination on, the flip sample may differ between paths, so
  // only a loose per-channel bound holds.
  BallScene s;
  RaycastParams p = strict_params();
  p.early_termination = 0.98f;
  expect_paths_agree(s.bricks, TransferFunction::fire(), p, 0.05);
}

TEST(BrickRaycaster, PartialResidencyMatchesReference) {
  // Evict a handful of bricks: both paths must skip exactly the same
  // regions (reference returns nullopt, DDA skips the segment in O(1)).
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; id += 3) s.bricks.evict(id);
  ASSERT_LT(s.bricks.resident_count(), n);
  ASSERT_GT(s.bricks.resident_count(), 0u);
  expect_paths_agree(s.bricks, TransferFunction::fire(), strict_params(),
                     1e-3);
}

TEST(BrickRaycaster, PartialResidencyAllThreePathsAgree) {
  // Same eviction pattern, third implementation: the SIMD packet path must
  // skip exactly the same non-resident regions as the DDA path and the
  // reference sampler (the packet path's own suite lives in
  // test_packet_raycaster.cpp; this pins the three-way agreement alongside
  // the original two-way golden).
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; id += 3) s.bricks.evict(id);
  const RaycastParams p = strict_params();
  const TransferFunction tf = TransferFunction::fire();
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const TransferFunctionLUT lut(tf, p.step_size);
  Image packet = raycast_packet(cam, s.bricks, lut, p);
  Image dda = raycast(cam, s.bricks, lut, p);
  Image ref = raycast(cam, make_reference_sampler(s.bricks), tf, p);
  EXPECT_LT(max_channel_diff(packet, ref), 1e-3);
  EXPECT_LT(max_channel_diff(packet, dda), 1e-4);
  EXPECT_GT(packet.coverage(), 0.05);
}

TEST(BrickRaycaster, EmptyResidencyGivesEmptyImage) {
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; ++id) s.bricks.evict(id);
  const TransferFunctionLUT lut(TransferFunction::fire(),
                                strict_params().step_size);
  Image img = raycast(Camera({3, 0, 0}, 40.0), s.bricks, lut, strict_params());
  EXPECT_DOUBLE_EQ(img.coverage(), 0.0);
}

TEST(BrickRaycaster, ThreadPoolMatchesSerial) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image serial = raycast(cam, s.bricks, lut, p, nullptr);
  ThreadPool pool(4);
  Image parallel = raycast(cam, s.bricks, lut, p, &pool);
  for (usize y = 0; y < p.image_height; ++y) {
    for (usize x = 0; x < p.image_width; ++x) {
      EXPECT_FLOAT_EQ(serial.at(x, y).r, parallel.at(x, y).r);
      EXPECT_FLOAT_EQ(serial.at(x, y).a, parallel.at(x, y).a);
    }
  }
}

TEST(BrickRaycaster, StatsCountRaysAndSamples) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  RaycastStats stats;
  raycast(Camera({3, 0, 0}, 40.0), s.bricks, lut, p, nullptr, &stats);
  // Rays are counted only when they intersect the volume bounds.
  EXPECT_GT(stats.rays, 0u);
  EXPECT_LE(stats.rays, p.image_width * p.image_height);
  EXPECT_GT(stats.samples, 0u);
  EXPECT_GT(stats.composited, 0u);
  EXPECT_LE(stats.composited, stats.samples);
}

TEST(BrickRaycaster, MismatchedLutStepThrows) {
  BallScene s;
  RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size * 2.0);
  EXPECT_THROW(raycast(Camera({3, 0, 0}, 40.0), s.bricks, lut, p),
               InvalidArgument);
}

TEST(ResidentBrickSet, LoadEvictTracksResidency) {
  BallScene s;
  const usize n = s.store.grid().block_count();
  EXPECT_EQ(s.bricks.resident_count(), n);
  EXPECT_TRUE(s.bricks.resident(0));
  s.bricks.evict(0);
  EXPECT_FALSE(s.bricks.resident(0));
  EXPECT_EQ(s.bricks.resident_count(), n - 1);
  EXPECT_FALSE(s.bricks.brick(0).resident());
  s.bricks.load(s.store, 0);
  EXPECT_TRUE(s.bricks.resident(0));
  EXPECT_EQ(s.bricks.resident_count(), n);
}

/// Every resident view must hold exactly the store's bytes for its block,
/// inside the arena.
void expect_views_match_store(const ResidentBrickSet& bricks,
                              const BlockStore& store) {
  usize resident = 0;
  for (BlockId id = 0; id < store.grid().block_count(); ++id) {
    const BrickView v = bricks.brick(id);
    ASSERT_EQ(v.resident(), bricks.resident(id)) << "block " << id;
    if (!v.resident()) continue;
    ++resident;
    const std::vector<float> want = store.read_block(id);
    ASSERT_EQ(v.ex * v.ey * v.ez, want.size()) << "block " << id;
    ASSERT_GE(v.data, bricks.arena());
    ASSERT_LE(v.data + want.size(),
              bricks.arena() + bricks.arena_floats());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), v.data))
        << "block " << id;
  }
  EXPECT_EQ(bricks.resident_count(), resident);
}

TEST(ResidentBrickSet, ArenaReusesSlotsAndGrowsWithoutLosingBytes) {
  // Clipped edge bricks (including a one-voxel-wide column) share the
  // arena with full ones.
  const SyntheticBlockStore store(make_ball_volume({33, 30, 29}), {8, 8, 8});
  const usize n = store.grid().block_count();
  ResidentBrickSet bricks(store.grid());
  EXPECT_EQ(bricks.slot_capacity(), 0u);  // nothing allocated up front
  EXPECT_EQ(bricks.arena_floats(), 0u);

  // Grow one load at a time past the first capacity.
  bricks.load(store, 0);
  const usize first_capacity = bricks.slot_capacity();
  ASSERT_GT(first_capacity, 0u);
  ASSERT_LT(first_capacity, n);
  for (BlockId id = 1; id < n; id += 2) bricks.load(store, id);
  EXPECT_GT(bricks.slot_capacity(), first_capacity);
  expect_views_match_store(bricks, store);

  // Evict/reload cycles reuse freed slots: the capacity stays put and a
  // newly loaded block lands in the slot just freed.
  const usize capacity = bricks.slot_capacity();
  const float* const arena = bricks.arena();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (BlockId id = 1; id < n; id += 4) {
      const float* freed = bricks.brick(id).data;
      bricks.evict(id);
      EXPECT_FALSE(bricks.resident(id));
      const BlockId other = id + 1;  // even ids are not resident
      if (other >= n || bricks.resident(other)) continue;
      bricks.load(store, other);
      EXPECT_EQ(bricks.brick(other).data, freed) << "block " << other;
    }
    for (BlockId id = 1; id < n; id += 4) {
      if (id + 1 < n && bricks.resident(id + 1)) bricks.evict(id + 1);
      bricks.load(store, id);
    }
    EXPECT_EQ(bricks.slot_capacity(), capacity);
    EXPECT_EQ(bricks.arena(), arena);
    expect_views_match_store(bricks, store);
  }

  // Reloading a resident block keeps its slot; a full load then grows the
  // arena to one slot per block and every byte still matches.
  const float* slot0 = bricks.brick(0).data;
  bricks.load(store, 0);
  EXPECT_EQ(bricks.brick(0).data, slot0);
  bricks.load_all(store);
  EXPECT_EQ(bricks.resident_count(), n);
  EXPECT_EQ(bricks.slot_capacity(), n);
  expect_views_match_store(bricks, store);
  for (BlockId id = 0; id < n; ++id) bricks.evict(id);
  EXPECT_EQ(bricks.resident_count(), 0u);
  expect_views_match_store(bricks, store);
}

TEST(TransferFunctionLUT, ExactAtNodesPremultiplied) {
  const TransferFunction tf = TransferFunction::fire();
  const double step = 0.01;
  const TransferFunctionLUT lut(tf, step, 256);
  for (usize i = 0; i <= 256; ++i) {
    const float v = static_cast<float>(i) / 256.0f;
    const Rgba c = tf.sample(v);
    const float ac =
        1.0f - std::pow(1.0f - c.a, static_cast<float>(step * 10.0));
    const TransferFunctionLUT::Entry e = lut.sample(v);
    EXPECT_NEAR(e.a, ac, 1e-6f);
    EXPECT_NEAR(e.r, c.r * ac, 1e-6f);
    EXPECT_NEAR(e.g, c.g * ac, 1e-6f);
    EXPECT_NEAR(e.b, c.b * ac, 1e-6f);
  }
}

TEST(TransferFunctionLUT, ClampsOutOfRangeAndValidates) {
  const TransferFunction tf = TransferFunction::grayscale();
  const TransferFunctionLUT lut(tf, 0.02);
  const auto lo = lut.sample(-5.0f);
  const auto lo2 = lut.sample(0.0f);
  EXPECT_FLOAT_EQ(lo.a, lo2.a);
  const auto hi = lut.sample(5.0f);
  const auto hi2 = lut.sample(1.0f);
  EXPECT_FLOAT_EQ(hi.a, hi2.a);
  EXPECT_THROW(TransferFunctionLUT(tf, 0.0), InvalidArgument);
  EXPECT_THROW(TransferFunctionLUT(tf, 0.02, 0), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
