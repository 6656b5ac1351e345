#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "render/brick_sampler.hpp"
#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "volume/block_store.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

/// Fully-resident brick set over the analytic ball, bricked 4x4x4 — the
/// same scene the block-coherent golden suite uses.
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
  p.early_termination = 1.0f;  // see test_brick_raycaster.cpp
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

/// Golden comparison: the packet image must match the retained scalar
/// reference path within tol per channel (same oracle, same tolerance as
/// the block-coherent suite).
void expect_packet_matches_reference(const ResidentBrickSet& bricks,
                                     const TransferFunction& tf,
                                     const RaycastParams& p, double tol,
                                     usize lut_resolution = 1024) {
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const TransferFunctionLUT lut(tf, p.step_size, lut_resolution);
  Image packet = raycast_packet(cam, bricks, lut, p);
  Image ref = raycast(cam, make_reference_sampler(bricks), tf, p);
  EXPECT_LT(max_channel_diff(packet, ref), tol);
  EXPECT_GT(packet.coverage(), 0.05);
}

TEST(PacketRaycaster, WidthIsEightInBothBuilds) {
  // The packet width is a fixed compile-time constant in the native AVX2
  // build AND the portable fallback — goldens and stats are identical
  // regardless of which implementation is active.
  EXPECT_EQ(raycast_packet_width(), 8u);
  // viz_render's packet TU and this test TU link the same vizcache_simd
  // flags, so their notion of "native" must agree (ODR guard).
  EXPECT_EQ(raycast_packet_native(), simd::kNative);
}

TEST(PacketRaycaster, GoldenGrayscale) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::grayscale(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenFire) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenCoolWarm) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::cool_warm(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenIsoBandNeedsResolution) {
  BallScene s;
  TransferFunction band =
      TransferFunction::iso_band(0.4f, 0.5f, {0.9f, 0.3f, 0.1f, 0.6f});
  expect_packet_matches_reference(s.bricks, band, strict_params(), 1e-3,
                                  16384);
}

TEST(PacketRaycaster, GoldenPartialResidency) {
  // Evict every 3rd brick: packet lanes must skip exactly the regions the
  // reference sampler reports as non-resident.
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; id += 3) s.bricks.evict(id);
  ASSERT_LT(s.bricks.resident_count(), n);
  ASSERT_GT(s.bricks.resident_count(), 0u);
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, MatchesBlockCoherentPathClosely) {
  // The packet path shares the DDA path's segment math and sampling
  // positions; the only divergence is float re-anchoring at intra-segment
  // run boundaries, far below the reference-golden tolerance.
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image packet = raycast_packet(cam, s.bricks, lut, p);
  Image dda = raycast(cam, s.bricks, lut, p);
  EXPECT_LT(max_channel_diff(packet, dda), 1e-4);
}

TEST(PacketRaycaster, StatsMatchBlockCoherentExactly) {
  // Regression pin for the RaycastStats aggregation: per-lane sample and
  // skip counts must sum to exactly the block-coherent path's totals —
  // both use the same double-precision segment bounds, so the integer
  // counts are bit-identical. Early termination is disabled (threshold
  // above any reachable alpha) so an FP-sensitive termination flip cannot
  // re-attribute the tail of a ray.
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 1; id < n; id += 4) s.bricks.evict(id);  // partial set
  RaycastParams p = strict_params();
  p.early_termination = 2.0f;
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  RaycastStats ps, ds;
  (void)raycast_packet(cam, s.bricks, lut, p, nullptr, &ps);
  (void)raycast(cam, s.bricks, lut, p, nullptr, &ds);
  EXPECT_EQ(ps.rays, ds.rays);
  EXPECT_EQ(ps.samples, ds.samples);
  EXPECT_EQ(ps.skipped, ds.skipped);
  EXPECT_EQ(ps.segments, ds.segments);
  EXPECT_GT(ps.samples, 0u);
  EXPECT_GT(ps.skipped, 0u);
  EXPECT_GT(ps.segments, 0u);
  // Compositing decisions depend on sampled float values, which can move
  // by ulps at run re-anchors; allow a sliver of slack.
  const double pc = static_cast<double>(ps.composited);
  const double dc = static_cast<double>(ds.composited);
  EXPECT_NEAR(pc, dc, std::max(4.0, 0.001 * dc));
}

TEST(PacketRaycaster, StatsMatchAtFullResidencyToo) {
  BallScene s;
  RaycastParams p = strict_params();
  p.early_termination = 2.0f;
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  RaycastStats ps, ds;
  (void)raycast_packet(cam, s.bricks, lut, p, nullptr, &ps);
  (void)raycast(cam, s.bricks, lut, p, nullptr, &ds);
  EXPECT_EQ(ps.rays, ds.rays);
  EXPECT_EQ(ps.samples, ds.samples);
  EXPECT_EQ(ps.segments, ds.segments);
  EXPECT_GT(ps.segments, 0u);
  EXPECT_EQ(ps.skipped, 0u);
  EXPECT_EQ(ds.skipped, 0u);
}

/// Edge-geometry check: the packet path against the DDA overload (exact
/// work counters, 1e-4 image) and the scalar oracle (1e-3 image), with
/// early termination off so no FP-sensitive flip re-attributes samples.
void expect_packet_matches_dda_and_oracle(const ResidentBrickSet& bricks,
                                          const Camera& cam,
                                          RaycastParams p) {
  p.early_termination = 2.0f;
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, p.step_size);
  RaycastStats ps, ds;
  const Image packet = raycast_packet(cam, bricks, lut, p, nullptr, &ps);
  const Image dda = raycast(cam, bricks, lut, p, nullptr, &ds);
  const Image ref = raycast(cam, make_reference_sampler(bricks), tf, p);
  EXPECT_EQ(ps.rays, ds.rays);
  EXPECT_EQ(ps.samples, ds.samples);
  EXPECT_EQ(ps.skipped, ds.skipped);
  EXPECT_EQ(ps.segments, ds.segments);
  EXPECT_GT(ps.samples, 0u);
  EXPECT_LE(max_channel_diff(packet, dda), 1e-4);
  EXPECT_LE(max_channel_diff(packet, ref), 1e-3);
  EXPECT_GT(packet.coverage(), 0.05);
}

/// A volume whose dims are not multiples of the brick dims: edge bricks
/// are clipped on every axis, and the last brick column is one voxel wide
/// in x (33 = 4*8 + 1), so packets mix full, clipped and one-voxel bricks.
struct EdgeScene {
  EdgeScene()
      : store(make_ball_volume({33, 30, 29}), {8, 8, 8}),
        bricks(store.grid()) {
    bricks.load_all(store);
  }
  SyntheticBlockStore store;
  ResidentBrickSet bricks;
};

TEST(PacketRaycaster, ClippedAndOneVoxelBricksMatchAtFullResidency) {
  EdgeScene s;
  const BlockGrid& grid = s.store.grid();
  ASSERT_EQ(grid.grid_dims(), Dims3(5, 4, 4));
  ASSERT_EQ(grid.block_voxel_extent(grid.id_of({4, 1, 2})).x, 1u);
  // Viewed from +x so the one-voxel column faces the camera and every
  // primary ray that enters there starts in it.
  expect_packet_matches_dda_and_oracle(s.bricks, Camera({2.6, 0.9, 0.6}, 38.0),
                                       strict_params());
  expect_packet_matches_dda_and_oracle(s.bricks, Camera({2.4, 1.2, 0.7}, 38.0),
                                       strict_params());
}

TEST(PacketRaycaster, ClippedAndOneVoxelBricksMatchAtPartialResidency) {
  EdgeScene s;
  const BlockGrid& grid = s.store.grid();
  // Evict every third brick, but keep the one-voxel column resident so
  // its bricks are sampled next to non-resident neighbours.
  for (BlockId id = 0; id < grid.block_count(); id += 3) {
    if (grid.coord_of(id).bx != 4) s.bricks.evict(id);
  }
  ASSERT_LT(s.bricks.resident_count(), grid.block_count());
  expect_packet_matches_dda_and_oracle(s.bricks, Camera({2.6, 0.9, 0.6}, 38.0),
                                       strict_params());
  expect_packet_matches_dda_and_oracle(s.bricks,
                                       Camera({-1.9, 2.1, -0.8}, 38.0),
                                       strict_params());
}

TEST(PacketRaycaster, OneVoxelWideBricksStayInsideTheArena) {
  // Every brick is one voxel wide in x and fills its arena slot, so the
  // paired x fetch must neither start before slot 0 nor read past the last
  // slot's final voxel without the arena's pad float (ASan sees both).
  SyntheticBlockStore store(make_ball_volume({1, 16, 16}), {1, 8, 8});
  ResidentBrickSet bricks(store.grid());
  bricks.load_all(store);
  ASSERT_EQ(bricks.arena_floats(), store.grid().block_count() * 64 + 1);
  expect_packet_matches_dda_and_oracle(bricks, Camera({2.4, 1.2, 0.7}, 38.0),
                                       strict_params());
  bricks.evict(1);
  expect_packet_matches_dda_and_oracle(bricks, Camera({-2.0, 1.5, -1.2}, 38.0),
                                       strict_params());
}

TEST(PacketRaycaster, NarrowViewOverHalfResidentSmallBricksMatches) {
  // The benchmark's frame in miniature: 16^3 bricks, a 10-degree view from
  // distance 3, every other brick evicted. Rays cross many short segments
  // and neighbouring lanes sit in different bricks most of the time.
  SyntheticBlockStore store(make_ball_volume({96, 96, 96}), {16, 16, 16});
  ResidentBrickSet bricks(store.grid());
  bricks.load_all(store);
  for (BlockId id = 0; id < store.grid().block_count(); id += 2) {
    bricks.evict(id);
  }
  const Vec3 dir = Vec3{2.4, 1.2, 0.7}.normalized();
  RaycastParams p = strict_params();
  p.step_size = 0.01;
  expect_packet_matches_dda_and_oracle(bricks, Camera(dir * 3.0, 10.0), p);
}

TEST(PacketRaycaster, ThreadPoolMatchesSerial) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image serial = raycast_packet(cam, s.bricks, lut, p, nullptr);
  ThreadPool pool(4);
  Image parallel = raycast_packet(cam, s.bricks, lut, p, &pool);
  for (usize y = 0; y < p.image_height; ++y) {
    for (usize x = 0; x < p.image_width; ++x) {
      EXPECT_FLOAT_EQ(serial.at(x, y).r, parallel.at(x, y).r);
      EXPECT_FLOAT_EQ(serial.at(x, y).a, parallel.at(x, y).a);
    }
  }
}

TEST(PacketRaycaster, EmptyResidencyGivesEmptyImage) {
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; ++id) s.bricks.evict(id);
  const TransferFunctionLUT lut(TransferFunction::fire(),
                                strict_params().step_size);
  Image img = raycast_packet(Camera({3, 0, 0}, 40.0), s.bricks, lut,
                             strict_params());
  EXPECT_DOUBLE_EQ(img.coverage(), 0.0);
}

TEST(PacketRaycaster, StrideOneMaskIsIdentity) {
  // An all-ones mask must reproduce the unmasked packet image bit-exactly:
  // stride 1 takes the no-rescale select branch with the same positions.
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const SamplingMask mask =
      SamplingMask::uniform(s.store.grid().block_count(), 1);
  Image plain = raycast_packet(cam, s.bricks, lut, p);
  Image masked = raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr,
                                &mask);
  for (usize y = 0; y < p.image_height; ++y) {
    for (usize x = 0; x < p.image_width; ++x) {
      EXPECT_FLOAT_EQ(plain.at(x, y).r, masked.at(x, y).r);
      EXPECT_FLOAT_EQ(plain.at(x, y).a, masked.at(x, y).a);
    }
  }
}

TEST(PacketRaycaster, AdaptiveStrideBoundsErrorAndCutsSamples) {
  // Uniform coarse strides: the opacity-corrected rescale keeps the image
  // within the documented adaptive bound of the full-rate packet image
  // (DESIGN.md "Render hot path") while evaluating the field 2x/4x less.
  BallScene s;
  const usize n = s.store.grid().block_count();
  RaycastParams p = strict_params();
  p.early_termination = 2.0f;  // keep sample counts exactly comparable
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  RaycastStats full_stats;
  Image full = raycast_packet(cam, s.bricks, lut, p, nullptr, &full_stats);

  const double bound[2] = {0.06, 0.12};  // stride 2, stride 4
  const u8 strides[2] = {2, 4};
  for (int i = 0; i < 2; ++i) {
    const SamplingMask mask = SamplingMask::uniform(n, strides[i]);
    RaycastStats st;
    Image img = raycast_packet(cam, s.bricks, lut, p, nullptr, &st, &mask);
    EXPECT_LT(max_channel_diff(img, full), bound[i]) << "stride "
                                                     << int{strides[i]};
    // Stride s takes every s-th lattice position per segment, so the count
    // is ceil-divided per segment: full/s plus at most one extra sample per
    // ray/block segment (a ray crosses at most ~a dozen bricks here).
    EXPECT_LT(st.samples * strides[i],
              full_stats.samples + full_stats.rays * strides[i] * 16)
        << "stride " << int{strides[i]};
    EXPECT_LT(st.samples * 3 / 2, full_stats.samples)
        << "stride " << int{strides[i]};
  }
}

TEST(PacketRaycaster, MixedStrideMaskStaysWithinCoarsestBound) {
  // Lanes of one packet may carry different strides simultaneously; the
  // per-lane rescale select must apply the right factor to each.
  BallScene s;
  const usize n = s.store.grid().block_count();
  SamplingMask mask = SamplingMask::uniform(n, 1);
  for (usize id = 0; id < n; ++id) {
    mask.stride[id] = id % 3 == 0 ? u8{4} : (id % 3 == 1 ? u8{2} : u8{1});
  }
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image full = raycast_packet(cam, s.bricks, lut, p);
  Image adaptive = raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr,
                                  &mask);
  EXPECT_LT(max_channel_diff(adaptive, full), 0.12);
}

TEST(PacketRaycaster, RejectsBadMasks) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({3, 0, 0}, 40.0);
  const usize n = s.store.grid().block_count();
  // Stride 3 has no closed-form opacity rescale — rejected loudly.
  SamplingMask bad_stride = SamplingMask::uniform(n, 3);
  EXPECT_THROW(
      raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr, &bad_stride),
      InvalidArgument);
  // A mask that does not cover the grid is a wiring bug, not a default.
  SamplingMask short_mask = SamplingMask::uniform(n - 1, 2);
  EXPECT_THROW(
      raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr, &short_mask),
      InvalidArgument);
}

TEST(PacketRaycaster, MismatchedLutStepThrows) {
  BallScene s;
  RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size * 2.0);
  EXPECT_THROW(raycast_packet(Camera({3, 0, 0}, 40.0), s.bricks, lut, p),
               InvalidArgument);
}

TEST(PacketRaycaster, OddImageWidthCoversTailPixels) {
  // Width 37 leaves a 5-lane tail packet; every volume-hitting pixel must
  // still be rendered (compare against the block-coherent path).
  BallScene s;
  RaycastParams p = strict_params();
  p.image_width = 37;
  p.image_height = 19;
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image packet = raycast_packet(cam, s.bricks, lut, p);
  Image dda = raycast(cam, s.bricks, lut, p);
  EXPECT_LT(max_channel_diff(packet, dda), 1e-4);
  EXPECT_GT(packet.coverage(), 0.05);
}

TEST(PacketRaycaster, EarlyTerminationRetiresLanesIndependently) {
  // With a dense transfer function and a low threshold, neighboring lanes
  // terminate at different depths; the image must stay close to the
  // block-coherent path (same loose bound as its own golden, since the
  // flip sample is FP-sensitive in both).
  BallScene s;
  RaycastParams p = strict_params();
  p.early_termination = 0.5f;
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image packet = raycast_packet(cam, s.bricks, lut, p);
  Image dda = raycast(cam, s.bricks, lut, p);
  EXPECT_LT(max_channel_diff(packet, dda), 0.05);
  EXPECT_GT(packet.coverage(), 0.05);
}

}  // namespace
}  // namespace vizcache
