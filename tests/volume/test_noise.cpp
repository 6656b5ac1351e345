#include "volume/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace vizcache {
namespace {

TEST(ValueNoise, DeterministicForSeed) {
  ValueNoise a(42), b(42);
  for (double x = 0.0; x < 5.0; x += 0.37) {
    EXPECT_DOUBLE_EQ(a.noise(x, x * 2, x * 3), b.noise(x, x * 2, x * 3));
  }
}

TEST(ValueNoise, SeedsChangeField) {
  ValueNoise a(1), b(2);
  int diff = 0;
  for (double x = 0.1; x < 3.0; x += 0.3) {
    if (a.noise(x, 0.5, 0.5) != b.noise(x, 0.5, 0.5)) ++diff;
  }
  EXPECT_GT(diff, 5);
}

TEST(ValueNoise, RangeZeroOne) {
  ValueNoise n(7);
  for (double x = -3.0; x < 3.0; x += 0.17) {
    for (double y = -1.0; y < 1.0; y += 0.29) {
      double v = n.noise(x, y, x + y);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(ValueNoise, ContinuousAcrossLatticeCell) {
  // Smoothstep interpolation: neighboring samples differ by little.
  ValueNoise n(11);
  double prev = n.noise(0.0, 0.5, 0.5);
  for (double x = 0.01; x <= 2.0; x += 0.01) {
    double v = n.noise(x, 0.5, 0.5);
    EXPECT_LT(std::abs(v - prev), 0.15);
    prev = v;
  }
}

TEST(ValueNoise, NotConstant) {
  ValueNoise n(13);
  double mn = 1e9, mx = -1e9;
  for (double x = 0.0; x < 10.0; x += 0.23) {
    double v = n.noise(x, 1.3, 2.7);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx - mn, 0.3);
}

TEST(ValueNoise, FbmRangeAndDeterminism) {
  ValueNoise n(17);
  for (double x = -2.0; x < 2.0; x += 0.31) {
    double v = n.fbm(x, x, x, 4, 0.5);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_DOUBLE_EQ(v, n.fbm(x, x, x, 4, 0.5));
  }
}

TEST(ValueNoise, FbmAddsDetail) {
  // More octaves introduce higher-frequency variation: the mean absolute
  // difference between nearby samples grows.
  ValueNoise n(19);
  auto roughness = [&](int octaves) {
    double sum = 0.0;
    double prev = n.fbm(0.0, 0.7, 0.3, octaves);
    for (double x = 0.05; x < 4.0; x += 0.05) {
      double v = n.fbm(x, 0.7, 0.3, octaves);
      sum += std::abs(v - prev);
      prev = v;
    }
    return sum;
  };
  EXPECT_GT(roughness(5), roughness(1));
}

TEST(ValueNoise, FbmZeroOctavesIsZero) {
  ValueNoise n(23);
  EXPECT_DOUBLE_EQ(n.fbm(1.0, 2.0, 3.0, 0), 0.0);
}

TEST(ValueNoise, FbmGridIsBitIdenticalToFbm) {
  // Negative coordinates, points exactly on lattice-cell boundaries at every
  // octave's frequency, an unsorted axis and a repeated value.
  const std::vector<double> xs = {-3.0, -2.5, -1.0, -0.75, -0.0,
                                  0.0,  0.5,  1.0,  2.25,  1.0};
  const std::vector<double> ys = {4.0, -1.999, 0.125, -7.5};
  const std::vector<double> zs = {-0.5, 3.0, -12.0};
  const ValueNoise n(99);
  for (const int octaves : {0, 1, 3, 5}) {
    for (const double persistence : {0.5, 0.55}) {
      std::vector<double> grid(xs.size() * ys.size() * zs.size());
      n.fbm_grid(xs, ys, zs, octaves, persistence, grid);
      usize at = 0;
      for (const double z : zs) {
        for (const double y : ys) {
          for (const double x : xs) {
            const double want = n.fbm(x, y, z, octaves, persistence);
            EXPECT_EQ(std::bit_cast<u64>(grid[at]), std::bit_cast<u64>(want))
                << "octaves " << octaves << " at (" << x << ", " << y << ", "
                << z << ")";
            ++at;
          }
        }
      }
    }
  }
}

TEST(ValueNoise, FbmGridHandlesEmptyAxesAndRejectsBadOutput) {
  const ValueNoise n(1);
  const std::vector<double> xs = {0.25, 0.5};
  std::vector<double> none;
  n.fbm_grid(xs, none, xs, 3, 0.5, none);  // empty grid: nothing to do
  std::vector<double> wrong(3);
  EXPECT_THROW(n.fbm_grid(xs, xs, xs, 3, 0.5, wrong), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
