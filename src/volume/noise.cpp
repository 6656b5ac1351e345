#include "volume/noise.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace vizcache {

namespace {
inline double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }
inline double lerp(double a, double b, double t) { return a + (b - a) * t; }
}  // namespace

double ValueNoise::lattice(i64 x, i64 y, i64 z) const {
  // Mix coordinates and seed through a SplitMix64-style finalizer.
  u64 h = seed_;
  h ^= static_cast<u64>(x) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<u64>(y) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= static_cast<u64>(z) * 0x165667b19e3779f9ULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double ValueNoise::noise(double x, double y, double z) const {
  double fx = std::floor(x), fy = std::floor(y), fz = std::floor(z);
  i64 ix = static_cast<i64>(fx), iy = static_cast<i64>(fy),
      iz = static_cast<i64>(fz);
  double tx = smoothstep(x - fx), ty = smoothstep(y - fy), tz = smoothstep(z - fz);

  double c000 = lattice(ix, iy, iz), c100 = lattice(ix + 1, iy, iz);
  double c010 = lattice(ix, iy + 1, iz), c110 = lattice(ix + 1, iy + 1, iz);
  double c001 = lattice(ix, iy, iz + 1), c101 = lattice(ix + 1, iy, iz + 1);
  double c011 = lattice(ix, iy + 1, iz + 1), c111 = lattice(ix + 1, iy + 1, iz + 1);

  double c00 = lerp(c000, c100, tx), c10 = lerp(c010, c110, tx);
  double c01 = lerp(c001, c101, tx), c11 = lerp(c011, c111, tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

double ValueNoise::fbm(double x, double y, double z, int octaves,
                       double persistence) const {
  double sum = 0.0, amp = 1.0, freq = 1.0, norm = 0.0;
  for (int i = 0; i < octaves; ++i) {
    sum += amp * noise(x * freq, y * freq, z * freq);
    norm += amp;
    amp *= persistence;
    freq *= 2.0;
  }
  return norm > 0.0 ? sum / norm : 0.0;
}

namespace {

/// One axis of a grid at one octave. `corners` holds the sorted lattice
/// coordinates the axis touches; point i lies in the cell whose lower
/// corner is corners[cell[i]], and corners[cell[i] + 1] is that corner + 1
/// (both are in the set and no integer lies between them).
struct GridAxis {
  std::vector<i64> corners;
  std::vector<i64> base;  ///< floor of each point's coordinate
  std::vector<usize> cell;
  std::vector<double> t;  ///< smoothstep of the offset into the cell

  void build(std::span<const double> xs, double freq) {
    const usize n = xs.size();
    corners.resize(2 * n);
    base.resize(n);
    cell.resize(n);
    t.resize(n);
    for (usize i = 0; i < n; ++i) {
      // The same operations as noise(x * freq, ...).
      const double x = xs[i] * freq;
      const double f = std::floor(x);
      base[i] = static_cast<i64>(f);
      t[i] = smoothstep(x - f);
      corners[2 * i] = base[i];
      corners[2 * i + 1] = base[i] + 1;
    }
    std::sort(corners.begin(), corners.end());
    corners.erase(std::unique(corners.begin(), corners.end()), corners.end());
    for (usize i = 0; i < n; ++i) {
      cell[i] = static_cast<usize>(
          std::lower_bound(corners.begin(), corners.end(), base[i]) -
          corners.begin());
    }
  }
};

}  // namespace

void ValueNoise::fbm_grid(std::span<const double> xs,
                          std::span<const double> ys,
                          std::span<const double> zs, int octaves,
                          double persistence, std::span<double> out) const {
  const usize nx = xs.size(), ny = ys.size(), nz = zs.size();
  VIZ_REQUIRE(out.size() == nx * ny * nz, "fbm_grid output size mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  if (out.empty()) return;

  GridAxis ax, ay, az;
  std::vector<double> table;  // lattice values over the touched corners
  double amp = 1.0, freq = 1.0, norm = 0.0;
  for (int octave = 0; octave < octaves; ++octave) {
    ax.build(xs, freq);
    ay.build(ys, freq);
    az.build(zs, freq);
    const usize lx = ax.corners.size(), ly = ay.corners.size(),
                lz = az.corners.size();
    table.resize(lx * ly * lz);
    double* slot = table.data();
    for (const i64 cz : az.corners) {
      for (const i64 cy : ay.corners) {
        for (const i64 cx : ax.corners) *slot++ = lattice(cx, cy, cz);
      }
    }

    double* o = out.data();
    for (usize k = 0; k < nz; ++k) {
      const double tz = az.t[k];
      for (usize j = 0; j < ny; ++j) {
        const double ty = ay.t[j];
        // Rows of the four (y, z) corner pairs around point (., j, k).
        const double* r00 = table.data() + (az.cell[k] * ly + ay.cell[j]) * lx;
        const double* r10 = r00 + lx;
        const double* r01 = r00 + ly * lx;
        const double* r11 = r01 + lx;
        for (usize i = 0; i < nx; ++i, ++o) {
          const usize a = ax.cell[i];
          const double tx = ax.t[i];
          // noise()'s lerp order, then fbm()'s `sum += amp * noise`.
          const double c00 = lerp(r00[a], r00[a + 1], tx);
          const double c10 = lerp(r10[a], r10[a + 1], tx);
          const double c01 = lerp(r01[a], r01[a + 1], tx);
          const double c11 = lerp(r11[a], r11[a + 1], tx);
          *o += amp * lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
        }
      }
    }
    norm += amp;
    amp *= persistence;
    freq *= 2.0;
  }
  for (double& v : out) v = norm > 0.0 ? v / norm : 0.0;
}

}  // namespace vizcache
