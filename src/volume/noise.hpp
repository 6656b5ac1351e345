#pragma once

#include <span>

#include "util/types.hpp"

namespace vizcache {

/// Deterministic lattice value-noise used by the synthetic dataset
/// generators. Smooth, seeded, and cheap enough to evaluate per voxel on
/// demand (the SyntheticBlockStore materializes blocks lazily from it).
class ValueNoise {
 public:
  explicit ValueNoise(u64 seed = 1234) : seed_(seed) {}

  /// Smooth noise in [0, 1] at a continuous 3D position.
  double noise(double x, double y, double z) const;

  /// Fractional Brownian motion: `octaves` layers of noise with lacunarity 2
  /// and the given persistence (gain). Output approximately in [0, 1].
  double fbm(double x, double y, double z, int octaves = 4,
             double persistence = 0.5) const;

  /// fbm() at every point of the grid xs × ys × zs, x fastest:
  /// out[(k * ys.size() + j) * xs.size() + i] == fbm(xs[i], ys[j], zs[k],
  /// octaves, persistence), bit for bit. Per octave each axis's floor and
  /// smoothstep are computed once and each lattice corner the grid touches
  /// is hashed once; per point the lerps and the octave sum run in fbm()'s
  /// order. Scratch is per call (at most 8 corners per output point), so
  /// concurrent calls are safe. out.size() must equal the grid's size.
  void fbm_grid(std::span<const double> xs, std::span<const double> ys,
                std::span<const double> zs, int octaves, double persistence,
                std::span<double> out) const;

 private:
  /// Hash of an integer lattice point to [0, 1].
  double lattice(i64 x, i64 y, i64 z) const;

  u64 seed_;
};

}  // namespace vizcache
