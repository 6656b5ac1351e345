#pragma once

#include <functional>
#include <memory>
#include <span>

#include "geom/vec3.hpp"
#include "volume/field.hpp"
#include "volume/volume_desc.hpp"

namespace vizcache {

/// Analytic voxel function: value of `var` at `timestep` at a position in the
/// normalized [-1, 1]^3 frame. All synthetic datasets are defined this way so
/// blocks can be materialized lazily without holding the full volume.
using VoxelFunction =
    std::function<float(const Vec3& pos, usize var, usize timestep)>;

/// Block form of a VoxelFunction over the grid xs × ys × zs of normalized
/// coordinates, x fastest: out[(k * ys.size() + j) * xs.size() + i] must be
/// bit-identical to fn({xs[i], ys[j], zs[k]}, var, timestep). It lets a
/// generator share per-axis and per-lattice-cell work across a block.
using BlockFunction = std::function<void(
    std::span<const double> xs, std::span<const double> ys,
    std::span<const double> zs, usize var, usize timestep,
    std::span<float> out)>;

/// A procedurally-defined dataset: metadata, the voxel function, and an
/// optional block evaluator. `fn` is the point-query path and the oracle;
/// SyntheticBlockStore reads through `block_fn` when it is set.
struct SyntheticVolume {
  VolumeDesc desc;
  VoxelFunction fn;
  BlockFunction block_fn;
};

/// Normalized [-1, 1] coordinate of voxel `i` on an axis of `total` voxels
/// (0 on a one-voxel axis): the frame every voxel function is evaluated in.
double normalized_coordinate(usize i, usize total);

/// `3d_ball` (Table I): a 3D ball with continuous intensity changes inside —
/// a smooth radial falloff modulated by concentric shells. Has a block
/// evaluator built on ValueNoise::fbm_grid.
SyntheticVolume make_ball_volume(Dims3 dims, u64 seed = 7);

/// Combustion-like scalar field standing in for `lifted_mix_frac` /
/// `lifted_rr`: a lifted-jet mixture-fraction sheet (sigmoid across a
/// sheared jet boundary) with downstream-growing turbulence. Ambient regions
/// are near-constant (low entropy); the flame sheet has steep gradients
/// (high entropy) — the structure Observation 2 exploits.
SyntheticVolume make_flame_volume(const std::string& name, Dims3 dims,
                                  u64 seed = 11);

/// Climate-like multivariate, time-varying dataset standing in for the
/// paper's `climate` set: variable 0 ~ water-vapor mixing ratio (QVAPOR),
/// variable 1 ~ wind magnitude around a moving typhoon vortex, variable 2 ~
/// smoke/PM10 plume, variable 3 ~ temperature; further variables are
/// correlated mixtures of these plus noise, mirroring the 151-variable
/// correlation analytics of Fig. 3.
SyntheticVolume make_climate_volume(Dims3 dims, usize variables,
                                    usize timesteps, u64 seed = 13);

/// Plain fBm turbulence (uniformly high entropy everywhere) — adversarial
/// input for the importance heuristic, used in ablations.
SyntheticVolume make_turbulence_volume(Dims3 dims, u64 seed = 17);

/// Synthetic 3-component flow field (variables 0/1/2 = u/v/w): a vertical
/// vortex column plus an axial jet and mild turbulence — the velocity data
/// for the out-of-core streamline workload (paper Section II, Ueng et al.).
/// Velocities vanish smoothly toward the volume boundary so streamlines
/// terminate cleanly.
SyntheticVolume make_flow_volume(Dims3 dims, u64 seed = 29);

/// Materialize one variable/timestep of a synthetic volume as a dense field.
Field3D rasterize(const SyntheticVolume& vol, usize var = 0, usize timestep = 0);

}  // namespace vizcache
