#include "volume/block_grid.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace vizcache {

namespace {
usize ceil_div(usize a, usize b) { return (a + b - 1) / b; }
}

BlockGrid::BlockGrid(Dims3 volume_dims, Dims3 block_dims)
    : volume_dims_(volume_dims), block_dims_(block_dims) {
  VIZ_REQUIRE(volume_dims.voxels() > 0, "empty volume");
  VIZ_REQUIRE(block_dims.x > 0 && block_dims.y > 0 && block_dims.z > 0,
              "empty block dims");
  grid_dims_ = {ceil_div(volume_dims.x, block_dims.x),
                ceil_div(volume_dims.y, block_dims.y),
                ceil_div(volume_dims.z, block_dims.z)};
  const usize vd[3] = {volume_dims.x, volume_dims.y, volume_dims.z};
  const usize bd[3] = {block_dims.x, block_dims.y, block_dims.z};
  const usize gd[3] = {grid_dims_.x, grid_dims_.y, grid_dims_.z};
  faces_.reserve(gd[0] + gd[1] + gd[2] + 3);
  for (usize axis = 0; axis < 3; ++axis) {
    face_offset_[axis] = faces_.size();
    for (usize j = 0; j <= gd[axis]; ++j) {
      const usize v = std::min(j * bd[axis], vd[axis]);
      faces_.push_back(-1.0 + 2.0 * static_cast<double>(v) /
                                  static_cast<double>(vd[axis]));
    }
  }
}

BlockGrid BlockGrid::with_target_block_count(Dims3 volume_dims,
                                             usize target_blocks) {
  VIZ_REQUIRE(target_blocks >= 1, "target block count must be >=1");
  // Split each axis proportionally to its length so blocks are near-cubical:
  // n_axis ~ cbrt(target) * axis / cbrt(volume).
  double cbrt_t = std::cbrt(static_cast<double>(target_blocks));
  double cbrt_v = std::cbrt(static_cast<double>(volume_dims.voxels()));
  auto splits = [&](usize axis) {
    double n = cbrt_t * static_cast<double>(axis) / cbrt_v;
    return std::max<usize>(1, static_cast<usize>(std::llround(n)));
  };
  usize nx = std::min(splits(volume_dims.x), volume_dims.x);
  usize ny = std::min(splits(volume_dims.y), volume_dims.y);
  usize nz = std::min(splits(volume_dims.z), volume_dims.z);
  Dims3 block{ceil_div(volume_dims.x, nx), ceil_div(volume_dims.y, ny),
              ceil_div(volume_dims.z, nz)};
  return BlockGrid(volume_dims, block);
}

BlockCoord BlockGrid::coord_of(BlockId id) const {
  VIZ_REQUIRE(id < block_count(), "block id out of range");
  usize per_slab = grid_dims_.x * grid_dims_.y;
  return {id % grid_dims_.x, (id / grid_dims_.x) % grid_dims_.y,
          id / per_slab};
}

BlockId BlockGrid::id_of(const BlockCoord& c) const {
  VIZ_REQUIRE(c.bx < grid_dims_.x && c.by < grid_dims_.y && c.bz < grid_dims_.z,
              "block coord out of range");
  return static_cast<BlockId>((c.bz * grid_dims_.y + c.by) * grid_dims_.x +
                              c.bx);
}

Dims3 BlockGrid::block_voxel_origin(BlockId id) const {
  BlockCoord c = coord_of(id);
  return {c.bx * block_dims_.x, c.by * block_dims_.y, c.bz * block_dims_.z};
}

Dims3 BlockGrid::block_voxel_extent(BlockId id) const {
  Dims3 o = block_voxel_origin(id);
  return {std::min(block_dims_.x, volume_dims_.x - o.x),
          std::min(block_dims_.y, volume_dims_.y - o.y),
          std::min(block_dims_.z, volume_dims_.z - o.z)};
}

usize BlockGrid::block_voxels(BlockId id) const {
  return block_voxel_extent(id).voxels();
}

AABB BlockGrid::block_bounds(BlockId id) const {
  const BlockCoord c = coord_of(id);
  const double* fx = faces(0);
  const double* fy = faces(1);
  const double* fz = faces(2);
  return {{fx[c.bx], fy[c.by], fz[c.bz]},
          {fx[c.bx + 1], fy[c.by + 1], fz[c.bz + 1]}};
}

BlockId BlockGrid::block_at_normalized(const Vec3& p) const {
  if (p.x < -1.0 || p.x > 1.0 || p.y < -1.0 || p.y > 1.0 || p.z < -1.0 ||
      p.z > 1.0) {
    return kInvalidBlock;
  }
  auto voxel = [](double np, usize total) {
    auto v = static_cast<i64>((np + 1.0) * 0.5 * static_cast<double>(total));
    return static_cast<usize>(std::clamp<i64>(v, 0, static_cast<i64>(total) - 1));
  };
  usize vx = voxel(p.x, volume_dims_.x);
  usize vy = voxel(p.y, volume_dims_.y);
  usize vz = voxel(p.z, volume_dims_.z);
  return id_of({vx / block_dims_.x, vy / block_dims_.y, vz / block_dims_.z});
}

std::vector<BlockId> BlockGrid::all_blocks() const {
  std::vector<BlockId> out(block_count());
  for (usize i = 0; i < out.size(); ++i) out[i] = static_cast<BlockId>(i);
  return out;
}

}  // namespace vizcache
