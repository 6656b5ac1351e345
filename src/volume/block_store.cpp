#include "volume/block_store.hpp"

#include <span>

#include "util/error.hpp"
#include "volume/blocker.hpp"

namespace vizcache {

MemoryBlockStore::MemoryBlockStore(const Field3D& field, Dims3 block_dims,
                                   VolumeDesc desc)
    : grid_(field.dims(), block_dims), desc_(std::move(desc)) {
  if (desc_.dims.voxels() == 0) {
    desc_.name = desc_.name.empty() ? "in-memory" : desc_.name;
    desc_.dims = field.dims();
    desc_.variables = 1;
    desc_.timesteps = 1;
  }
  blocks_.reserve(grid_.block_count());
  for (BlockId id = 0; id < grid_.block_count(); ++id) {
    blocks_.push_back(extract_block(field, grid_, id));
  }
}

std::vector<float> MemoryBlockStore::read_block(BlockId id, usize var,
                                                usize timestep) const {
  VIZ_REQUIRE(id < grid_.block_count(), "block id out of range");
  VIZ_REQUIRE(var == 0 && timestep == 0,
              "MemoryBlockStore holds a single variable/timestep");
  return blocks_[id];
}

SyntheticBlockStore::SyntheticBlockStore(SyntheticVolume volume,
                                         Dims3 block_dims)
    : volume_(std::move(volume)), grid_(volume_.desc.dims, block_dims) {}

std::vector<float> SyntheticBlockStore::read_block(BlockId id, usize var,
                                                   usize timestep) const {
  VIZ_REQUIRE(id < grid_.block_count(), "block id out of range");
  VIZ_REQUIRE(var < volume_.desc.variables, "variable out of range");
  VIZ_REQUIRE(timestep < volume_.desc.timesteps, "timestep out of range");
  const Dims3 o = grid_.block_voxel_origin(id);
  const Dims3 e = grid_.block_voxel_extent(id);
  const Dims3& vd = grid_.volume_dims();
  // The block's normalized coordinates, once per axis.
  std::vector<double> coords(e.x + e.y + e.z);
  const std::span<double> xs(coords.data(), e.x);
  const std::span<double> ys(coords.data() + e.x, e.y);
  const std::span<double> zs(coords.data() + e.x + e.y, e.z);
  for (usize i = 0; i < e.x; ++i) xs[i] = normalized_coordinate(o.x + i, vd.x);
  for (usize i = 0; i < e.y; ++i) ys[i] = normalized_coordinate(o.y + i, vd.y);
  for (usize i = 0; i < e.z; ++i) zs[i] = normalized_coordinate(o.z + i, vd.z);

  std::vector<float> out(e.voxels());
  if (volume_.block_fn) {
    volume_.block_fn(xs, ys, zs, var, timestep, out);
    return out;
  }
  usize v = 0;
  for (const double z : zs) {
    for (const double y : ys) {
      for (const double x : xs) out[v++] = volume_.fn({x, y, z}, var, timestep);
    }
  }
  return out;
}

}  // namespace vizcache
