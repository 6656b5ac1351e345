#pragma once

#include <memory>
#include <vector>

#include "volume/block_grid.hpp"
#include "volume/generators.hpp"

namespace vizcache {

/// Source of block payloads. This is the "slowest level" backing store the
/// memory-hierarchy simulator fetches from; implementations may hold data in
/// memory, generate it analytically on demand, or read bricks from disk.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual const BlockGrid& grid() const = 0;
  virtual const VolumeDesc& desc() const = 0;

  /// Payload of a block for (var, timestep); length == grid().block_voxels(id).
  virtual std::vector<float> read_block(BlockId id, usize var = 0,
                                        usize timestep = 0) const = 0;

  /// Bytes of a block payload.
  u64 block_bytes(BlockId id) const { return grid().block_bytes(id); }
};

/// Block store over a dense in-memory field (one variable, one timestep).
/// Blocks are pre-extracted at construction so reads are pure copies.
class MemoryBlockStore final : public BlockStore {
 public:
  MemoryBlockStore(const Field3D& field, Dims3 block_dims,
                   VolumeDesc desc = {});

  const BlockGrid& grid() const override { return grid_; }
  const VolumeDesc& desc() const override { return desc_; }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override;

 private:
  BlockGrid grid_;
  VolumeDesc desc_;
  std::vector<std::vector<float>> blocks_;
};

/// Block store that evaluates a SyntheticVolume lazily — supports the
/// paper's full-resolution datasets (e.g. 1024^3 3d_ball) without
/// materializing them. A read computes the block's per-axis normalized
/// coordinates once, then runs the volume's block evaluator when it has one
/// and its voxel function per voxel otherwise; the two give the same bytes.
/// Reads are deterministic and safe to run concurrently.
class SyntheticBlockStore final : public BlockStore {
 public:
  SyntheticBlockStore(SyntheticVolume volume, Dims3 block_dims);

  const BlockGrid& grid() const override { return grid_; }
  const VolumeDesc& desc() const override { return volume_.desc; }
  std::vector<float> read_block(BlockId id, usize var,
                                usize timestep) const override;

 private:
  SyntheticVolume volume_;
  BlockGrid grid_;
};

}  // namespace vizcache
