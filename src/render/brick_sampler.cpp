#include "render/brick_sampler.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

ResidentBrickSet::ResidentBrickSet(const BlockGrid& grid)
    : grid_(grid),
      slot_floats_(grid.block_dims().voxels()),
      slot_of_(grid.block_count(), kNoSlot),
      views_(grid.block_count()) {}

void ResidentBrickSet::grow_to(usize slots) {
  // One trailing pad float: the packet raycaster reads voxel pairs
  // [i, i+1], and in a brick one voxel wide i can be a slot's last float.
  const usize floats = slots * slot_floats_ + 1;
  VIZ_CHECK(floats <= static_cast<usize>(std::numeric_limits<i32>::max()),
            "brick arena exceeds the int32 index range");
  arena_.resize(floats);
  for (usize id = 0; id < views_.size(); ++id) {
    if (slot_of_[id] != kNoSlot) {
      views_[id].data = arena_.data() + slot_of_[id] * slot_floats_;
    }
  }
}

u32 ResidentBrickSet::acquire_slot(BlockId id) {
  if (slot_of_[id] != kNoSlot) return slot_of_[id];
  if (!free_slots_.empty()) {
    const u32 slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_used_ == slot_capacity()) {
    grow_to(std::min(std::max<usize>(2 * slot_capacity(), 16),
                     grid_.block_count()));
  }
  return slots_used_++;
}

void ResidentBrickSet::load(const BlockStore& store, BlockId id, usize var,
                            usize timestep) {
  VIZ_REQUIRE(id < views_.size(), "block id out of range");
  const std::vector<float> payload = store.read_block(id, var, timestep);
  VIZ_CHECK(payload.size() == grid_.block_voxels(id),
            "block payload size does not match grid");
  const u32 slot = acquire_slot(id);
  if (slot_of_[id] == kNoSlot) ++resident_count_;
  slot_of_[id] = slot;
  float* data = arena_.data() + slot * slot_floats_;
  std::copy(payload.begin(), payload.end(), data);
  const Dims3 o = grid_.block_voxel_origin(id);
  const Dims3 e = grid_.block_voxel_extent(id);
  views_[id] = {data, o.x, o.y, o.z, e.x, e.y, e.z};
}

void ResidentBrickSet::load_all(const BlockStore& store, usize var,
                                usize timestep) {
  if (slot_capacity() < grid_.block_count()) grow_to(grid_.block_count());
  for (usize id = 0; id < grid_.block_count(); ++id) {
    load(store, static_cast<BlockId>(id), var, timestep);
  }
}

void ResidentBrickSet::evict(BlockId id) {
  VIZ_REQUIRE(id < views_.size(), "block id out of range");
  if (slot_of_[id] == kNoSlot) return;
  free_slots_.push_back(slot_of_[id]);
  slot_of_[id] = kNoSlot;
  views_[id] = BrickView{};
  --resident_count_;
}

bool ResidentBrickSet::resident(BlockId id) const {
  VIZ_REQUIRE(id < views_.size(), "block id out of range");
  return slot_of_[id] != kNoSlot;
}

std::function<std::optional<float>(const Vec3&)> make_reference_sampler(
    const BrickSampler& bricks) {
  const BrickSampler* src = &bricks;
  return [src](const Vec3& p) -> std::optional<float> {
    const BlockGrid& grid = src->grid();
    BlockId id = grid.block_at_normalized(p);
    if (id == kInvalidBlock) return std::nullopt;
    BrickView view = src->brick(id);
    if (!view.resident()) return std::nullopt;
    return sample_brick_trilinear(grid.volume_dims(), view, p);
  };
}

}  // namespace vizcache
