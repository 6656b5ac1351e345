#include "core/visibility.hpp"

namespace vizcache {

BlockBoundsIndex::BlockBoundsIndex(const BlockGrid& grid)
    : octree_(BlockOctree::build(grid)) {
  bounds_.reserve(grid.block_count());
  for (BlockId id = 0; id < grid.block_count(); ++id) {
    bounds_.push_back(grid.block_bounds(id));
  }
}

std::vector<BlockId> BlockBoundsIndex::visible_blocks(
    const Camera& camera) const {
  // Hierarchical cull; exact leaf test inside — identical output to the
  // exhaustive scan over bounds_.
  return octree_.query_frustum(ConeFrustum(camera));
}

void BlockBoundsIndex::mark_visible(const Camera& camera,
                                    std::vector<u8>& mask) const {
  octree_.mark_frustum(ConeFrustum(camera), mask);
}

std::vector<BlockId> compute_visible_blocks(const Camera& camera,
                                            const BlockGrid& grid) {
  return BlockBoundsIndex(grid).visible_blocks(camera);
}

}  // namespace vizcache
