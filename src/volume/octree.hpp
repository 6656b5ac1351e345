#pragma once

#include <span>
#include <vector>

#include "geom/frustum.hpp"
#include "volume/block_grid.hpp"
#include "volume/block_metadata.hpp"

namespace vizcache {

/// Min/max octree over a block grid — the hierarchical index of the
/// out-of-core literature the paper builds on (Ueng et al.'s octree
/// partition, Sutton & Hansen's branch-on-need T-BON, Section II). Interior
/// nodes carry the bounding box, a bounding sphere for conservative view
/// culling, and the min/max value interval of their subtree, so both
/// view-dependent (frustum) and data-dependent (value range) queries prune
/// whole subtrees instead of scanning every block.
///
/// Thread-safety: const-thread-safe. The tree is immutable after build(), so
/// any number of threads may query concurrently.
class BlockOctree {
 public:
  /// Build over `grid`; `metadata` (optional) supplies per-block min/max of
  /// variable `var` for range queries. Branch-on-need: child octants that
  /// contain no blocks are not allocated.
  static BlockOctree build(const BlockGrid& grid,
                           const BlockMetadataTable* metadata = nullptr,
                           usize var = 0);

  usize node_count() const { return nodes_.size(); }
  usize leaf_count() const { return leaf_blocks_.size(); }
  usize height() const { return height_; }

  /// Blocks whose AABB intersects the view cone; identical result to the
  /// exhaustive per-block ConeFrustum::intersects_block scan, ids ascending.
  /// Nodes whose bounding sphere lies inside the cone accept their whole
  /// subtree; leaves run the exact test only when their sphere is partial.
  /// `visits` (optional) receives the number of nodes visited (diagnostics:
  /// the pruning factor vs a block_count scan).
  std::vector<BlockId> query_frustum(const ConeFrustum& frustum,
                                     usize* visits = nullptr) const;

  /// Same set as query_frustum, written as mask[id] = 1 (mask sized to the
  /// block count; other entries are left untouched).
  void mark_frustum(const ConeFrustum& frustum, std::span<u8> mask) const;

  /// Blocks intersecting the cone whose value interval intersects
  /// [lo, hi]. Requires metadata at build time.
  std::vector<BlockId> query_frustum_range(const ConeFrustum& frustum,
                                           float lo, float hi) const;

  /// Blocks whose value interval intersects [lo, hi] (no view test);
  /// `visits` as in query_frustum.
  std::vector<BlockId> query_range(float lo, float hi,
                                   usize* visits = nullptr) const;

 private:
  struct Node {
    AABB bounds;
    Vec3 sphere_center;
    double sphere_radius = 0.0;
    float min_value = 0.0f;
    float max_value = 0.0f;
    i64 children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    /// The subtree's blocks are leaf_blocks_[leaf_begin, leaf_end).
    usize leaf_begin = 0;
    usize leaf_end = 0;
    bool leaf = false;
  };

  i64 build_node(const BlockGrid& grid, const BlockMetadataTable* metadata,
                 usize var, usize x0, usize y0, usize z0, usize x1, usize y1,
                 usize z1, usize depth);

  template <typename Classify, typename Emit>
  void traverse(i64 node, const Classify& classify, const Emit& emit,
                usize& visits) const;

  template <typename Classify>
  std::vector<BlockId> collect(const Classify& classify, usize* visits) const;

  std::vector<Node> nodes_;
  std::vector<BlockId> leaf_blocks_;  ///< blocks in depth-first leaf order
  bool has_values_ = false;
  usize height_ = 0;
};

}  // namespace vizcache
