#include "volume/octree.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

BlockOctree BlockOctree::build(const BlockGrid& grid,
                               const BlockMetadataTable* metadata, usize var) {
  if (metadata) {
    VIZ_REQUIRE(metadata->block_count() == grid.block_count(),
                "metadata/grid block count mismatch");
    VIZ_REQUIRE(var < metadata->variable_count(), "variable out of range");
  }
  BlockOctree tree;
  tree.has_values_ = metadata != nullptr;
  const Dims3& g = grid.grid_dims();
  tree.nodes_.reserve(grid.block_count() * 2);
  tree.leaf_blocks_.reserve(grid.block_count());
  tree.build_node(grid, metadata, var, 0, 0, 0, g.x, g.y, g.z, 1);
  return tree;
}

i64 BlockOctree::build_node(const BlockGrid& grid,
                            const BlockMetadataTable* metadata, usize var,
                            usize x0, usize y0, usize z0, usize x1, usize y1,
                            usize z1, usize depth) {
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return -1;  // empty octant
  height_ = std::max(height_, depth);

  const i64 index = static_cast<i64>(nodes_.size());
  nodes_.emplace_back();

  const usize leaf_begin = leaf_blocks_.size();
  nodes_.back().leaf_begin = leaf_begin;

  if (x1 - x0 == 1 && y1 - y0 == 1 && z1 - z0 == 1) {
    const BlockId block = grid.id_of({x0, y0, z0});
    leaf_blocks_.push_back(block);
    Node& leaf = nodes_.back();
    leaf.leaf = true;
    leaf.leaf_end = leaf_blocks_.size();
    leaf.bounds = grid.block_bounds(block);
    leaf.sphere_center = leaf.bounds.center();
    leaf.sphere_radius = leaf.bounds.diagonal() * 0.5;
    if (metadata) {
      const auto& e = metadata->entry(block, var);
      leaf.min_value = e.min;
      leaf.max_value = e.max;
    }
    return index;
  }

  // Split each axis at its midpoint (branch-on-need: degenerate halves
  // simply produce no child).
  usize xm = x0 + std::max<usize>(1, (x1 - x0) / 2);
  usize ym = y0 + std::max<usize>(1, (y1 - y0) / 2);
  usize zm = z0 + std::max<usize>(1, (z1 - z0) / 2);
  if (x1 - x0 == 1) xm = x1;
  if (y1 - y0 == 1) ym = y1;
  if (z1 - z0 == 1) zm = z1;

  const usize xs[3] = {x0, xm, x1};
  const usize ys[3] = {y0, ym, y1};
  const usize zs[3] = {z0, zm, z1};

  AABB bounds;
  bool first = true;
  float mn = std::numeric_limits<float>::infinity();
  float mx = -std::numeric_limits<float>::infinity();
  usize child_slot = 0;
  for (usize cz = 0; cz < 2; ++cz) {
    for (usize cy = 0; cy < 2; ++cy) {
      for (usize cx = 0; cx < 2; ++cx) {
        i64 child = build_node(grid, metadata, var, xs[cx], ys[cy], zs[cz],
                               xs[cx + 1], ys[cy + 1], zs[cz + 1], depth + 1);
        nodes_[static_cast<usize>(index)].children[child_slot++] = child;
        if (child >= 0) {
          const Node& c = nodes_[static_cast<usize>(child)];
          bounds = first ? c.bounds : bounds.united(c.bounds);
          first = false;
          mn = std::min(mn, c.min_value);
          mx = std::max(mx, c.max_value);
        }
      }
    }
  }
  VIZ_CHECK(!first, "interior octree node without children");

  Node& node = nodes_[static_cast<usize>(index)];
  node.leaf_end = leaf_blocks_.size();
  node.bounds = bounds;
  node.sphere_center = bounds.center();
  node.sphere_radius = bounds.diagonal() * 0.5;
  node.min_value = mn;
  node.max_value = mx;
  return index;
}

// `classify` gives a node's verdict; for a leaf it must be final (kInside
// or kOutside). An interior kInside node emits its subtree's blocks without
// visiting the subtree.
template <typename Classify, typename Emit>
void BlockOctree::traverse(i64 node, const Classify& classify,
                           const Emit& emit, usize& visits) const {
  if (node < 0) return;
  ++visits;
  const Node& n = nodes_[static_cast<usize>(node)];
  switch (classify(n)) {
    case ConeOverlap::kOutside:
      return;
    case ConeOverlap::kInside:
      for (usize i = n.leaf_begin; i < n.leaf_end; ++i) emit(leaf_blocks_[i]);
      return;
    case ConeOverlap::kPartial:
      break;
  }
  VIZ_CHECK(!n.leaf, "octree leaf classified as partial");
  for (i64 child : n.children) traverse(child, classify, emit, visits);
}

template <typename Classify>
std::vector<BlockId> BlockOctree::collect(const Classify& classify,
                                          usize* visits) const {
  std::vector<BlockId> out;
  usize count = 0;
  if (!nodes_.empty()) {
    // analyze: allow(hot-path-alloc): the collector grows once per visible
    // block per query (not per pixel); the caller owns sizing and
    // amortization of the returned set.
    traverse(0, classify, [&out](BlockId id) { out.push_back(id); }, count);
  }
  if (visits) *visits = count;
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// The view verdict of a node; a partial leaf falls back to the exact
// per-block test, so the query matches the exhaustive scan bit for bit.
template <typename Node>
ConeOverlap view_overlap(const ConeFrustum& frustum, const Node& n) {
  const ConeOverlap c = frustum.classify_sphere(n.sphere_center, n.sphere_radius);
  if (!n.leaf || c != ConeOverlap::kPartial) return c;
  return frustum.intersects_block(n.bounds) ? ConeOverlap::kInside
                                            : ConeOverlap::kOutside;
}

}  // namespace

std::vector<BlockId> BlockOctree::query_frustum(const ConeFrustum& frustum,
                                                usize* visits) const {
  return collect([&](const Node& n) { return view_overlap(frustum, n); },
                 visits);
}

void BlockOctree::mark_frustum(const ConeFrustum& frustum,
                               std::span<u8> mask) const {
  VIZ_REQUIRE(mask.size() == leaf_blocks_.size(), "mask size mismatch");
  usize visits = 0;
  if (!nodes_.empty()) {
    traverse(0, [&](const Node& n) { return view_overlap(frustum, n); },
             [mask](BlockId id) { mask[id] = 1; }, visits);
  }
}

std::vector<BlockId> BlockOctree::query_frustum_range(
    const ConeFrustum& frustum, float lo, float hi) const {
  VIZ_REQUIRE(has_values_, "octree built without metadata");
  VIZ_REQUIRE(lo <= hi, "inverted value range");
  return collect(
      [&](const Node& n) {
        if (n.min_value > hi || n.max_value < lo) return ConeOverlap::kOutside;
        // A subtree inside the cone may still hold out-of-range blocks, so
        // only leaves accept.
        const ConeOverlap view = view_overlap(frustum, n);
        return n.leaf || view == ConeOverlap::kOutside ? view
                                                       : ConeOverlap::kPartial;
      },
      nullptr);
}

std::vector<BlockId> BlockOctree::query_range(float lo, float hi,
                                              usize* visits) const {
  VIZ_REQUIRE(has_values_, "octree built without metadata");
  VIZ_REQUIRE(lo <= hi, "inverted value range");
  return collect(
      [&](const Node& n) {
        if (n.min_value > hi || n.max_value < lo) return ConeOverlap::kOutside;
        return n.leaf ? ConeOverlap::kInside : ConeOverlap::kPartial;
      },
      visits);
}

}  // namespace vizcache
