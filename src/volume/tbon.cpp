#include "volume/tbon.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace vizcache {

TemporalOctree TemporalOctree::build(const BlockGrid& grid,
                                     const BlockStore& store, usize var) {
  VIZ_REQUIRE(store.grid().block_count() == grid.block_count(),
              "store/grid block count mismatch");
  TemporalOctree tree;
  const Dims3& g = grid.grid_dims();
  tree.nodes_.reserve(grid.block_count() * 2);
  tree.build_node(grid, 0, 0, 0, g.x, g.y, g.z);

  const usize timesteps = store.desc().timesteps;
  tree.values_.resize(timesteps);
  for (usize t = 0; t < timesteps; ++t) {
    BlockMetadataTable metadata = BlockMetadataTable::build(store, var + 1, t);
    tree.values_[t].resize(tree.nodes_.size());
    tree.fill_values(metadata, var, tree.values_[t]);
  }
  return tree;
}

i64 TemporalOctree::build_node(const BlockGrid& grid, usize x0, usize y0,
                               usize z0, usize x1, usize y1, usize z1) {
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return -1;

  const i64 index = static_cast<i64>(nodes_.size());
  nodes_.emplace_back();

  if (x1 - x0 == 1 && y1 - y0 == 1 && z1 - z0 == 1) {
    Node& leaf = nodes_.back();
    leaf.leaf = true;
    leaf.block = grid.id_of({x0, y0, z0});
    leaf.bounds = grid.block_bounds(leaf.block);
    leaf.sphere_center = leaf.bounds.center();
    leaf.sphere_radius = leaf.bounds.diagonal() * 0.5;
    ++leaves_;
    return index;
  }

  usize xm = x1 - x0 == 1 ? x1 : x0 + std::max<usize>(1, (x1 - x0) / 2);
  usize ym = y1 - y0 == 1 ? y1 : y0 + std::max<usize>(1, (y1 - y0) / 2);
  usize zm = z1 - z0 == 1 ? z1 : z0 + std::max<usize>(1, (z1 - z0) / 2);
  const usize xs[3] = {x0, xm, x1};
  const usize ys[3] = {y0, ym, y1};
  const usize zs[3] = {z0, zm, z1};

  AABB bounds;
  bool first = true;
  usize slot = 0;
  for (usize cz = 0; cz < 2; ++cz) {
    for (usize cy = 0; cy < 2; ++cy) {
      for (usize cx = 0; cx < 2; ++cx) {
        i64 child = build_node(grid, xs[cx], ys[cy], zs[cz], xs[cx + 1],
                               ys[cy + 1], zs[cz + 1]);
        nodes_[static_cast<usize>(index)].children[slot++] = child;
        if (child >= 0) {
          const AABB& cb = nodes_[static_cast<usize>(child)].bounds;
          bounds = first ? cb : bounds.united(cb);
          first = false;
        }
      }
    }
  }
  VIZ_CHECK(!first, "interior T-BON node without children");
  Node& node = nodes_[static_cast<usize>(index)];
  node.bounds = bounds;
  node.sphere_center = bounds.center();
  node.sphere_radius = bounds.diagonal() * 0.5;
  return index;
}

void TemporalOctree::fill_values(const BlockMetadataTable& metadata, usize var,
                                 std::vector<MinMax>& out) const {
  // Children always have larger indices than their parent (pre-order
  // allocation), so a reverse sweep is bottom-up.
  for (usize i = nodes_.size(); i-- > 0;) {
    const Node& n = nodes_[i];
    if (n.leaf) {
      const auto& e = metadata.entry(n.block, var);
      out[i] = {e.min, e.max};
      continue;
    }
    float mn = std::numeric_limits<float>::infinity();
    float mx = -std::numeric_limits<float>::infinity();
    for (i64 child : n.children) {
      if (child < 0) continue;
      mn = std::min(mn, out[static_cast<usize>(child)].min);
      mx = std::max(mx, out[static_cast<usize>(child)].max);
    }
    out[i] = {mn, mx};
  }
}

template <typename NodeFilter>
void TemporalOctree::traverse(i64 node, const std::vector<MinMax>& values,
                              float lo, float hi, const NodeFilter& extra,
                              std::vector<BlockId>& out) const {
  if (node < 0) return;
  const usize i = static_cast<usize>(node);
  const Node& n = nodes_[i];
  if (values[i].min > hi || values[i].max < lo) return;
  if (!extra(n)) return;
  if (n.leaf) {
    out.push_back(n.block);
    return;
  }
  for (i64 child : n.children) traverse(child, values, lo, hi, extra, out);
}

std::vector<BlockId> TemporalOctree::query_range(usize timestep, float lo,
                                                 float hi) const {
  VIZ_REQUIRE(timestep < values_.size(), "timestep out of range");
  VIZ_REQUIRE(lo <= hi, "inverted value range");
  std::vector<BlockId> out;
  if (nodes_.empty()) return out;
  traverse(0, values_[timestep], lo, hi, [](const Node&) { return true; },
           out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockId> TemporalOctree::query_frustum_range(
    usize timestep, const ConeFrustum& frustum, float lo, float hi) const {
  VIZ_REQUIRE(timestep < values_.size(), "timestep out of range");
  VIZ_REQUIRE(lo <= hi, "inverted value range");
  std::vector<BlockId> out;
  if (nodes_.empty()) return out;
  auto view_ok = [&](const Node& n) {
    if (n.leaf) return frustum.intersects_block(n.bounds);
    return frustum.classify_sphere(n.sphere_center, n.sphere_radius) !=
           ConeOverlap::kOutside;
  };
  traverse(0, values_[timestep], lo, hi, view_ok, out);
  std::sort(out.begin(), out.end());
  return out;
}

u64 TemporalOctree::value_bytes_per_timestep() const {
  return nodes_.size() * sizeof(MinMax);
}

u64 TemporalOctree::topology_bytes() const {
  return nodes_.size() * sizeof(Node);
}

}  // namespace vizcache
