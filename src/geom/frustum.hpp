#pragma once

#include "geom/aabb.hpp"
#include "geom/camera.hpp"

namespace vizcache {

/// Where a sphere lies relative to a view cone (hierarchical culling).
enum class ConeOverlap {
  kOutside,  ///< certainly disjoint from the cone
  kPartial,  ///< may straddle the cone's surface: run the exact test
  kInside,   ///< certainly inside the cone, by a margin
};

/// View-cone visibility test from the paper (Section IV-B, Eq. 1).
///
/// The frustum of a camera at v looking at the volume center o is modeled as
/// a cone with apex v, axis v->o, and full apex angle theta. A block b is
/// visible iff the angle phi between v->b_i and v->o is below theta/2 for
/// some corner b_i of b. We additionally treat a block as visible when the
/// camera is inside it or when the cone axis pierces it (which the corner
/// test alone can miss for blocks larger than the cone cross-section).
class ConeFrustum {
 public:
  explicit ConeFrustum(const Camera& camera);

  const Vec3& apex() const { return apex_; }
  const Vec3& axis() const { return axis_; }
  double half_angle_rad() const { return half_angle_; }

  /// Is point p inside the cone?
  bool contains_point(const Vec3& p) const;

  /// Paper Eq. 1 on the eight corners, plus robustness extensions.
  bool intersects_block(const AABB& block) const;

  /// Conservative, trig-free sphere classification for hierarchical culling
  /// (octree nodes, where a wrong verdict would drop or accept a whole
  /// subtree). kOutside and kInside are only returned with a small relative
  /// margin to spare, so every point of an kOutside sphere fails
  /// contains_point and every point of an kInside sphere passes it despite
  /// rounding; anything closer to the cone's surface is kPartial.
  ConeOverlap classify_sphere(const Vec3& center, double radius) const;

 private:
  Vec3 apex_;
  Vec3 axis_;       // unit vector toward the volume center
  double half_angle_;
  double cos_half_angle_;
  double sin_half_angle_;
};

}  // namespace vizcache
