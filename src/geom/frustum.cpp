#include "geom/frustum.hpp"

#include <cmath>

namespace vizcache {

ConeFrustum::ConeFrustum(const Camera& camera)
    : apex_(camera.position()),
      axis_(camera.view_direction()),
      half_angle_(camera.view_angle_rad() * 0.5),
      cos_half_angle_(std::cos(half_angle_)),
      sin_half_angle_(std::sin(half_angle_)) {}

bool ConeFrustum::contains_point(const Vec3& p) const {
  Vec3 to_p = p - apex_;
  double n = to_p.norm();
  if (n == 0.0) return true;  // the apex itself
  return to_p.dot(axis_) >= cos_half_angle_ * n;
}

ConeOverlap ConeFrustum::classify_sphere(const Vec3& center,
                                         double radius) const {
  // Work in the half-plane through the axis and the center: t is the
  // center's axial coordinate and h its distance from the axis. There the
  // cone is the wedge within half_angle_ of the axis, and s = h cos - t sin
  // is the signed distance from the center to the wedge's edge line
  // (positive outside). The whole cone lies on the inner side of that line,
  // and no inner point is nearer the line than the cone's surface, so
  // |s| >= radius settles the verdict either way.
  const Vec3 to_c = center - apex_;
  const double t = to_c.dot(axis_);
  const double h = to_c.cross(axis_).norm();
  const double s = h * cos_half_angle_ - t * sin_half_angle_;
  // Rounding in contains_point is ~1e-16 relative to the distances here;
  // 1e-9 keeps every verdict that is not kPartial far clear of it.
  const double reach = radius + 1e-9 * (std::abs(t) + h + radius);
  if (s > reach) return ConeOverlap::kOutside;
  if (-s >= reach) return ConeOverlap::kInside;
  // When the center's foot on the edge line falls behind the apex, the
  // cone's nearest point is the apex itself.
  if (t * cos_half_angle_ + h * sin_half_angle_ < 0.0 &&
      t * t + h * h > reach * reach) {
    return ConeOverlap::kOutside;
  }
  return ConeOverlap::kPartial;
}

bool ConeFrustum::intersects_block(const AABB& block) const {
  // Camera inside the block: everything around the apex is "visible".
  if (block.contains(apex_)) return true;

  // Eq. 1: any of the eight corners within the view cone.
  for (const Vec3& c : block.corners()) {
    if (contains_point(c)) return true;
  }

  // Robustness: the cone axis may pierce a face without any corner being
  // inside the cone (blocks wider than the local cone cross-section). Test
  // the point of the block closest to the axis ray.
  Vec3 closest = block.clamp_point(apex_);
  if (contains_point(closest)) return true;
  // March a few points along the axis and test their block-clamped images.
  double reach = (block.center() - apex_).norm() + block.diagonal();
  for (int i = 1; i <= 4; ++i) {
    Vec3 p = apex_ + axis_ * (reach * static_cast<double>(i) / 4.0);
    if (contains_point(block.clamp_point(p))) return true;
  }
  return false;
}

}  // namespace vizcache
