#include "geom/frustum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/spherical.hpp"
#include "util/rng.hpp"

namespace vizcache {
namespace {

TEST(ConeFrustum, ContainsPointsOnAxis) {
  Camera cam({3, 0, 0}, 30.0);
  ConeFrustum f(cam);
  EXPECT_TRUE(f.contains_point({0, 0, 0}));       // the look-at center
  EXPECT_TRUE(f.contains_point({1, 0, 0}));
  EXPECT_TRUE(f.contains_point({-1, 0, 0}));
  EXPECT_TRUE(f.contains_point(cam.position()));  // apex
}

TEST(ConeFrustum, RejectsPointsBehindCamera) {
  Camera cam({3, 0, 0}, 30.0);
  ConeFrustum f(cam);
  EXPECT_FALSE(f.contains_point({5, 0, 0}));
  EXPECT_FALSE(f.contains_point({4, 1, 1}));
}

TEST(ConeFrustum, RejectsPointsOutsideCone) {
  Camera cam({3, 0, 0}, 30.0);  // half-angle 15 degrees
  ConeFrustum f(cam);
  // Point perpendicular to the view axis at the center's distance.
  EXPECT_FALSE(f.contains_point({0, 3, 0}));
}

TEST(ConeFrustum, HalfAngleBoundaryIsSharp) {
  Camera cam({2, 0, 0}, 40.0);  // half-angle 20 deg
  ConeFrustum f(cam);
  // A point 19.9 deg off axis is inside; 20.1 deg is out.
  auto off_axis_point = [&](double deg) {
    double rad = deg_to_rad(deg);
    // From apex (2,0,0) looking toward -x: direction rotated by `rad`.
    Vec3 dir{-std::cos(rad), std::sin(rad), 0.0};
    return cam.position() + dir * 2.0;
  };
  EXPECT_TRUE(f.contains_point(off_axis_point(19.9)));
  EXPECT_FALSE(f.contains_point(off_axis_point(20.1)));
}

TEST(ConeFrustum, BlockAtCenterAlwaysVisible) {
  Rng rng(3);
  AABB central({-0.1, -0.1, -0.1}, {0.1, 0.1, 0.1});
  for (int i = 0; i < 100; ++i) {
    Spherical s{rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.28), rng.uniform(2.0, 4.0)};
    Camera cam(spherical_to_cartesian(s), 10.0);
    EXPECT_TRUE(ConeFrustum(cam).intersects_block(central));
  }
}

TEST(ConeFrustum, BlockBehindCameraInvisible) {
  Camera cam({3, 0, 0}, 30.0);
  ConeFrustum f(cam);
  AABB behind({3.5, -0.1, -0.1}, {3.7, 0.1, 0.1});
  EXPECT_FALSE(f.intersects_block(behind));
}

TEST(ConeFrustum, OffAxisBlockInvisibleForNarrowCone) {
  Camera cam({3, 0, 0}, 10.0);
  ConeFrustum f(cam);
  AABB corner_block({0.8, 0.8, 0.8}, {1.0, 1.0, 1.0});
  EXPECT_FALSE(f.intersects_block(corner_block));
}

TEST(ConeFrustum, WideConeSeesCornerBlock) {
  Camera cam({3, 0, 0}, 90.0);
  ConeFrustum f(cam);
  AABB corner_block({0.8, 0.8, 0.8}, {1.0, 1.0, 1.0});
  EXPECT_TRUE(f.intersects_block(corner_block));
}

TEST(ConeFrustum, CameraInsideBlockVisible) {
  Camera cam({0.05, 0.05, 0.05}, 20.0);
  ConeFrustum f(cam);
  AABB block({-0.1, -0.1, -0.1}, {0.1, 0.1, 0.1});
  EXPECT_TRUE(f.intersects_block(block));
}

TEST(ConeFrustum, BlockWiderThanConeCrossSectionDetected) {
  // A thin narrow cone piercing the middle of a huge block whose corners
  // all lie outside the cone: the corner test alone would miss it.
  Camera cam({5, 0, 0}, 2.0);
  ConeFrustum f(cam);
  AABB slab({-0.2, -2.0, -2.0}, {0.2, 2.0, 2.0});
  EXPECT_TRUE(f.intersects_block(slab));
}

TEST(ConeFrustum, VisibilityMonotonicInViewAngle) {
  // Anything visible in a narrow cone is visible in a wider one.
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    Vec3 pos = direction_from_angles(rng.uniform(0.1, 3.0),
                                     rng.uniform(0.0, 6.28)) *
               rng.uniform(2.0, 4.0);
    Vec3 lo{rng.uniform(-1.0, 0.8), rng.uniform(-1.0, 0.8), rng.uniform(-1.0, 0.8)};
    AABB block(lo, lo + Vec3{0.2, 0.2, 0.2});
    ConeFrustum narrow(Camera(pos, 10.0));
    ConeFrustum wide(Camera(pos, 40.0));
    if (narrow.intersects_block(block)) {
      EXPECT_TRUE(wide.intersects_block(block));
    }
  }
}

TEST(ConeFrustumSphere, ClassifiesObviousCases) {
  Camera cam({3, 0, 0}, 30.0);  // looks down -x, half-angle 15 degrees
  ConeFrustum f(cam);
  EXPECT_EQ(f.classify_sphere({0, 0, 0}, 0.1), ConeOverlap::kInside);
  EXPECT_EQ(f.classify_sphere({0, 0, 0}, 1.0), ConeOverlap::kPartial);
  EXPECT_EQ(f.classify_sphere({0, 3, 0}, 0.5), ConeOverlap::kOutside);
  EXPECT_EQ(f.classify_sphere({5, 0, 0}, 0.5), ConeOverlap::kOutside);  // behind
  EXPECT_EQ(f.classify_sphere({3, 0, 0}, 0.1), ConeOverlap::kPartial);  // apex
}

// A sphere near the cone's surface: its center sits a few degrees either
// side of the half-angle (or anywhere up to straight behind the apex), and
// its radius makes it nearly tangent to the surface.
struct NearSurfaceSphere {
  Vec3 center;
  double radius;
};

NearSurfaceSphere near_surface_sphere(const ConeFrustum& f, Rng& rng) {
  const Vec3 u = f.axis();
  const Vec3 side = (std::abs(u.x) < 0.9 ? Vec3{1, 0, 0} : Vec3{0, 1, 0})
                        .cross(u)
                        .normalized();
  const Vec3 up = u.cross(side);
  const double spin = rng.uniform(0.0, 6.283185307179586);
  const Vec3 radial = side * std::cos(spin) + up * std::sin(spin);
  const double beta =
      rng.next_double() < 0.8
          ? f.half_angle_rad() + rng.uniform(-0.3, 0.3)
          : rng.uniform(0.0, 3.141592653589793);
  const double d = rng.uniform(0.05, 5.0);
  const Vec3 center =
      f.apex() + (u * std::cos(beta) + radial * std::sin(beta)) * d;
  // Angular gap to the surface, then a radius within a few percent of
  // tangency (or an arbitrary one now and then).
  const double gap = std::abs(beta - f.half_angle_rad());
  double radius = d * std::sin(std::min(gap, 1.5)) * rng.uniform(0.95, 1.05);
  if (rng.next_double() < 0.2) radius = rng.uniform(0.0, 2.0 * d);
  return {center, radius};
}

TEST(ConeFrustumSphere, VerdictsHoldForEveryPointOfTheSphere) {
  // Property: kOutside never for a sphere holding a point inside the cone,
  // kInside never for one holding a point outside it. Points are drawn on
  // the sphere's surface (where the extremes are) and inside it.
  Rng rng(77);
  usize outside = 0;
  usize inside = 0;
  for (int i = 0; i < 4000; ++i) {
    const Vec3 apex = direction_from_angles(rng.uniform(0.05, 3.09),
                                            rng.uniform(0.0, 6.28)) *
                      rng.uniform(0.0, 4.0);
    const ConeFrustum f(Camera(apex, rng.uniform(1.0, 120.0)));
    const NearSurfaceSphere s = near_surface_sphere(f, rng);
    const ConeOverlap c = f.classify_sphere(s.center, s.radius);
    if (c == ConeOverlap::kPartial) continue;
    (c == ConeOverlap::kOutside ? outside : inside) += 1;
    for (int k = 0; k < 200; ++k) {
      const Vec3 dir = direction_from_angles(rng.uniform(0.0, 3.14159),
                                             rng.uniform(0.0, 6.28318));
      const double scale = k % 2 == 0 ? 1.0 : std::cbrt(rng.next_double());
      const Vec3 p = s.center + dir * (s.radius * scale);
      if (c == ConeOverlap::kOutside) {
        ASSERT_FALSE(f.contains_point(p)) << "sphere " << i << " point " << k;
      } else {
        ASSERT_TRUE(f.contains_point(p)) << "sphere " << i << " point " << k;
      }
    }
  }
  // The generator must actually exercise both definite verdicts.
  EXPECT_GT(outside, 500u);
  EXPECT_GT(inside, 500u);
}

TEST(ConeFrustumSphere, TangentSpheresAreNeverDefinite) {
  // Spheres exactly tangent to the surface (from either side) touch it, so
  // only kPartial is a safe verdict.
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const ConeFrustum f(Camera(
        direction_from_angles(rng.uniform(0.05, 3.09), rng.uniform(0.0, 6.28)) *
            rng.uniform(1.0, 4.0),
        rng.uniform(2.0, 90.0)));
    const double alpha = f.half_angle_rad();
    const double off = rng.uniform(-0.5, 0.5) * alpha;
    const double d = rng.uniform(0.5, 4.0);
    const Vec3 u = f.axis();
    const Vec3 side =
        (std::abs(u.x) < 0.9 ? Vec3{1, 0, 0} : Vec3{0, 1, 0}).cross(u).normalized();
    const double beta = alpha + off;
    const Vec3 center = f.apex() + (u * std::cos(beta) + side * std::sin(beta)) * d;
    EXPECT_EQ(f.classify_sphere(center, d * std::sin(std::abs(off))),
              ConeOverlap::kPartial)
        << "sphere " << i;
  }
}

}  // namespace
}  // namespace vizcache
