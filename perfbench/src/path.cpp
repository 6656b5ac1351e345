#include "path.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace vizcache::perfbench {

namespace {

constexpr usize kStops = 48;     ///< tour stops spread over the sphere
constexpr usize kLegSteps = 6;   ///< random-walk steps at each stop

Vec3 random_unit(Rng& rng) {
  for (;;) {
    const Vec3 v{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double n = v.norm();
    if (n > 1e-3 && n <= 1.0) return v / n;
  }
}

/// `n` evenly spread directions under a seeded rotation, ordered as a
/// greedy nearest-neighbour tour from a seeded start.
std::vector<Vec3> tour_stops(Rng& rng, usize n) {
  const Vec3 axis = random_unit(rng);
  const double turn = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  std::vector<Vec3> points;
  for (usize i = 0; i < n; ++i) {
    const double z =
        1.0 - (2.0 * static_cast<double>(i) + 1.0) / static_cast<double>(n);
    const double r = std::sqrt(1.0 - z * z);
    const double phi = golden * static_cast<double>(i);
    const Vec3 v{r * std::cos(phi), r * std::sin(phi), z};
    points.push_back(v * std::cos(turn) + axis.cross(v) * std::sin(turn) +
                     axis * (axis.dot(v) * (1.0 - std::cos(turn))));
  }
  std::vector<Vec3> order;
  usize at = rng.next_below(n);
  while (!points.empty()) {
    order.push_back(points[at]);
    points.erase(points.begin() + static_cast<std::ptrdiff_t>(at));
    at = 0;
    for (usize i = 1; i < points.size(); ++i) {
      if (angle_between(order.back(), points[i]) <
          angle_between(order.back(), points[at])) {
        at = i;
      }
    }
  }
  return order;
}

}  // namespace

Tour make_tour(u64 seed, usize positions, double view_angle_deg,
               double distance) {
  Rng rng(seed);
  const double lo = deg_to_rad(kStepMinDeg);
  const double hi = deg_to_rad(kStepMaxDeg);
  std::vector<Vec3> stops = tour_stops(rng, kStops);

  Tour tour;
  Vec3 dir = stops.front();
  tour.path.emplace_back(dir * distance, view_angle_deg);
  for (usize leg = 0; tour.path.size() < positions; ++leg) {
    if (leg > 0 && leg % kStops == 0) {
      // Each cycle gets its own rotation and start, so a long run averages
      // over many tour shapes instead of repeating one.
      if (tour.cycle == 0) tour.cycle = tour.path.size();
      stops = tour_stops(rng, kStops);
    }
    // Great-circle transit to the next stop; the last step lands on it.
    const Vec3 target = stops[leg % kStops];
    while (tour.path.size() < positions) {
      const double left = angle_between(dir, target);
      if (left < deg_to_rad(kStepMinDeg)) break;  // close enough: no stub step
      const double step = rng.uniform(lo, hi);
      if (step >= left) {
        dir = target;
      } else {
        const Vec3 tangent = (target - dir * dir.dot(target)).normalized();
        dir = (dir * std::cos(step) + tangent * std::sin(step)).normalized();
      }
      tour.path.emplace_back(dir * distance, view_angle_deg);
    }
    // A random-walk leg: the library's random path (which starts at +x)
    // turned so that it starts at `dir`.
    RandomPathSpec spec;
    spec.step_min_deg = kStepMinDeg;
    spec.step_max_deg = kStepMaxDeg;
    spec.view_angle_deg = view_angle_deg;
    spec.positions = kLegSteps + 1;
    spec.seed = rng.next_u64();
    const Vec3 e1 = dir;
    const Vec3 a = random_unit(rng);
    const Vec3 e2 = (a - e1 * e1.dot(a)).normalized();
    const Vec3 e3 = e1.cross(e2);
    const CameraPath walk = make_random_path(spec);
    for (usize i = 1; i < walk.size() && tour.path.size() < positions; ++i) {
      const Vec3 p = walk[i].position() / walk[i].view_distance();
      dir = e1 * p.x + e2 * p.y + e3 * p.z;
      tour.path.emplace_back(dir * distance, view_angle_deg);
    }
  }
  return tour;
}

std::vector<CameraPath> make_viewer_paths(u64 seed, usize viewers,
                                          usize positions,
                                          double view_angle_deg,
                                          double distance) {
  // One cycle is at most kStops legs of a 180-degree transit plus a walk.
  const usize longest_cycle =
      kStops * (kLegSteps + static_cast<usize>(180.0 / kStepMinDeg) + 2);
  const Tour tour =
      make_tour(seed, positions + longest_cycle, view_angle_deg, distance);
  VIZ_CHECK(tour.cycle > 0, "tour shorter than one cycle");
  std::vector<CameraPath> paths;
  for (usize v = 0; v < viewers; ++v) {
    const auto first =
        tour.path.begin() + static_cast<std::ptrdiff_t>(v * tour.cycle / viewers);
    paths.emplace_back(first, first + static_cast<std::ptrdiff_t>(positions));
  }
  return paths;
}

}  // namespace vizcache::perfbench
