#pragma once

// Camera paths of the benchmark's viewers.

#include <vector>

#include "geom/path.hpp"

namespace vizcache::perfbench {

/// View-direction change per path step, degrees.
constexpr double kStepMinDeg = 5.0;
constexpr double kStepMaxDeg = 10.0;

/// A seeded tour of the sphere of view directions: short random-walk legs
/// of the library's make_random_path at 48 evenly spread directions
/// (Fibonacci sphere under a seeded rotation, visited in nearest-neighbour
/// order from a seeded start) joined by great-circle transits; every step
/// turns 5-10 degrees. One cycle (about 450 steps) sees the volume from
/// every side, so a run's costs do not depend on where a single walk
/// wandered; each further cycle has a new rotation and start.
struct Tour {
  CameraPath path;
  usize cycle = 0;  ///< steps until the tour is back at its first stop
};
Tour make_tour(u64 seed, usize positions, double view_angle_deg,
               double distance);

/// `viewers` paths of `positions` cameras on one seeded tour, viewer v
/// starting v/viewers of a cycle ahead: the viewers never share a camera,
/// and how far apart they are does not depend on the seed.
std::vector<CameraPath> make_viewer_paths(u64 seed, usize viewers,
                                          usize positions,
                                          double view_angle_deg,
                                          double distance);

}  // namespace vizcache::perfbench
