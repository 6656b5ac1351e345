#include "volume/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "volume/noise.hpp"

namespace vizcache {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Gaussian bump.
double bump(double d2, double width) { return std::exp(-d2 / (width * width)); }

/// The ball's value at radius r <= 0.95 given fbm at the scaled position:
/// continuous interior variation — radial falloff + concentric shells + a
/// whisper of noise so no two blocks are identical.
float ball_value(double r, double fbm) {
  double shells = 0.5 + 0.5 * std::sin(r * 18.0);
  double falloff = 1.0 - r / 0.95;
  double n = 0.1 * fbm;
  return static_cast<float>(falloff * (0.7 + 0.3 * shells) + n);
}

}  // namespace

double normalized_coordinate(usize i, usize total) {
  return total == 1 ? 0.0
                    : -1.0 + 2.0 * static_cast<double>(i) /
                                 static_cast<double>(total - 1);
}

SyntheticVolume make_ball_volume(Dims3 dims, u64 seed) {
  SyntheticVolume v;
  v.desc = {"3d_ball", "a synthetic dataset", dims, 1, 1, 4};
  auto noise = std::make_shared<ValueNoise>(seed);
  v.fn = [noise](const Vec3& p, usize, usize) -> float {
    double r = p.norm();
    if (r > 0.95) return 0.0f;  // outside the ball: constant ambient
    return ball_value(r, noise->fbm(p.x * 4.0, p.y * 4.0, p.z * 4.0, 3, 0.5));
  };
  v.block_fn = [noise](std::span<const double> xs, std::span<const double> ys,
                       std::span<const double> zs, usize, usize,
                       std::span<float> out) {
    // r = sqrt(x*x + y*y + z*z) rounds monotonically in each square, so the
    // smallest squares bound every voxel's r from below: a block whose bound
    // lies outside the ball is all ambient.
    auto min_square = [](std::span<const double> a) {
      double m = std::numeric_limits<double>::infinity();
      for (double c : a) m = std::min(m, c * c);
      return m;
    };
    if (std::sqrt(min_square(xs) + min_square(ys) + min_square(zs)) > 0.95) {
      std::fill(out.begin(), out.end(), 0.0f);
      return;
    }
    auto scaled = [](std::span<const double> a) {
      std::vector<double> s(a.size());
      for (usize i = 0; i < a.size(); ++i) s[i] = a[i] * 4.0;
      return s;
    };
    std::vector<double> fbm(out.size());
    noise->fbm_grid(scaled(xs), scaled(ys), scaled(zs), 3, 0.5, fbm);
    usize at = 0;
    for (const double z : zs) {
      for (const double y : ys) {
        for (const double x : xs) {
          // Vec3::norm's operation order: sqrt(x*x + y*y + z*z).
          const double r = std::sqrt(x * x + y * y + z * z);
          out[at] = r > 0.95 ? 0.0f : ball_value(r, fbm[at]);
          ++at;
        }
      }
    }
  };
  return v;
}

SyntheticVolume make_flame_volume(const std::string& name, Dims3 dims,
                                  u64 seed) {
  SyntheticVolume v;
  v.desc = {name, "a combustion simulation dataset", dims, 1, 1, 4};
  auto noise = std::make_shared<ValueNoise>(seed);
  v.fn = [noise](const Vec3& p, usize, usize) -> float {
    // Jet axis along +y: `s` in [0,1] is downstream distance, radial
    // coordinate rho measured from a slowly meandering centerline.
    double s = (p.y + 1.0) * 0.5;
    double meander_x = 0.15 * std::sin(s * 7.0);
    double meander_z = 0.12 * std::cos(s * 5.0);
    double rho = std::hypot(p.x - meander_x, p.z - meander_z);

    // Jet widens downstream; turbulence grows downstream (lifted flame).
    double jet_radius = 0.12 + 0.35 * s;
    double turb = noise->fbm(p.x * 6.0, p.y * 6.0, p.z * 6.0, 4, 0.55) - 0.5;
    double wrinkle = 0.18 * s * turb;

    // Mixture fraction: ~1 in the core, ~0 ambient, steep sheet between.
    double mixfrac = sigmoid((jet_radius - rho + wrinkle) * 24.0);
    // Lifted base: nothing below 10% downstream.
    if (s < 0.1) mixfrac *= s / 0.1;
    return static_cast<float>(mixfrac);
  };
  return v;
}

SyntheticVolume make_climate_volume(Dims3 dims, usize variables,
                                    usize timesteps, u64 seed) {
  VIZ_REQUIRE(variables >= 1, "climate volume needs >=1 variable");
  VIZ_REQUIRE(timesteps >= 1, "climate volume needs >=1 timestep");
  SyntheticVolume v;
  v.desc = {"climate", "a climate simulation dataset", dims, variables,
            timesteps, 4};
  auto noise = std::make_shared<ValueNoise>(seed);

  v.fn = [noise, timesteps](const Vec3& p, usize var, usize t) -> float {
    double time = timesteps > 1
                      ? static_cast<double>(t) / static_cast<double>(timesteps - 1)
                      : 0.0;
    // Typhoon vortex drifts west-northwest over time (xy-plane).
    double cx = 0.4 - 0.6 * time;
    double cy = -0.2 + 0.3 * time;
    double dx = p.x - cx, dy = p.y - cy;
    double d2 = dx * dx + dy * dy;
    double vortex = bump(d2, 0.35);
    // Altitude factor: activity concentrated near the "surface" (low z).
    double alt = 0.5 * (1.0 - p.z);

    // The four physical prototypes.
    double qvapor = alt * (0.55 + 0.3 * std::cos(p.y * 2.2)) +
                    0.35 * vortex +
                    0.12 * noise->fbm(p.x * 3.0 + 7.0, p.y * 3.0, p.z * 3.0, 3);
    double wind = vortex * (0.9 + 0.4 * std::sin(std::atan2(dy, dx) * 3.0)) +
                  0.15 * noise->fbm(p.x * 4.0, p.y * 4.0 + 3.0, p.z * 4.0, 3);
    // Smoke plume: localized band southeast of the vortex, advected.
    double px = p.x - (0.1 + 0.3 * time), py = p.y + 0.45;
    double plume = bump(px * px * 2.0 + py * py * 6.0, 0.4) * alt;
    double smoke = plume * (0.7 + 0.5 * noise->fbm(p.x * 5.0, p.y * 5.0,
                                                   p.z * 5.0 + 11.0, 4));
    double temperature = 0.8 - 0.35 * p.z * p.z - 0.25 * std::abs(p.y) -
                         0.2 * vortex;

    switch (var % 4) {
      case 0: {
        double base = qvapor;
        if (var >= 4) {
          // Derived variables: correlated mixture with seeded perturbation.
          double mix = noise->fbm(p.x * 2.0 + static_cast<double>(var) * 0.7,
                                  p.y * 2.0, p.z * 2.0, 2);
          base = 0.7 * qvapor + 0.3 * mix;
        }
        return static_cast<float>(base);
      }
      case 1: {
        double base = wind;
        if (var >= 4) {
          double mix = noise->fbm(p.x * 2.0, p.y * 2.0 + static_cast<double>(var),
                                  p.z * 2.0, 2);
          base = 0.6 * wind + 0.4 * mix;
        }
        return static_cast<float>(base);
      }
      case 2: {
        double base = smoke;
        if (var >= 4) {
          double mix = noise->fbm(p.x * 2.0, p.y * 2.0,
                                  p.z * 2.0 + static_cast<double>(var) * 0.9, 2);
          base = 0.65 * smoke + 0.35 * mix;
        }
        return static_cast<float>(base);
      }
      default: {
        double base = temperature;
        if (var >= 4) {
          double mix = noise->fbm(p.x * 1.5 + static_cast<double>(var) * 0.3,
                                  p.y * 1.5, p.z * 1.5, 2);
          base = 0.75 * temperature + 0.25 * mix;
        }
        return static_cast<float>(base);
      }
    }
  };
  return v;
}

SyntheticVolume make_turbulence_volume(Dims3 dims, u64 seed) {
  SyntheticVolume v;
  v.desc = {"turbulence", "isotropic fBm turbulence", dims, 1, 1, 4};
  auto noise = std::make_shared<ValueNoise>(seed);
  v.fn = [noise](const Vec3& p, usize, usize) -> float {
    return static_cast<float>(
        noise->fbm(p.x * 8.0, p.y * 8.0, p.z * 8.0, 5, 0.6));
  };
  return v;
}

SyntheticVolume make_flow_volume(Dims3 dims, u64 seed) {
  SyntheticVolume v;
  v.desc = {"flow", "a synthetic 3-component velocity field", dims, 3, 1, 4};
  auto noise = std::make_shared<ValueNoise>(seed);
  v.fn = [noise](const Vec3& p, usize var, usize) -> float {
    // Vortex around the z axis with a Gaussian core, plus an upward jet in
    // the core and a little turbulence.
    double r2 = p.x * p.x + p.y * p.y;
    double swirl = std::exp(-r2 / 0.35);
    double u = -p.y * swirl;
    double vcomp = p.x * swirl;
    double w = 0.6 * std::exp(-r2 / 0.15);
    double turb = 0.08 * (noise->fbm(p.x * 4.0 + static_cast<double>(var) * 3.0,
                                     p.y * 4.0, p.z * 4.0, 3) -
                          0.5);
    // Smooth boundary damping so trajectories stop at the walls.
    double damp = 1.0;
    for (double c : {p.x, p.y, p.z}) {
      damp *= std::clamp(2.5 * (1.0 - std::abs(c)), 0.0, 1.0);
    }
    double value = var == 0 ? u : var == 1 ? vcomp : w;
    return static_cast<float>((value + turb) * damp);
  };
  return v;
}

Field3D rasterize(const SyntheticVolume& vol, usize var, usize timestep) {
  VIZ_REQUIRE(var < vol.desc.variables, "variable index out of range");
  VIZ_REQUIRE(timestep < vol.desc.timesteps, "timestep out of range");
  const Dims3& d = vol.desc.dims;
  Field3D f(d);
  for (usize z = 0; z < d.z; ++z) {
    double nz = normalized_coordinate(z, d.z);
    for (usize y = 0; y < d.y; ++y) {
      double ny = normalized_coordinate(y, d.y);
      for (usize x = 0; x < d.x; ++x) {
        f.at(x, y, z) =
            vol.fn({normalized_coordinate(x, d.x), ny, nz}, var, timestep);
      }
    }
  }
  return f;
}

}  // namespace vizcache
