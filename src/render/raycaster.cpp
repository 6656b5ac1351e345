#include "render/raycaster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "render/raycaster_detail.hpp"
#include "util/error.hpp"

namespace vizcache {

using render_detail::for_each_row;
using render_detail::intersect_volume;
using render_detail::make_ray_frame;
using render_detail::pixel_ray_dir;
using render_detail::RayFrame;

Image raycast(const Camera& camera, const VolumeSampler& sampler,
              const TransferFunction& tf, const RaycastParams& params,
              ThreadPool* pool, RaycastStats* stats) {
  VIZ_REQUIRE(params.step_size > 0.0, "raycast step must be positive");
  VIZ_REQUIRE(params.value_max > params.value_min, "empty value range");

  Image image(params.image_width, params.image_height);
  const RayFrame frame = make_ray_frame(camera, params);
  const float inv_range = 1.0f / (params.value_max - params.value_min);

  auto render_row = [&](usize y, RaycastStats& rs) {
    for (usize x = 0; x < params.image_width; ++x) {
      Vec3 dir = pixel_ray_dir(frame, params, x, y);
      auto hit = intersect_volume(frame.eye, dir);
      if (!hit) continue;
      ++rs.rays;

      Rgba acc{0, 0, 0, 0};
      for (double t = hit->first; t < hit->second; t += params.step_size) {
        std::optional<float> value = sampler(frame.eye + dir * t);
        ++rs.samples;
        if (!value) continue;  // brick not resident: skip this segment
        float v = std::clamp((*value - params.value_min) * inv_range, 0.0f, 1.0f);
        Rgba c = tf.sample(v);
        if (c.a <= 0.0f) continue;
        // Opacity correction for the step length relative to a unit step.
        float alpha =
            1.0f - std::pow(1.0f - c.a, static_cast<float>(params.step_size * 10.0));
        float w = alpha * (1.0f - acc.a);
        acc.r += c.r * w;
        acc.g += c.g * w;
        acc.b += c.b * w;
        acc.a += w;
        ++rs.composited;
        if (acc.a >= params.early_termination) break;
      }
      image.at(x, y) = acc;
    }
  };

  for_each_row(params, pool, stats, render_row);
  return image;
}

Image raycast(const Camera& camera, const BrickSampler& bricks,
              const TransferFunctionLUT& lut, const RaycastParams& params,
              ThreadPool* pool, RaycastStats* stats) {
  VIZ_REQUIRE(params.step_size > 0.0, "raycast step must be positive");
  VIZ_REQUIRE(params.value_max > params.value_min, "empty value range");
  VIZ_REQUIRE(std::abs(lut.step_size() - params.step_size) <= 1e-12,
              "transfer-function LUT was baked for a different step size");

  Image image(params.image_width, params.image_height);
  const BlockGrid& grid = bricks.grid();
  const Dims3 dims = grid.volume_dims();
  const Dims3 gdims = grid.grid_dims();
  const RayFrame frame = make_ray_frame(camera, params);
  const float inv_range = 1.0f / (params.value_max - params.value_min);
  const double step = params.step_size;
  const double dimsd[3] = {static_cast<double>(dims.x),
                           static_cast<double>(dims.y),
                           static_cast<double>(dims.z)};
  // When the table origin is fully transparent (alpha ramps up from zero,
  // true of every preset), samples at or below value_min can skip the LUT
  // lerp: they would composite nothing either way.
  const bool transparent_at_min = lut.sample(0.0f).a <= 0.0f;

  auto render_row = [&](usize y, RaycastStats& rs) {
    for (usize x = 0; x < params.image_width; ++x) {
      Vec3 dir = pixel_ray_dir(frame, params, x, y);
      auto hit = intersect_volume(frame.eye, dir);
      if (!hit) continue;
      ++rs.rays;
      const double t_entry = hit->first;
      const double t_far = hit->second;
      const double o[3] = {frame.eye.x, frame.eye.y, frame.eye.z};
      const double d[3] = {dir.x, dir.y, dir.z};
      // The ray in voxel-center space is affine in t: s(t) = va + t*vb per
      // axis. Precomputing the coefficients removes the point/convert work
      // from the per-sample loop (the reference path derives the identical
      // coordinates from the world-space point; the rounding difference is
      // far below the golden-test tolerance).
      double va[3], vb[3];
      for (int axis = 0; axis < 3; ++axis) {
        va[axis] = (o[axis] + 1.0) * 0.5 * dimsd[axis] - 0.5;
        vb[axis] = d[axis] * 0.5 * dimsd[axis];
      }

      Rgba acc{0, 0, 0, 0};
      // Sample positions are indexed globally (t_k = t_entry + k*step) so
      // skipping a non-resident segment advances k without perturbing the
      // positions of later samples — they stay identical to the scalar
      // reference path's.
      usize k = 0;
      bool done = false;
      BlockId id = kInvalidBlock;
      i64 cx = 0, cy = 0, cz = 0;  // DDA block coords (signed for stepping)

      while (!done) {
        double t = t_entry + static_cast<double>(k) * step;
        if (t >= t_far) break;
        if (id == kInvalidBlock) {
          // (Re-)anchor the DDA at the current sample. Only needed at ray
          // entry, where the sample can sit on a volume face and land a ulp
          // outside; every later segment is reached by coordinate stepping.
          id = grid.block_at_normalized(frame.eye + dir * t);
          if (id == kInvalidBlock) {
            ++k;
            continue;
          }
          BlockCoord c = grid.coord_of(id);
          cx = static_cast<i64>(c.bx);
          cy = static_cast<i64>(c.by);
          cz = static_cast<i64>(c.bz);
        }

        // Exit distance of the current block along the ray, and which axis
        // the ray leaves through.
        const AABB box = grid.block_bounds(id);
        const double lo[3] = {box.lo.x, box.lo.y, box.lo.z};
        const double hi[3] = {box.hi.x, box.hi.y, box.hi.z};
        double t_exit = std::numeric_limits<double>::infinity();
        int exit_axis = -1;
        for (int axis = 0; axis < 3; ++axis) {
          if (std::abs(d[axis]) < 1e-12) continue;
          double bound = d[axis] > 0.0 ? hi[axis] : lo[axis];
          double tb = (bound - o[axis]) / d[axis];
          if (tb < t_exit) {
            t_exit = tb;
            exit_axis = axis;
          }
        }
        if (exit_axis < 0) break;  // degenerate direction; cannot happen
        const double seg_end = std::min(t_exit, t_far);

        // Residency is resolved once for the whole segment.
        BrickView view = bricks.brick(id);
        if (!view.resident()) {
          // O(1) skip: first sample index at or beyond seg_end.
          double n = std::ceil((seg_end - t_entry) / step);
          usize k_next = n <= 0.0 ? 0 : static_cast<usize>(n);
          if (k_next > k) rs.skipped += k_next - k;
          k = std::max(k, k_next);
        } else {
          // Per-segment hoists: the brick's voxel window and raw pointer are
          // loop constants, so the per-sample work is three float adds,
          // int32 truncate-and-clamp indexing, eight loads, seven lerps, one
          // LUT lerp, and four compositing multiply-adds.
          const i32 wx0 = static_cast<i32>(view.ox);
          const i32 wy0 = static_cast<i32>(view.oy);
          const i32 wz0 = static_cast<i32>(view.oz);
          const i32 wx1 = wx0 + static_cast<i32>(view.ex) - 1;
          const i32 wy1 = wy0 + static_cast<i32>(view.ey) - 1;
          const i32 wz1 = wz0 + static_cast<i32>(view.ez) - 1;
          const usize rx = view.ex;
          const usize rxy = view.ex * view.ey;
          const float* data = view.data;
          auto clamp_i = [](i32 v, i32 vmin, i32 vmax) {
            return v < vmin ? vmin : (v > vmax ? vmax : v);
          };
          // Counted loop over the segment's global sample indices. The end
          // index comes from the same ceil() used for non-resident skips; a
          // one-ulp disagreement with the reference's t<seg_end comparison
          // only re-attributes a face-adjacent sample to the neighboring
          // brick, which the golden tests bound. Voxel coordinates step
          // incrementally in float (s += step·vb per axis), re-anchored from
          // the double affine form at every segment start, so drift is
          // bounded by one segment (~1e-5 voxel — far below tolerance).
          const double n_end = std::ceil((seg_end - t_entry) / step);
          const usize k_end = n_end <= 0.0 ? 0 : static_cast<usize>(n_end);
          const float bx = static_cast<float>(step * vb[0]);
          const float by = static_cast<float>(step * vb[1]);
          const float bz = static_cast<float>(step * vb[2]);
          const double t0 = t_entry + static_cast<double>(k) * step;
          float sx = static_cast<float>(va[0] + t0 * vb[0]);
          float sy = static_cast<float>(va[1] + t0 * vb[1]);
          float sz = static_cast<float>(va[2] + t0 * vb[2]);
          if (k < k_end) ++rs.segments;
          const usize samples_before = rs.samples;
          usize k_local = k;
          for (; k_local < k_end;
               ++k_local, sx += bx, sy += by, sz += bz) {
            // Truncation matches floor wherever the neighbor indices are not
            // both clamped to the same voxel (s >= 0 inside the volume); in
            // the clamped-to-one-voxel case the fraction cancels out.
            const i32 ix = static_cast<i32>(sx);
            const i32 iy = static_cast<i32>(sy);
            const i32 iz = static_cast<i32>(sz);
            const float fx = sx - static_cast<float>(ix);
            const float fy = sy - static_cast<float>(iy);
            const float fz = sz - static_cast<float>(iz);
            const usize x0 = static_cast<usize>(clamp_i(ix, wx0, wx1) - wx0);
            const usize x1 = static_cast<usize>(clamp_i(ix + 1, wx0, wx1) - wx0);
            const usize y0 = static_cast<usize>(clamp_i(iy, wy0, wy1) - wy0);
            const usize y1 = static_cast<usize>(clamp_i(iy + 1, wy0, wy1) - wy0);
            const usize z0 = static_cast<usize>(clamp_i(iz, wz0, wz1) - wz0);
            const usize z1 = static_cast<usize>(clamp_i(iz + 1, wz0, wz1) - wz0);
            const float* p0 = data + z0 * rxy;
            const float* p1 = data + z1 * rxy;
            const usize i00 = y0 * rx + x0;
            const usize i01 = y0 * rx + x1;
            const usize i10 = y1 * rx + x0;
            const usize i11 = y1 * rx + x1;
            const float c00 = p0[i00] + (p0[i01] - p0[i00]) * fx;
            const float c10 = p0[i10] + (p0[i11] - p0[i10]) * fx;
            const float c01 = p1[i00] + (p1[i01] - p1[i00]) * fx;
            const float c11 = p1[i10] + (p1[i11] - p1[i10]) * fx;
            const float c0 = c00 + (c10 - c00) * fy;
            const float c1 = c01 + (c11 - c01) * fy;
            const float value = c0 + (c1 - c0) * fz;
            if (transparent_at_min && value <= params.value_min) continue;
            // lut.sample clamps to [0,1] internally — no extra clamp here.
            TransferFunctionLUT::Entry e =
                lut.sample((value - params.value_min) * inv_range);
            if (e.a <= 0.0f) continue;
            // Entries are premultiplied and opacity-corrected at bake time,
            // so compositing is four fused multiply-adds, no pow.
            float w = 1.0f - acc.a;
            acc.r += e.r * w;
            acc.g += e.g * w;
            acc.b += e.b * w;
            acc.a += e.a * w;
            ++rs.composited;
            if (acc.a >= params.early_termination) {
              done = true;
              break;
            }
          }
          // Every loop iteration evaluates the field once; on early
          // termination the final iteration broke before ++k_local.
          rs.samples = samples_before + (k_local - k) + (done ? 1 : 0);
          k = k_local;
        }
        if (done || t_exit >= t_far) break;

        // DDA step into the neighbor block through the exit face.
        i64* coord = exit_axis == 0 ? &cx : (exit_axis == 1 ? &cy : &cz);
        *coord += d[exit_axis] > 0.0 ? 1 : -1;
        if (cx < 0 || cy < 0 || cz < 0 || cx >= static_cast<i64>(gdims.x) ||
            cy >= static_cast<i64>(gdims.y) || cz >= static_cast<i64>(gdims.z)) {
          break;  // stepped off the grid: ray has left the volume
        }
        id = grid.id_of({static_cast<usize>(cx), static_cast<usize>(cy),
                         static_cast<usize>(cz)});
      }
      image.at(x, y) = acc;
    }
  };

  for_each_row(params, pool, stats, render_row);
  return image;
}

}  // namespace vizcache
