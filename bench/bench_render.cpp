// Render hot-path benchmark: three generations of the same frame on a
// fully-resident 3d_ball volume and camera —
//
//   reference  scalar path (per-sample std::function dispatch, piecewise-
//              linear TF scan, pow opacity correction)
//   dda+lut    block-coherent fast path (3D-DDA brick traversal, transfer-
//              function LUT, raw-pointer trilinear sampling)
//   packet     SIMD ray packets (8 lanes through the same DDA segments,
//              vectorized trilinear fetch + LUT lookup + compositing)
//
// plus an adaptive-sampling sweep: the packet path with an importance mask
// (entropy threshold keeping the top `fraction` of blocks at full rate,
// everything else at stride 2 or 4) across fraction x stride combinations,
// reporting the extra ns/sample reduction and the image deviation each
// combination buys.
//
// A second scene reproduces the frame of the perfbench explore workload:
// 3d_ball at scale 0.2 in ~2,200 bricks of 16^3, a 10-degree view from
// distance 3, step 0.01, 128^2, every other brick evicted. Its rays cross
// many short segments and neighbouring lanes often sit in different
// bricks, so it exposes the segment walk that the fully resident 512-brick
// scene hides. It times the packet path (pooled and serial) and the
// dda+lut path.
//
// Writes BENCH_render.json (override with json=path) with ns/sample and
// frames/s for every path plus the speedups, so the render perf trajectory
// is machine-readable from this PR onward.
//
// Extra key=value knobs: width/height (default 256), blocks (target block
// count, default 512), step (ray step, default 0.005), json=path.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/importance.hpp"
#include "render/brick_sampler.hpp"
#include "render/raycaster.hpp"

using namespace vizcache;
using namespace vizcache::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PathTiming {
  double frame_ms = 0.0;
  double fps = 0.0;
  double ns_per_sample = 0.0;
  RaycastStats stats;
};

PathTiming time_path(usize frames, const std::function<Image(RaycastStats&)>& frame) {
  PathTiming t;
  RaycastStats warm;
  frame(warm);  // warm-up: page in payloads, settle caches
  double start = now_ms();
  for (usize i = 0; i < frames; ++i) {
    t.stats = RaycastStats{};
    frame(t.stats);
  }
  double total = now_ms() - start;
  t.frame_ms = total / static_cast<double>(frames);
  t.fps = t.frame_ms > 0.0 ? 1000.0 / t.frame_ms : 0.0;
  t.ns_per_sample = t.stats.samples
                        ? t.frame_ms * 1e6 / static_cast<double>(t.stats.samples)
                        : 0.0;
  return t;
}

double samples_per_segment(const RaycastStats& s) {
  return s.segments > 0 ? static_cast<double>(s.samples) /
                              static_cast<double>(s.segments)
                        : 0.0;
}

double max_channel_diff(const Image& a, const Image& b) {
  double worst = 0.0;
  for (usize y = 0; y < a.height(); ++y) {
    for (usize x = 0; x < a.width(); ++x) {
      const Rgba& pa = a.at(x, y);
      const Rgba& pb = b.at(x, y);
      worst = std::max({worst, std::abs(static_cast<double>(pa.r - pb.r)),
                        std::abs(static_cast<double>(pa.g - pb.g)),
                        std::abs(static_cast<double>(pa.b - pb.b)),
                        std::abs(static_cast<double>(pa.a - pb.a))});
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse("render", argc, argv);
  env.banner(
      "render hot path: SIMD packets vs block-coherent DDA+LUT vs scalar "
      "reference, plus importance-masked adaptive sampling "
      "(fully resident 3d_ball)");

  const usize width = static_cast<usize>(env.cfg.get_int("width", 256));
  const usize height = static_cast<usize>(env.cfg.get_int("height", 256));
  const usize target_blocks =
      static_cast<usize>(env.cfg.get_int("blocks", 512));

  SyntheticVolume volume = make_dataset(DatasetId::kBall3d, env.scale);
  BlockGrid grid =
      BlockGrid::with_target_block_count(volume.desc.dims, target_blocks);
  SyntheticBlockStore store(std::move(volume), grid.block_dims());
  ResidentBrickSet bricks(store.grid());
  bricks.load_all(store);

  RaycastParams params;
  params.image_width = width;
  params.image_height = height;
  params.step_size = env.cfg.get_double("step", 0.005);

  const Camera camera({2.2, 1.1, 0.8}, 40.0);
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, params.step_size);
  const VolumeSampler reference = make_reference_sampler(bricks);
  ThreadPool pool;  // hardware concurrency; 1 worker degrades to serial

  const usize fast_frames = env.quick ? 3 : 8;
  const usize ref_frames = env.quick ? 1 : 3;

  Image fast_image(1, 1);
  PathTiming fast = time_path(fast_frames, [&](RaycastStats& rs) {
    Image img = raycast(camera, bricks, lut, params, &pool, &rs);
    fast_image = img;
    return img;
  });
  Image packet_image(1, 1);
  PathTiming packet = time_path(fast_frames, [&](RaycastStats& rs) {
    Image img = raycast_packet(camera, bricks, lut, params, &pool, &rs);
    packet_image = img;
    return img;
  });
  Image ref_image(1, 1);
  PathTiming ref = time_path(ref_frames, [&](RaycastStats& rs) {
    Image img = raycast(camera, reference, tf, params, &pool, &rs);
    ref_image = img;
    return img;
  });

  // Adaptive sweep: entropy importance keeps the top `fraction` of blocks
  // at full rate, the rest samples at `stride` with the exact opacity
  // rescale. Deviation is measured against the full-rate packet image.
  struct AdaptiveRun {
    std::string key;
    double fraction;
    u8 stride;
    PathTiming timing;
    double diff_vs_full = 0.0;
  };
  const ImportanceTable importance = ImportanceTable::build(store, 256, 0, 0,
                                                            &pool);
  std::vector<AdaptiveRun> adaptive;
  for (double fraction : {0.5, 0.25}) {
    for (u8 stride : {u8{2}, u8{4}}) {
      AdaptiveRun run;
      run.key = "f" + std::to_string(static_cast<int>(fraction * 100)) +
                "_s" + std::to_string(int{stride});
      run.fraction = fraction;
      run.stride = stride;
      const SamplingMask mask = make_sampling_mask(
          importance, importance.threshold_for_fraction(fraction), stride);
      Image img(1, 1);
      run.timing = time_path(fast_frames, [&](RaycastStats& rs) {
        Image frame =
            raycast_packet(camera, bricks, lut, params, &pool, &rs, &mask);
        img = frame;
        return frame;
      });
      run.diff_vs_full = max_channel_diff(img, packet_image);
      adaptive.push_back(std::move(run));
    }
  }

  const double speedup = fast.frame_ms > 0.0 ? ref.frame_ms / fast.frame_ms : 0.0;
  const double sample_speedup =
      fast.ns_per_sample > 0.0 ? ref.ns_per_sample / fast.ns_per_sample : 0.0;
  const double packet_speedup =
      packet.frame_ms > 0.0 ? fast.frame_ms / packet.frame_ms : 0.0;
  const double packet_sample_speedup =
      packet.ns_per_sample > 0.0 ? fast.ns_per_sample / packet.ns_per_sample
                                 : 0.0;
  const double diff = max_channel_diff(fast_image, ref_image);
  const double packet_diff = max_channel_diff(packet_image, ref_image);

  const std::vector<std::string> columns = {
      "path",    "frame(ms)",       "frames/s", "ns/sample",
      "samples", "samples/segment", "rays",     "composited"};
  TablePrinter table(columns);
  auto row = [](TablePrinter& out, const std::string& name,
                const PathTiming& t) {
    out.row({name, TablePrinter::fmt(t.frame_ms, 2),
             TablePrinter::fmt(t.fps, 2), TablePrinter::fmt(t.ns_per_sample, 2),
             std::to_string(t.stats.samples),
             t.stats.segments > 0
                 ? TablePrinter::fmt(samples_per_segment(t.stats), 2)
                 : std::string("-"),
             std::to_string(t.stats.rays),
             std::to_string(t.stats.composited)});
  };
  row(table, "reference", ref);
  row(table, "dda+lut", fast);
  row(table, "packet", packet);
  for (const AdaptiveRun& run : adaptive) {
    row(table, "packet+" + run.key, run.timing);
  }
  table.print("render hot path — " + std::to_string(width) + "x" +
              std::to_string(height) + ", " +
              std::to_string(grid.block_count()) + " blocks, packet width " +
              std::to_string(raycast_packet_width()) +
              (raycast_packet_native() ? " (native)" : " (fallback)"));
  std::cout << "speedup dda+lut vs reference (frame time): "
            << TablePrinter::fmt(speedup, 2)
            << "x   (ns/sample): " << TablePrinter::fmt(sample_speedup, 2)
            << "x\n"
            << "speedup packet vs dda+lut (frame time): "
            << TablePrinter::fmt(packet_speedup, 2) << "x   (ns/sample): "
            << TablePrinter::fmt(packet_sample_speedup, 2) << "x\n"
            << "max channel diff vs reference: dda+lut " << diff
            << ", packet " << packet_diff
            << (std::max(diff, packet_diff) <= 0.05
                    ? "  [ok]"
                    : "  [WARN: paths diverge]")
            << "\n";
  for (const AdaptiveRun& run : adaptive) {
    std::cout << "adaptive " << run.key << ": "
              << TablePrinter::fmt(run.timing.ns_per_sample, 2)
              << " ns/sample, frame "
              << TablePrinter::fmt(run.timing.frame_ms, 2)
              << " ms, max diff vs full-rate packet "
              << TablePrinter::fmt(run.diff_vs_full, 4) << "\n";
  }
  std::cout << (speedup >= 3.0 ? "PASS" : "WARN")
            << ": fast path is " << TablePrinter::fmt(speedup, 2)
            << "x the reference (target >= 3x)\n"
            << (packet_speedup >= 2.0 ? "PASS" : "WARN")
            << ": packet path is " << TablePrinter::fmt(packet_speedup, 2)
            << "x the dda+lut path (target >= 2x)\n";

  // Explore-frame scene: the benchmark's world and frame (see the header
  // comment), with every other brick resident.
  const double frame_scale = 0.2;
  SyntheticVolume frame_volume = make_dataset(DatasetId::kBall3d, frame_scale);
  const BlockGrid frame_grid =
      BlockGrid::with_target_block_count(frame_volume.desc.dims, 2200);
  const SyntheticBlockStore frame_store(std::move(frame_volume),
                                        frame_grid.block_dims());
  ResidentBrickSet frame_bricks(frame_store.grid());
  for (BlockId id = 1; id < frame_grid.block_count(); id += 2) {
    frame_bricks.load(frame_store, id);
  }
  RaycastParams frame_params;
  frame_params.image_width = 128;
  frame_params.image_height = 128;
  frame_params.step_size = 0.01;
  const double frame_angle = 10.0;
  const double frame_distance = 3.0;
  const Camera frame_camera(Vec3{2.2, 1.1, 0.8}.normalized() * frame_distance,
                            frame_angle);
  const TransferFunctionLUT frame_lut(tf, frame_params.step_size);
  const usize frame_frames = env.quick ? 5 : 30;
  Image frame_dda_image(1, 1);
  const PathTiming frame_dda = time_path(frame_frames, [&](RaycastStats& rs) {
    Image img = raycast(frame_camera, frame_bricks, frame_lut, frame_params,
                        &pool, &rs);
    frame_dda_image = img;
    return img;
  });
  Image frame_packet_image(1, 1);
  const PathTiming frame_packet =
      time_path(frame_frames, [&](RaycastStats& rs) {
        Image img = raycast_packet(frame_camera, frame_bricks, frame_lut,
                                   frame_params, &pool, &rs);
        frame_packet_image = img;
        return img;
      });
  const PathTiming frame_serial =
      time_path(frame_frames, [&](RaycastStats& rs) {
        return raycast_packet(frame_camera, frame_bricks, frame_lut,
                              frame_params, nullptr, &rs);
      });
  const double frame_diff = max_channel_diff(frame_packet_image,
                                             frame_dda_image);
  TablePrinter frame_table(columns);
  row(frame_table, "dda+lut", frame_dda);
  row(frame_table, "packet", frame_packet);
  row(frame_table, "packet(serial)", frame_serial);
  frame_table.print(
      "explore frame — 128x128, " + std::to_string(frame_grid.block_count()) +
      " blocks of " + std::to_string(frame_grid.block_dims().x) + "^3, " +
      std::to_string(frame_bricks.resident_count()) +
      " resident, 10-degree view from distance 3, step 0.01");
  std::cout << "explore frame: packet vs dda+lut (ns/sample) "
            << TablePrinter::fmt(frame_dda.ns_per_sample /
                                     std::max(frame_packet.ns_per_sample, 1e-9),
                                 2)
            << "x, max channel diff " << frame_diff << "\n";

  JsonObject config;
  config.string("dataset", "3d_ball")
      .number("scale", env.scale)
      .integer("width", static_cast<i64>(width))
      .integer("height", static_cast<i64>(height))
      .integer("blocks", static_cast<i64>(grid.block_count()))
      .number("step_size", params.step_size)
      .integer("lut_resolution", static_cast<i64>(lut.resolution()))
      .integer("packet_width", static_cast<i64>(raycast_packet_width()))
      .boolean("packet_native", raycast_packet_native())
      .boolean("quick", env.quick);
  auto path_json = [](const PathTiming& t) {
    JsonObject o;
    o.number("frame_ms", t.frame_ms)
        .number("frames_per_s", t.fps)
        .number("ns_per_sample", t.ns_per_sample)
        .integer("rays", static_cast<i64>(t.stats.rays))
        .integer("samples", static_cast<i64>(t.stats.samples))
        .integer("composited", static_cast<i64>(t.stats.composited))
        .integer("segments", static_cast<i64>(t.stats.segments))
        .number("samples_per_segment", samples_per_segment(t.stats));
    return o;
  };
  // Adaptive runs nest as one keyed object per fraction x stride combo
  // ("f50_s2" = top 50% full rate, stride 2 elsewhere), each carrying the
  // usual path fields plus the combo knobs and the deviation from the
  // full-rate packet image.
  JsonObject adaptive_json;
  for (const AdaptiveRun& run : adaptive) {
    JsonObject o = path_json(run.timing);
    o.number("full_rate_fraction", run.fraction)
        .integer("coarse_stride", int{run.stride})
        .integer("skipped", static_cast<i64>(run.timing.stats.skipped))
        .number("max_channel_diff_vs_packet", run.diff_vs_full);
    adaptive_json.object(run.key, std::move(o));
  }
  JsonObject frame_config;
  frame_config.string("dataset", "3d_ball")
      .number("scale", frame_scale)
      .integer("width", static_cast<i64>(frame_params.image_width))
      .integer("height", static_cast<i64>(frame_params.image_height))
      .integer("blocks", static_cast<i64>(frame_grid.block_count()))
      .integer("block_dim", static_cast<i64>(frame_grid.block_dims().x))
      .integer("resident_blocks",
               static_cast<i64>(frame_bricks.resident_count()))
      .number("step_size", frame_params.step_size)
      .number("view_angle_deg", frame_angle)
      .number("distance", frame_distance);
  JsonObject frame_json;
  frame_json.object("config", std::move(frame_config))
      .object("dda_lut", path_json(frame_dda))
      .object("packet", path_json(frame_packet))
      .object("packet_serial", path_json(frame_serial))
      .number("packet_max_channel_diff_vs_dda", frame_diff);
  JsonObject root;
  root.string("bench", "render")
      .object("config", std::move(config))
      .object("reference", path_json(ref))
      .object("dda_lut", path_json(fast))
      .object("packet", path_json(packet))
      .object("adaptive", std::move(adaptive_json))
      .object("frame", std::move(frame_json))
      .number("speedup_frame_time", speedup)
      .number("speedup_ns_per_sample", sample_speedup)
      .number("packet_speedup_frame_time", packet_speedup)
      .number("packet_speedup_ns_per_sample", packet_sample_speedup)
      .number("max_channel_diff", diff)
      .number("packet_max_channel_diff", packet_diff);
  const std::string json_path = env.cfg.get_string("json", "BENCH_render.json");
  root.write(json_path);
  std::cout << "# json -> " << json_path << "\n";
  return 0;
}
