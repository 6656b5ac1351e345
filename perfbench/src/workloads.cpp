#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <latch>
#include <limits>
#include <map>
#include <thread>

#include "core/visibility.hpp"
#include "lockstep.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "net/protocol.hpp"
#include "path.hpp"
#include "render/raycaster.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "world.hpp"

namespace vizcache::perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Work counts of one run: the full sizes are the benchmark, the smoke
/// sizes only exercise the code.
struct Sizes {
  usize setups;         ///< set-ups per run (setup_s is their median)
  usize exact_frames;   ///< explore frames the exact counts cover
  usize replay_steps;   ///< steps of the explore step-only replay
  usize core_cameras;   ///< cameras per path in the core probe
  usize probe_steps;    ///< steps of the solo/wire overhead probe
  usize probe_frames;   ///< explore frames of the render/volume probe
  usize codec_reps;     ///< encode/decode calls of the codec probe
  usize path_len;       ///< cameras per generated path (wraps around)
};

Sizes sizes_for(bool smoke) {
  if (smoke) return {2, 4, 40, 40, 8, 3, 50, 400};
  return {3, 150, 2000, 2000, 300, 60, 2000, 20000};
}

/// Latency percentiles leave out each client's cold first operations: a
/// p50 pools the rest, a p99 is the mean of the p99s of its consecutive
/// windows (see mean_window_percentile).
constexpr usize kWarmupOps = 20;       ///< frames, steps or rounds
constexpr usize kWarmupFetches = 500;  ///< wire FETCHes
constexpr usize kFrameWindow = 100;    ///< explore frames
constexpr usize kStepWindow = 500;     ///< crowd steps
constexpr usize kRoundWindow = 500;    ///< wire rounds (STEP + FETCHes)
constexpr usize kFetchWindow = 2000;   ///< wire FETCHes

using Parts = std::vector<std::vector<double>>;  ///< one part per client

double p50(const Parts& parts, usize warmup = kWarmupOps) {
  return tail_percentile(parts, warmup, 0.5);
}
double p99(const Parts& parts, usize window, usize warmup = kWarmupOps) {
  return mean_window_percentile(parts, warmup, window, 0.99);
}

/// The tracer of operation `i` of a client in a traced window. Every other
/// operation is traced, so traced and untraced operations interleave over
/// the whole window and differ only in the tracing.
Tracer* tracer_for(Tracer* tracer, usize i) {
  return i % 2 == 0 ? tracer : nullptr;
}

usize worker_threads() {
  return std::clamp<usize>(std::thread::hardware_concurrency(), 1, 4);
}

/// Failed operations and mismatches of one thread, merged after join.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 16) errors.push_back(e);
    }
  }
};

/// Ascending-id set difference a \ b.
std::vector<BlockId> entered(const std::vector<BlockId>& now,
                             const std::vector<BlockId>& before) {
  std::vector<BlockId> out;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

double counter(const MetricsSnapshot& s, const std::string& name) {
  return s.has_counter(name) ? static_cast<double>(s.counter(name)) : 0.0;
}
double gauge(const MetricsSnapshot& s, const std::string& name) {
  return s.has_gauge(name) ? s.gauge(name) : 0.0;
}

// ---------------------------------------------------------------------------
// Expected FETCH payloads, laid out block after block.

class PayloadOracle {
 public:
  explicit PayloadOracle(const BlockGrid& grid) : offset_(grid.block_count() + 1) {
    for (BlockId id = 0; id < grid.block_count(); ++id) {
      offset_[id + 1] = offset_[id] + grid.block_bytes(id);
    }
    bytes_.resize(offset_.back());
    for (BlockId id = 0; id < grid.block_count(); ++id) {
      for (u64 i = 0; i < offset_[id + 1] - offset_[id]; ++i) {
        bytes_[offset_[id] + i] = block_payload_byte(id, i);
      }
    }
  }

  /// True when `reply` is block `id` with its exact payload.
  bool matches(BlockId id, const FetchReply& reply) const {
    const u64 len = offset_[id + 1] - offset_[id];
    return reply.block == id && reply.payload.size() == len &&
           std::memcmp(reply.payload.data(), bytes_.data() + offset_[id],
                       len) == 0;
  }

 private:
  std::vector<u64> offset_;
  std::vector<u8> bytes_;
};

// ---------------------------------------------------------------------------
// The live system of one workload.

struct WireClient {
  NetClient client;
  SessionId session = 0;
  std::unique_ptr<BlockBoundsIndex> own;  ///< the client's own visibility
};

struct Stage {
  std::unique_ptr<BlockService> service;
  std::vector<SessionId> sessions;
  std::unique_ptr<NetServer> server;
  std::vector<WireClient> clients;  ///< declared last: closed first
};

usize session_count(const std::string& workload) {
  if (workload == "crowd") return 3;
  if (workload == "wire") return 2;
  return 1;
}

void connect_clients(const World& world, Stage& stage, usize n) {
  for (usize c = 0; c < n; ++c) {
    WireClient wc;
    wc.client.connect("127.0.0.1", stage.server->port());
    wc.session = wc.client.open();
    wc.own = std::make_unique<BlockBoundsIndex>(world.grid());
    stage.clients.push_back(std::move(wc));
  }
}

Stage make_stage(const World& world, const std::string& workload) {
  Stage stage;
  stage.service = world.make_service();
  if (workload == "wire") {
    NetServerConfig cfg;
    cfg.workers = 2;
    stage.server = std::make_unique<NetServer>(*stage.service, cfg);
    stage.server->start();
    connect_clients(world, stage, session_count(workload));
  } else {
    for (usize s = 0; s < session_count(workload); ++s) {
      const auto id = stage.service->open_session();
      VIZ_CHECK(id.has_value(), "benchmark session rejected");
      stage.sessions.push_back(*id);
    }
  }
  return stage;
}

// ---------------------------------------------------------------------------
// explore: step, read the newly DRAM-resident blocks, render.

struct FrameLog {
  std::vector<double> frame_ms, step_ms, render_ms, read_us;
  std::vector<SessionStepResult> steps;
  std::vector<u64> reads, samples;  ///< per frame
  u64 read_bytes = 0;
  double read_s = 0.0;
  double render_s = 0.0;
  u64 total_samples = 0;
  u64 total_skipped = 0;
  double wall_s = 0.0;
};

RaycastParams frame_params(const World& world) {
  RaycastParams p;
  p.image_width = world.spec().image_size;
  p.image_height = world.spec().image_size;
  return p;
}

/// Frames along `path` until `seconds` passed and at least `min_frames` ran.
FrameLog explore_frames(const World& world, BlockService& svc, SessionId sid,
                        const CameraPath& path, double seconds,
                        usize min_frames, ResidentBrickSet& bricks,
                        Tracer* tracer) {
  const RaycastParams params = frame_params(world);
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, params.step_size);
  const BlockGrid& grid = world.grid();
  FrameLog log;
  const double start = now_s();
  const double deadline = start + seconds;
  for (usize i = 0;; ++i) {
    if (i >= min_frames && now_s() >= deadline) break;
    const Camera& cam = path[i % path.size()];
    Tracer* const op = tracer_for(tracer, i);
    ScopedSpan frame_span(op, "bench.frame", i);
    const double t0 = now_s();
    SessionStepResult sr;
    {
      ScopedSpan s(op, "service.step", i);
      sr = svc.step(sid, cam);
    }
    const double t1 = now_s();
    u64 reads = 0;
    {
      ScopedSpan s(op, "service.resident_fast", i);
      for (BlockId id = 0; id < grid.block_count(); ++id) {
        const bool want = svc.hierarchy().resident_fast(id);
        if (want == bricks.resident(id)) continue;
        if (!want) {
          bricks.evict(id);
          continue;
        }
        ScopedSpan r(op, "volume.read_block", i);
        const double r0 = now_s();
        bricks.load(world.store(), id);
        const double r1 = now_s();
        log.read_us.push_back((r1 - r0) * 1e6);
        log.read_s += r1 - r0;
        log.read_bytes += grid.block_bytes(id);
        ++reads;
      }
    }
    const double t2 = now_s();
    RaycastStats rs;
    {
      ScopedSpan s(op, "render.raycast_packet", i);
      (void)raycast_packet(cam, bricks, lut, params, &world.pool(), &rs);
    }
    const double t3 = now_s();
    log.frame_ms.push_back((t3 - t0) * 1e3);
    log.step_ms.push_back((t1 - t0) * 1e3);
    log.render_ms.push_back((t3 - t2) * 1e3);
    log.render_s += t3 - t2;
    log.steps.push_back(sr);
    log.reads.push_back(reads);
    log.samples.push_back(rs.samples);
    log.total_samples += rs.samples;
    log.total_skipped += rs.skipped;
  }
  log.wall_s = now_s() - start;
  return log;
}

/// Step-only replay of the first `steps` cameras on a fresh service.
std::vector<SessionStepResult> replay_steps(const World& world,
                                            const CameraPath& path,
                                            usize steps) {
  auto svc = world.make_service();
  const SessionId sid = *svc->open_session();
  std::vector<SessionStepResult> out;
  out.reserve(steps);
  for (usize i = 0; i < steps; ++i) {
    out.push_back(svc->step(sid, path[i % path.size()]));
  }
  return out;
}

bool same_step(const SessionStepResult& a, const SessionStepResult& b) {
  return a.step == b.step && a.visible_blocks == b.visible_blocks &&
         a.fast_misses == b.fast_misses &&
         a.coalesced_hits == b.coalesced_hits && a.prefetched == b.prefetched &&
         a.prefetch_shed == b.prefetch_shed &&
         a.prefetch_suppressed == b.prefetch_suppressed &&
         a.io_time == b.io_time && a.lookup_time == b.lookup_time &&
         a.prefetch_time == b.prefetch_time &&
         a.render_time == b.render_time && a.total_time == b.total_time;
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

/// The packet image of `cam` over `bricks` must match the scalar oracle
/// within the golden tolerance (1e-3 per channel, no early termination).
void check_render(const World& world, const ResidentBrickSet& bricks,
                  const Camera& cam, Tally& tally) {
  RaycastParams p = frame_params(world);
  p.early_termination = 1.0f;
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, p.step_size);
  const Image fast = raycast_packet(cam, bricks, lut, p, &world.pool());
  const Image ref =
      raycast(cam, make_reference_sampler(bricks), tf, p, &world.pool());
  const double diff = max_channel_diff(fast, ref);
  if (diff >= 1e-3 || fast.coverage() <= 0.0) {
    tally.fail("render: packet frame differs from the scalar oracle by " +
               std::to_string(diff));
  }
}

/// Check every explore frame's step against the deterministic replay, and
/// the replay's visible counts against an independent visibility sweep.
void check_explore(const World& world, const CameraPath& path,
                   const FrameLog& log,
                   const std::vector<SessionStepResult>& replay,
                   Tally& tally) {
  const BlockBoundsIndex own(world.grid());
  for (usize i = 0; i < log.steps.size(); ++i) {
    if (i < replay.size() && !same_step(log.steps[i], replay[i])) {
      tally.fail("explore: frame " + std::to_string(i) +
                 " step differs from the replay");
    }
  }
  for (usize i = 0; i < replay.size(); ++i) {
    if (replay[i].visible_blocks !=
        own.visible_blocks(path[i % path.size()]).size()) {
      tally.fail("explore: visible count of step " + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// crowd: three in-process sessions stepping on their own threads.

struct StepLog {
  std::vector<double> step_ms;
  std::vector<usize> visible;  ///< reply visible count per step
  double sim_s = 0.0;
};

struct CrowdLog {
  std::vector<StepLog> sessions;
  double wall_s = 0.0;
};

CrowdLog crowd_steps(BlockService& svc, const std::vector<SessionId>& ids,
                      const std::vector<CameraPath>& paths, double seconds,
                      Tracer* tracer) {
  CrowdLog log;
  log.sessions.resize(ids.size());
  std::vector<double> ends(ids.size(), 0.0);
  std::latch go(static_cast<std::ptrdiff_t>(ids.size()) + 1);
  std::atomic<double> start{0.0};
  Lockstep pace(ids.size());
  std::vector<std::thread> threads;
  for (usize s = 0; s < ids.size(); ++s) {
    threads.emplace_back([&, s] {
      go.arrive_and_wait();
      const double deadline = start.load() + seconds;
      StepLog& out = log.sessions[s];
      const CameraPath& path = paths[s];
      for (usize i = 0;; ++i) {
        pace.next(s, i);
        if (now_s() >= deadline) break;
        const u64 request = (static_cast<u64>(s) << 32) | i;
        ScopedSpan span(tracer_for(tracer, i), "service.step", request);
        const double t0 = now_s();
        const SessionStepResult sr = svc.step(ids[s], path[i % path.size()]);
        out.step_ms.push_back((now_s() - t0) * 1e3);
        out.visible.push_back(sr.visible_blocks);
        out.sim_s += sr.total_time;
      }
      pace.finish(s);
      ends[s] = now_s();
    });
  }
  start.store(now_s());
  go.count_down();
  for (std::thread& t : threads) t.join();
  log.wall_s = *std::max_element(ends.begin(), ends.end()) - start.load();
  return log;
}

/// Every reply's visible count against the client-side sweep, then the
/// per-session summaries against the service counters and gauges.
void check_crowd(const World& world, BlockService& svc,
                 const std::vector<SessionId>& ids,
                 const std::vector<CameraPath>& paths, const CrowdLog& log,
                 Tally& tally) {
  const BlockBoundsIndex own(world.grid());
  for (usize s = 0; s < ids.size(); ++s) {
    const StepLog& sl = log.sessions[s];
    const CameraPath& path = paths[s];
    std::vector<usize> expect(std::min(sl.visible.size(), path.size()));
    for (usize i = 0; i < expect.size(); ++i) {
      expect[i] = own.visible_blocks(path[i]).size();
    }
    for (usize i = 0; i < sl.visible.size(); ++i) {
      if (sl.visible[i] != expect[i % path.size()]) {
        tally.fail("crowd: session " + std::to_string(s) + " step " +
                   std::to_string(i) + " visible count");
      }
    }
  }
  SessionSummary total;
  for (usize s = 0; s < ids.size(); ++s) {
    const SessionSummary sum = svc.close_session(ids[s]);
    if (sum.steps != log.sessions[s].step_ms.size()) {
      tally.fail("crowd: session " + std::to_string(s) + " step count");
    }
    total.steps += sum.steps;
    total.demand_requests += sum.demand_requests;
    total.fast_misses += sum.fast_misses;
    total.coalesced_hits += sum.coalesced_hits;
    total.prefetched += sum.prefetched;
    total.prefetch_shed += sum.prefetch_shed;
    total.prefetch_suppressed += sum.prefetch_suppressed;
  }
  const MetricsSnapshot snap = svc.metrics().snapshot();
  const std::pair<const char*, u64> pairs[] = {
      {"service.steps", total.steps},
      {"service.demand.requests", total.demand_requests},
      {"service.demand.fast_misses", total.fast_misses},
      {"service.demand.coalesced_hits", total.coalesced_hits},
      {"service.prefetch.blocks", total.prefetched},
      {"service.prefetch.shed", total.prefetch_shed},
      {"service.prefetch.suppressed", total.prefetch_suppressed},
  };
  for (const auto& [name, want] : pairs) {
    if (counter(snap, name) != static_cast<double>(want)) {
      tally.fail(std::string("crowd: summaries do not reconcile with ") + name);
    }
  }
  if (gauge(snap, "service.sessions.active") != 0.0) {
    tally.fail("crowd: service.sessions.active did not return to 0");
  }
}

// ---------------------------------------------------------------------------
// wire: STEP, then FETCH every block that entered the client's view.

struct RoundLog {
  std::vector<double> frame_ms, step_ms, fetch_ms;
  u64 steps = 0;
  u64 fetches = 0;
  u64 demand = 0;         ///< visible blocks stepped + blocks fetched
  u64 payload_bytes = 0;  ///< verified payload bytes
  double sim_s = 0.0;
  Tally tally;
};

/// Rounds of client `viewer` until `deadline` passed and `min_rounds` ran,
/// or exactly `max_rounds` rounds when that is set. `pace` (may be null)
/// holds the client in lockstep with the others.
void wire_rounds(WireClient& wc, usize viewer, const CameraPath& path,
                 const PayloadOracle& oracle, double deadline,
                 usize min_rounds, usize max_rounds, Lockstep* pace,
                 Tracer* tracer, RoundLog& log) {
  std::vector<BlockId> before;
  std::vector<FetchReply> replies;
  for (usize i = 0;; ++i) {
    if (pace != nullptr) pace->next(viewer, i);
    if (max_rounds > 0 ? i >= max_rounds
                       : (i >= min_rounds && now_s() >= deadline)) {
      break;
    }
    const Camera& cam = path[i % path.size()];
    const u64 request = (static_cast<u64>(viewer) << 32) | i;
    Tracer* const op = tracer_for(tracer, i);
    ScopedSpan round(op, "bench.round", request);
    ++log.tally.attempted;
    const double t0 = now_s();
    SessionStepResult sr;
    double t1 = t0;
    try {
      ScopedSpan s(op, "net.client_step", request);
      sr = wc.client.step(cam);
      t1 = now_s();
    } catch (const VizError& e) {
      log.tally.fail(std::string("wire: STEP failed: ") + e.what());
      log.step_ms.push_back(kInf);
      log.frame_ms.push_back(kInf);
      continue;
    }
    std::vector<BlockId> visible;
    {
      ScopedSpan s(op, "core.visible_blocks", request);
      visible = wc.own->visible_blocks(cam);
    }
    const std::vector<BlockId> wanted = entered(visible, before);
    replies.clear();
    bool round_ok = true;
    for (BlockId id : wanted) {
      ++log.tally.attempted;
      const double f0 = now_s();
      try {
        ScopedSpan s(op, "net.client_fetch", request);
        replies.push_back(wc.client.fetch(id));
        log.fetch_ms.push_back((now_s() - f0) * 1e3);
      } catch (const VizError& e) {
        log.tally.fail(std::string("wire: FETCH failed: ") + e.what());
        log.fetch_ms.push_back(kInf);
        round_ok = false;
      }
    }
    const double t2 = now_s();
    log.step_ms.push_back((t1 - t0) * 1e3);
    log.frame_ms.push_back(round_ok ? (t2 - t0) * 1e3 : kInf);
    ++log.steps;
    log.sim_s += sr.total_time;
    log.demand += sr.visible_blocks + replies.size();
    if (sr.visible_blocks != visible.size()) {
      log.tally.fail("wire: STEP visible_blocks " +
                     std::to_string(sr.visible_blocks) + " != client's " +
                     std::to_string(visible.size()));
    }
    for (usize k = 0; k < replies.size(); ++k) {
      if (oracle.matches(wanted[k], replies[k])) {
        ++log.fetches;
        log.payload_bytes += replies[k].payload.size();
      } else {
        log.tally.fail("wire: FETCH payload of block " +
                       std::to_string(wanted[k]) + " is wrong");
      }
    }
    before = std::move(visible);
  }
  if (pace != nullptr) pace->finish(viewer);
}

struct WireLog {
  std::vector<RoundLog> clients;
  double wall_s = 0.0;
};

WireLog wire_rounds_all(Stage& stage, const std::vector<CameraPath>& paths,
                        const PayloadOracle& oracle, double seconds,
                        Tracer* tracer) {
  WireLog log;
  log.clients.resize(stage.clients.size());
  std::vector<double> ends(stage.clients.size(), 0.0);
  std::latch go(static_cast<std::ptrdiff_t>(stage.clients.size()) + 1);
  std::atomic<double> start{0.0};
  Lockstep pace(stage.clients.size());
  std::vector<std::thread> threads;
  for (usize c = 0; c < stage.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      go.arrive_and_wait();
      wire_rounds(stage.clients[c], c, paths[c], oracle,
                  start.load() + seconds, 1, 0, &pace, tracer,
                  log.clients[c]);
      ends[c] = now_s();
    });
  }
  start.store(now_s());
  go.count_down();
  for (std::thread& t : threads) t.join();
  log.wall_s = *std::max_element(ends.begin(), ends.end()) - start.load();
  return log;
}

/// CLOSE every session (its summary must match the client's own counts),
/// disconnect, stop the server, and require every gauge back at 0.
void close_wire(Stage& stage, WireLog& log, Tally& tally) {
  for (usize c = 0; c < stage.clients.size(); ++c) {
    const RoundLog& rl = log.clients[c];
    try {
      const SessionSummary sum = stage.clients[c].client.close_session();
      if (sum.steps != rl.steps || sum.demand_requests != rl.demand) {
        tally.fail("wire: CLOSE summary of client " + std::to_string(c) +
                   " does not match its rounds");
      }
    } catch (const VizError& e) {
      tally.fail(std::string("wire: CLOSE failed: ") + e.what());
    }
  }
  stage.clients.clear();
  stage.server->stop();
  const MetricsSnapshot snap = stage.service->metrics().snapshot();
  if (gauge(snap, "net.connections.active") != 0.0 ||
      gauge(snap, "service.sessions.active") != 0.0) {
    tally.fail("wire: a connection or session gauge did not return to 0");
  }
}

// ---------------------------------------------------------------------------
// Probes: measure a layer the workload itself does not exercise, the same
// way on every workload.

struct CoreProbe {
  double visible_us = 0.0;
  double query_us = 0.0;
  double recall = 0.0;
  double precision = 0.0;
};

CoreProbe probe_core(const World& world, const std::vector<CameraPath>& paths,
                     usize cameras) {
  CoreProbe out;
  const BlockBoundsIndex own(world.grid());
  std::vector<double> vis_us, query_us;
  std::vector<u8> mask(world.grid().block_count(), 0);
  double hit = 0.0, vis_total = 0.0, pred_total = 0.0;
  for (const CameraPath& path : paths) {
    const usize n = std::min(cameras, path.size());
    std::vector<std::vector<BlockId>> sets(n);
    for (usize i = 0; i < n; ++i) {
      const double t0 = now_s();
      sets[i] = own.visible_blocks(path[i]);
      vis_us.push_back((now_s() - t0) * 1e6);
    }
    for (usize i = 0; i + 1 < n; ++i) {
      const double t0 = now_s();
      const std::vector<BlockId>& pred = world.table().query(path[i].position());
      query_us.push_back((now_s() - t0) * 1e6);
      for (BlockId id : pred) mask[id] = 1;
      for (BlockId id : sets[i + 1]) hit += mask[id];
      for (BlockId id : pred) mask[id] = 0;
      vis_total += static_cast<double>(sets[i + 1].size());
      pred_total += static_cast<double>(pred.size());
    }
  }
  out.visible_us = median(vis_us);
  out.query_us = median(query_us);
  out.recall = ratio(hit, vis_total);
  out.precision = ratio(hit, pred_total);
  return out;
}

/// One session alone, in process and then over the wire, on the same path:
/// the solo step, fetch_block and the wire's overhead over both.
struct NetProbe {
  double solo_step_ms = 0.0;
  double fetch_block_us = 0.0;
  double wire_step_us = 0.0;
  double wire_fetch_us = 0.0;
  double fetch_ms_p50 = 0.0;
  double fetch_ms_p99 = 0.0;
  double payload_mb_per_s = 0.0;
  double bytes_written_per_req = 0.0;
};

NetProbe probe_net(const World& world, const CameraPath& path,
                   const PayloadOracle& oracle, usize steps, Tally& tally) {
  NetProbe out;
  {
    auto svc = world.make_service();
    const SessionId sid = *svc->open_session();
    const BlockBoundsIndex own(world.grid());
    std::vector<double> step_ms, fetch_us;
    std::vector<BlockId> before;
    for (usize i = 0; i < steps; ++i) {
      const Camera& cam = path[i % path.size()];
      const double t0 = now_s();
      (void)svc->step(sid, cam);
      step_ms.push_back((now_s() - t0) * 1e3);
      std::vector<BlockId> visible = own.visible_blocks(cam);
      for (BlockId id : entered(visible, before)) {
        const double f0 = now_s();
        (void)svc->fetch_block(sid, id);
        fetch_us.push_back((now_s() - f0) * 1e6);
      }
      before = std::move(visible);
    }
    out.solo_step_ms = median(step_ms);
    out.fetch_block_us = median(fetch_us);
  }
  Stage stage;
  stage.service = world.make_service();
  stage.server = std::make_unique<NetServer>(*stage.service, NetServerConfig{});
  stage.server->start();
  connect_clients(world, stage, 1);
  WireLog log;
  log.clients.resize(1);
  const double t0 = now_s();
  wire_rounds(stage.clients[0], 0, path, oracle, 0.0, 0, steps, nullptr,
              nullptr, log.clients[0]);
  const double wall = now_s() - t0;
  const RoundLog& rl = log.clients[0];
  out.wire_step_us = median(rl.step_ms) * 1e3;
  out.wire_fetch_us = median(rl.fetch_ms) * 1e3;
  out.fetch_ms_p50 = p50({rl.fetch_ms}, kWarmupFetches);
  out.fetch_ms_p99 = p99({rl.fetch_ms}, kFetchWindow, kWarmupFetches);
  out.payload_mb_per_s = ratio(static_cast<double>(rl.payload_bytes) / 1e6, wall);
  close_wire(stage, log, tally);
  tally.merge(rl.tally);
  const MetricsSnapshot snap = stage.service->metrics().snapshot();
  out.bytes_written_per_req = ratio(counter(snap, "net.bytes.written"),
                                    counter(snap, "net.frames.received"));
  return out;
}

/// Codec calls on one 16 KB block: encode_fetch_ok and decode_fetch_ok.
std::pair<double, double> probe_codec(const World& world, usize reps,
                                      Tracer* tracer, Tally& tally) {
  const BlockId id = static_cast<BlockId>(world.grid().block_count() / 2);
  const u64 bytes = world.grid().block_bytes(id);
  std::vector<double> enc_us, dec_us;
  for (usize i = 0; i < reps; ++i) {
    double t0 = now_s();
    std::vector<u8> frame;
    {
      ScopedSpan s(tracer, "net.encode_fetch_ok", i);
      frame = encode_fetch_ok(id, true, false, 1e-4, bytes);
    }
    double t1 = now_s();
    enc_us.push_back((t1 - t0) * 1e6);
    ParsedFrame parsed;
    if (try_parse_frame(frame, kMaxResponsePayload, parsed) !=
        ParseStatus::kFrame) {
      tally.fail("codec: encoded FETCH-OK frame does not parse");
      continue;
    }
    t0 = now_s();
    std::optional<FetchReply> reply;
    {
      ScopedSpan s(tracer, "net.decode_fetch_ok", i);
      reply = decode_fetch_ok(parsed.body);
    }
    t1 = now_s();
    dec_us.push_back((t1 - t0) * 1e6);
    if (!reply || reply->block != id || reply->payload.size() != bytes) {
      tally.fail("codec: FETCH-OK round trip lost the block");
    }
  }
  return {median(enc_us), median(dec_us)};
}

/// The window's demand sequence (each step's visible set, sessions
/// interleaved one step at a time) replayed single-threaded into a fresh
/// hierarchy: ns per fetch.
double probe_storage(const World& world, const std::vector<CameraPath>& paths,
                     const std::vector<usize>& steps_per_session) {
  const BlockBoundsIndex own(world.grid());
  std::vector<BlockId> seq;
  std::vector<usize> step_end;
  usize longest = 0;
  for (usize n : steps_per_session) longest = std::max(longest, n);
  for (usize i = 0; i < longest; ++i) {
    for (usize s = 0; s < steps_per_session.size(); ++s) {
      if (i >= steps_per_session[s]) continue;
      const std::vector<BlockId> visible =
          own.visible_blocks(paths[s][i % paths[s].size()]);
      seq.insert(seq.end(), visible.begin(), visible.end());
      step_end.push_back(seq.size());
    }
  }
  MemoryHierarchy hier = world.make_hierarchy();
  usize k = 0;
  const double t0 = now_s();
  for (usize step = 0; step < step_end.size(); ++step) {
    for (; k < step_end[step]; ++k) (void)hier.fetch(seq[k], step + 1);
  }
  return ratio((now_s() - t0) * 1e9, static_cast<double>(seq.size()));
}

// ---------------------------------------------------------------------------
// Set-up: the world plus the workload's live system, several times.

struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<Stage> stage;  ///< destroyed as a whole: clients first
  std::vector<double> setup_s;
};

Setup timed_setups(const RunConfig& cfg, const WorldSpec& spec,
                   const Sizes& sizes) {
  Setup out;
  for (usize k = 0; k < sizes.setups; ++k) {
    out.stage.reset();
    out.world.reset();
    const double t0 = now_s();
    out.world = std::make_unique<World>(spec, worker_threads());
    out.stage = std::make_unique<Stage>(make_stage(*out.world, cfg.workload));
    out.setup_s.push_back(now_s() - t0);
  }
  return out;
}

/// Median of each set-up phase over `reps` timings (see
/// World::time_build_phases).
BuildTimes probe_build(World& world, usize reps) {
  std::vector<double> generate, importance, table;
  for (usize k = 0; k < reps; ++k) {
    const BuildTimes t = world.time_build_phases();
    generate.push_back(t.generate_s);
    importance.push_back(t.importance_s);
    table.push_back(t.table_s);
  }
  return {median(generate), median(importance), median(table)};
}

// ---------------------------------------------------------------------------
// One timed window of any workload, in one shape.

struct Window {
  Parts frame_ms, step_ms, fetch_ms;
  usize window = 0;  ///< tail window (operations) of frame_ms and step_ms
  double wall_s = 0.0;
  u64 steps = 0;
  std::vector<usize> steps_per_session;
  double fast_miss_rate = 0.0;
  double sim_ms_per_step = 0.0;
  bool exact = false;  ///< miss rate and sim time from a deterministic replay
  u64 payload_bytes = 0;
  HierarchyStats hier;  ///< counters right after the window
  MetricsSnapshot snap;
  FrameLog frames;  ///< explore only
};

void snapshot_counters(BlockService& svc, Window& w) {
  w.hier = svc.hierarchy().stats();
  w.snap = svc.metrics().snapshot();
}

Window explore_window(const World& world, Stage& stage,
                      const std::vector<CameraPath>& paths, const Sizes& sizes,
                      double seconds, Tracer* tracer, Tally& tally) {
  const CameraPath& path = paths[0];
  ResidentBrickSet bricks(world.grid());
  Window w;
  w.frames = explore_frames(world, *stage.service, stage.sessions[0], path,
                            seconds, sizes.exact_frames, bricks, tracer);
  snapshot_counters(*stage.service, w);
  const FrameLog& log = w.frames;
  tally.attempted += log.frame_ms.size();
  const std::vector<SessionStepResult> replay = replay_steps(
      world, path, std::max(sizes.replay_steps, log.steps.size()));
  check_explore(world, path, log, replay, tally);
  check_render(world, bricks, path[(log.steps.size() - 1) % path.size()],
               tally);

  double misses = 0.0, demand = 0.0, sim = 0.0;
  for (usize i = 0; i < sizes.replay_steps; ++i) {
    misses += static_cast<double>(replay[i].fast_misses);
    demand += static_cast<double>(replay[i].visible_blocks);
    sim += replay[i].total_time;
  }
  w.frame_ms = {log.frame_ms};
  w.step_ms = {log.step_ms};
  w.window = kFrameWindow;
  w.wall_s = log.wall_s;
  w.steps = log.frame_ms.size();
  w.steps_per_session = {log.frame_ms.size()};
  w.fast_miss_rate = ratio(misses, demand);
  w.sim_ms_per_step =
      ratio(sim * 1e3, static_cast<double>(sizes.replay_steps));
  w.exact = true;
  return w;
}

Window crowd_window(const World& world, Stage& stage,
                 const std::vector<CameraPath>& paths, double seconds,
                 Tracer* tracer, Tally& tally) {
  const CrowdLog log =
      crowd_steps(*stage.service, stage.sessions, paths, seconds, tracer);
  Window w;
  snapshot_counters(*stage.service, w);
  double sim_s = 0.0;
  for (const StepLog& s : log.sessions) {
    w.step_ms.push_back(s.step_ms);
    w.steps_per_session.push_back(s.step_ms.size());
    w.steps += s.step_ms.size();
    sim_s += s.sim_s;
  }
  w.frame_ms = w.step_ms;  // render is modelled: a crowd frame is its step
  w.window = kStepWindow;
  w.wall_s = log.wall_s;
  w.fast_miss_rate = ratio(counter(w.snap, "service.demand.fast_misses"),
                           counter(w.snap, "service.demand.requests"));
  w.sim_ms_per_step = ratio(sim_s * 1e3, static_cast<double>(w.steps));
  tally.attempted += w.steps;
  check_crowd(world, *stage.service, stage.sessions, paths, log, tally);
  return w;
}

Window wire_window(Stage& stage, const std::vector<CameraPath>& paths,
                const PayloadOracle& oracle, double seconds, Tracer* tracer,
                Tally& tally) {
  WireLog log = wire_rounds_all(stage, paths, oracle, seconds, tracer);
  Window w;
  snapshot_counters(*stage.service, w);
  close_wire(stage, log, tally);
  double sim_s = 0.0;
  for (const RoundLog& rl : log.clients) {
    w.frame_ms.push_back(rl.frame_ms);
    w.step_ms.push_back(rl.step_ms);
    w.fetch_ms.push_back(rl.fetch_ms);
    w.steps_per_session.push_back(rl.steps);
    w.steps += rl.steps;
    w.payload_bytes += rl.payload_bytes;
    sim_s += rl.sim_s;
    tally.merge(rl.tally);
  }
  w.window = kRoundWindow;
  w.wall_s = log.wall_s;
  w.fast_miss_rate = ratio(counter(w.snap, "service.demand.fast_misses"),
                           counter(w.snap, "service.demand.requests"));
  w.sim_ms_per_step = ratio(sim_s * 1e3, static_cast<double>(w.steps));
  return w;
}

Window run_window(const RunConfig& cfg, const World& world, Stage& stage,
                  const std::vector<CameraPath>& paths,
                  const PayloadOracle& oracle, const Sizes& sizes,
                  double seconds, Tracer* tracer, Tally& tally) {
  if (cfg.workload == "explore") {
    return explore_window(world, stage, paths, sizes, seconds, tracer, tally);
  }
  if (cfg.workload == "crowd") {
    return crowd_window(world, stage, paths, seconds, tracer, tally);
  }
  return wire_window(stage, paths, oracle, seconds, tracer, tally);
}

void add(std::vector<Metric>& out, const std::string& name,
         const std::string& unit, double value, bool exact = false,
         bool probe = false) {
  out.push_back({name, unit, value, exact, probe});
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<Metric> end_to_end_metrics(const Window& w, const Setup& setup,
                                       std::vector<Metric>& extra) {
  std::vector<Metric> m;
  add(m, "setup_s", "s", median(setup.setup_s));
  add(m, "frame_ms_p50", "ms", p50(w.frame_ms));
  add(m, "frame_ms_p99", "ms", p99(w.frame_ms, w.window));
  add(m, "step_ms_p50", "ms", p50(w.step_ms));
  add(m, "step_ms_p99", "ms", p99(w.step_ms, w.window));
  add(m, "steps_per_s", "1/s", ratio(static_cast<double>(w.steps), w.wall_s));
  add(m, "fast_miss_rate", "ratio", w.fast_miss_rate, w.exact);
  add(m, "sim_ms_per_step", "ms", w.sim_ms_per_step, w.exact);
  if (!w.fetch_ms.empty()) {
    add(extra, "fetch_ms_p50", "ms", p50(w.fetch_ms, kWarmupFetches));
    add(extra, "fetch_ms_p99", "ms",
        p99(w.fetch_ms, kFetchWindow, kWarmupFetches));
    add(extra, "payload_mb_per_s", "MB/s",
        ratio(static_cast<double>(w.payload_bytes) / 1e6, w.wall_s));
  }
  return m;
}

/// An explore run of `frames` frames on a fresh service (the render and
/// volume probe of crowd and wire).
FrameLog probe_frames(const World& world, const CameraPath& path,
                      usize frames) {
  auto svc = world.make_service();
  const SessionId sid = *svc->open_session();
  ResidentBrickSet bricks(world.grid());
  return explore_frames(world, *svc, sid, path, 0.0, frames, bricks, nullptr);
}

/// Per-layer metrics of the traced window `t`, whose `spans` cover every
/// other operation of each client (tracer_for). Layers the workload does
/// not exercise are measured by probes after the window; `build` holds the
/// set-up phases' times.
std::vector<Metric> layer_metrics(const Sizes& sizes, const World& world,
                                  const BuildTimes& build,
                                  const std::vector<CameraPath>& paths,
                                  const PayloadOracle& oracle, const Window& t,
                                  const std::vector<Span>& spans,
                                  Tracer* tracer, Tally& tally) {
  std::vector<Metric> m;
  const bool fp = t.frames.frame_ms.empty();
  const FrameLog f =
      fp ? probe_frames(world, paths[0], sizes.probe_frames) : t.frames;
  const usize nexact =
      std::min(fp ? sizes.probe_frames : sizes.exact_frames, f.samples.size());
  u64 exact_samples = 0, exact_reads = 0;
  for (usize i = 0; i < nexact; ++i) {
    exact_samples += f.samples[i];
    exact_reads += f.reads[i];
  }
  const double frames = static_cast<double>(nexact);
  add(m, "render.frame_ms", "ms", median(f.render_ms), false, fp);
  add(m, "render.ns_per_sample", "ns",
      ratio(f.render_s * 1e9, static_cast<double>(f.total_samples)), false, fp);
  add(m, "render.samples_per_frame", "count",
      ratio(static_cast<double>(exact_samples), frames), !fp, fp);
  add(m, "render.skipped_ratio", "ratio",
      ratio(static_cast<double>(f.total_skipped),
            static_cast<double>(f.total_samples + f.total_skipped)),
      false, fp);
  add(m, "volume.read_us", "us", median(f.read_us), false, fp);
  add(m, "volume.reads_per_frame", "count",
      ratio(static_cast<double>(exact_reads), frames), !fp, fp);
  add(m, "volume.read_mb_per_s", "MB/s",
      ratio(static_cast<double>(f.read_bytes) / 1e6, f.read_s), false, fp);
  add(m, "volume.generate_s", "s", build.generate_s);

  const CoreProbe core = probe_core(world, paths, sizes.core_cameras);
  add(m, "core.visible_us", "us", core.visible_us);
  add(m, "core.query_us", "us", core.query_us);
  add(m, "core.importance_build_s", "s", build.importance_s);
  add(m, "core.table_build_s", "s", build.table_s);
  add(m, "core.prediction_recall", "ratio", core.recall, true);
  add(m, "core.prediction_precision", "ratio", core.precision, true);

  const double steps = counter(t.snap, "service.steps");
  u64 evictions = 0, bypasses = 0;
  for (const CacheStats& level : t.hier.level) {
    evictions += level.evictions;
    bypasses += level.bypasses;
  }
  const double fetch_ns = probe_storage(world, paths, t.steps_per_session);
  add(m, "storage.fetch_ns", "ns", fetch_ns);
  add(m, "storage.evictions_per_step", "count",
      ratio(static_cast<double>(evictions), steps));
  add(m, "storage.bypasses_per_step", "count",
      ratio(static_cast<double>(bypasses), steps));
  add(m, "storage.backing_reads_per_step", "count",
      ratio(static_cast<double>(t.hier.demand_backing_reads), steps));
  add(m, "storage.prefetch_backing_reads_per_step", "count",
      ratio(static_cast<double>(t.hier.prefetch_backing_reads), steps));

  const NetProbe net =
      probe_net(world, paths[0], oracle, sizes.probe_steps, tally);
  const double prefetched = counter(t.snap, "service.prefetch.blocks");
  const double suppressed = counter(t.snap, "service.prefetch.suppressed");
  add(m, "service.solo_step_ms", "ms", net.solo_step_ms, false, true);
  add(m, "service.contention_ratio", "ratio",
      ratio(p50(t.step_ms), net.solo_step_ms));
  add(m, "service.fetch_block_us", "us", net.fetch_block_us, false, true);
  add(m, "service.coalesced_per_step", "count",
      ratio(counter(t.snap, "service.demand.coalesced_hits"), steps));
  add(m, "service.prefetch_per_step", "count", ratio(prefetched, steps));
  add(m, "service.prefetch_suppressed_ratio", "ratio",
      ratio(suppressed, prefetched + suppressed));

  // On wire the fetch numbers come from the window, elsewhere from the
  // single-client probe.
  const bool np = t.fetch_ms.empty();
  const auto [encode_us, decode_us] =
      probe_codec(world, sizes.codec_reps, tracer, tally);
  add(m, "net.encode_fetch_us", "us", encode_us, false, true);
  add(m, "net.decode_fetch_us", "us", decode_us, false, true);
  add(m, "net.step_overhead_us", "us",
      net.wire_step_us - net.solo_step_ms * 1e3, false, true);
  add(m, "net.fetch_overhead_us", "us",
      net.wire_fetch_us - net.fetch_block_us, false, true);
  add(m, "net.bytes_written_per_req", "B",
      np ? net.bytes_written_per_req
         : ratio(counter(t.snap, "net.bytes.written"),
                 counter(t.snap, "net.frames.received")),
      false, np);
  add(m, "net.fetch_ms_p50", "ms",
      np ? net.fetch_ms_p50 : p50(t.fetch_ms, kWarmupFetches), false, np);
  add(m, "net.fetch_ms_p99", "ms",
      np ? net.fetch_ms_p99 : p99(t.fetch_ms, kFetchWindow, kWarmupFetches),
      false, np);
  add(m, "net.payload_mb_per_s", "MB/s",
      np ? net.payload_mb_per_s
         : ratio(static_cast<double>(t.payload_bytes) / 1e6, t.wall_s),
      false, np);

  // The even operations of each client were traced, the odd ones not.
  std::vector<double> traced_ms, plain_ms;
  for (const std::vector<double>& part : t.frame_ms) {
    for (usize i = 0; i < part.size(); ++i) {
      (i % 2 == 0 ? traced_ms : plain_ms).push_back(part[i]);
    }
  }
  const double traced_share = ratio(
      static_cast<double>(traced_ms.size()),
      static_cast<double>(traced_ms.size() + plain_ms.size()));

  // Self time per layer over the traced operations. The service calls into
  // storage are invisible from outside, so storage's share is attributed:
  // the replayed cost of one hierarchy fetch times the traced operations'
  // share of the window's hierarchy requests, taken out of the service
  // spans that contain them.
  std::map<std::string, double> self = self_seconds_by_layer(spans);
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  const double hier_requests =
      traced_share * static_cast<double>(t.hier.demand_requests +
                                         t.hier.prefetch_requests);
  const double storage_s =
      std::min(self["service"], fetch_ns * 1e-9 * hier_requests);
  self["service"] -= storage_s;
  self["storage"] += storage_s;
  for (const char* layer : {"render", "volume", "core", "storage", "service",
                            "net", "bench"}) {
    add(m, std::string(layer) + ".self_share", "ratio",
        ratio(self[layer], total));
  }
  add(m, "trace.overhead_ms", "ms", median(traced_ms) - median(plain_ms));
  add(m, "trace.spans_per_op", "count",
      ratio(static_cast<double>(spans.size()),
            static_cast<double>(traced_ms.size())));
  return m;
}

}  // namespace

RunReport run_workload(const RunConfig& cfg) {
  if (cfg.workload != "explore" && cfg.workload != "crowd" &&
      cfg.workload != "wire") {
    throw InvalidArgument("unknown workload '" + cfg.workload + "'");
  }
  const WorldSpec spec = cfg.smoke ? WorldSpec::smoke() : WorldSpec{};
  const Sizes sizes = sizes_for(cfg.smoke);
  Setup setup = timed_setups(cfg, spec, sizes);
  const World& world = *setup.world;
  const std::vector<CameraPath> paths = make_viewer_paths(
      cfg.seed, session_count(cfg.workload), sizes.path_len,
      WorkbenchSpec{}.view_angle_deg, RandomPathSpec{}.distance_min);
  const PayloadOracle oracle(world.grid());

  // A traced run traces every other operation of each client (tracer_for).
  RunReport report;
  Tally tally;
  Tracer tracer;
  const Window window =
      run_window(cfg, world, *setup.stage, paths, oracle, sizes, cfg.seconds,
                 cfg.trace ? &tracer : nullptr, tally);
  if (!cfg.trace) {
    report.metrics = end_to_end_metrics(window, setup, report.extra);
  } else {
    const std::vector<Span> spans = tracer.spans();
    setup.stage.reset();  // the build probe rebuilds T_visible
    const BuildTimes build = probe_build(*setup.world, sizes.setups);
    report.metrics = layer_metrics(sizes, world, build, paths, oracle, window,
                                   spans, &tracer, tally);
    if (!cfg.trace_out.empty()) tracer.write_json(cfg.trace_out);
  }
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.errors = tally.errors;
  add(report.extra, "error_rate", "ratio",
      ratio(static_cast<double>(report.failed),
            static_cast<double>(report.attempted)));
  return report;
}

}  // namespace vizcache::perfbench
