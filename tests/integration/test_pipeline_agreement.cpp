// Degenerate configurations of every Algorithm 1 implementation must agree
// with VizPipeline bit for bit: ParallelPipeline with one worker,
// TemporalPipeline with one timestep and a BlockService with one session
// run the same preload, demand fetches and prefetch plan, so every step's
// counts and simulated times compare with ==. The grid has uneven edge
// bricks, so a prefetch candidate too large for what is left of the DRAM
// budget can be followed by a smaller one that would fit: that is where a
// pipeline that skips the large block instead of stopping (Algorithm 1's
// rule) drifts from the others.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "core/temporal.hpp"
#include "core/workbench.hpp"
#include "service/block_service.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

constexpr double kCacheRatio = 0.5;

class PipelineAgreement : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 70^3 voxels of 3d_ball in 16^3 bricks: the last brick of each axis is
    // 6 voxels thick, so blocks come in four sizes (16,384 B down to 864 B).
    WorkbenchSpec spec;
    spec.omega = {8, 16, 3, 2.5, 3.5};
    spec.cache_ratio = kCacheRatio;
    bench_ = std::make_unique<Workbench>(
        spec, std::make_unique<SyntheticBlockStore>(
                  make_ball_volume({70, 70, 70}), Dims3{16, 16, 16}));
  }
  static void TearDownTestSuite() { bench_.reset(); }

  static const BlockGrid& grid() { return bench_->grid(); }

  static MemoryHierarchy make_hierarchy() {
    return MemoryHierarchy::paper_testbed(
        bench_->dataset_bytes(), kCacheRatio, PolicyKind::kLru,
        [g = &grid()](BlockId id) { return g->block_bytes(id); });
  }

  static PipelineConfig make_config() {
    PipelineConfig cfg;
    cfg.app_aware = true;
    cfg.sigma_bits = bench_->sigma_bits();
    return cfg;
  }

  static CameraPath path() {
    RandomPathSpec rp;
    rp.step_min_deg = 4.0;
    rp.step_max_deg = 6.0;
    rp.positions = 40;
    rp.seed = 99;
    return make_random_path(rp);
  }

  static RunResult reference(const CameraPath& p) {
    VizPipeline viz(grid(), make_hierarchy(), make_config(), &bench_->table(),
                    &bench_->importance());
    return viz.run(p);
  }

  /// `got` (a StepResult or SessionStepResult) equals `want` exactly.
  template <class Step>
  static void expect_same_step(const StepResult& want, const Step& got,
                               usize i) {
    SCOPED_TRACE(::testing::Message() << "path step " << i);
    EXPECT_EQ(got.step, want.step);
    EXPECT_EQ(got.visible_blocks, want.visible_blocks);
    EXPECT_EQ(got.fast_misses, want.fast_misses);
    EXPECT_EQ(got.prefetched, want.prefetched);
    EXPECT_EQ(got.io_time, want.io_time);
    EXPECT_EQ(got.lookup_time, want.lookup_time);
    EXPECT_EQ(got.prefetch_time, want.prefetch_time);
    EXPECT_EQ(got.render_time, want.render_time);
    EXPECT_EQ(got.total_time, want.total_time);
  }

  static std::unique_ptr<Workbench> bench_;
};

std::unique_ptr<Workbench> PipelineAgreement::bench_;

// The agreement tests below only mean something while the grid keeps its
// uneven blocks and the path keeps prefetching.
TEST_F(PipelineAgreement, GridHasUnevenBlocksAndThePathPrefetches) {
  std::set<u64> sizes;
  for (BlockId id = 0; id < grid().block_count(); ++id) {
    sizes.insert(grid().block_bytes(id));
  }
  EXPECT_EQ(sizes.size(), 4u);
  const RunResult want = reference(path());
  usize prefetched = 0;
  for (const StepResult& s : want.steps) prefetched += s.prefetched;
  EXPECT_GT(prefetched, 0u);
}

TEST_F(PipelineAgreement, ParallelOneWorkerEqualsVizPipeline) {
  const CameraPath p = path();
  const RunResult want = reference(p);
  ParallelPipeline par(grid(), partition_round_robin(grid(), 1), make_config(),
                       kCacheRatio, &bench_->table(), &bench_->importance());
  const ParallelRunResult got = par.run(p);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (usize i = 0; i < p.size(); ++i) {
    expect_same_step(want.steps[i], got.steps[i], i);
  }
  EXPECT_EQ(got.fast_miss_rate, want.fast_miss_rate);
}

TEST_F(PipelineAgreement, TemporalOneTimestepEqualsVizPipeline) {
  const CameraPath p = path();
  const RunResult want = reference(p);
  TemporalConfig cfg;
  cfg.app_aware = true;
  cfg.sigma_bits = bench_->sigma_bits();
  PlaybackSpec playback;
  playback.timesteps = 1;
  const std::vector<ImportanceTable> importance{bench_->importance()};
  TemporalPipeline temporal(
      grid(), make_temporal_hierarchy(grid(), 1, kCacheRatio, PolicyKind::kLru),
      cfg, playback, &bench_->table(), &importance);
  const RunResult got = temporal.run(p);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (usize i = 0; i < p.size(); ++i) {
    expect_same_step(want.steps[i], got.steps[i], i);
  }
  EXPECT_EQ(got.fast_miss_rate, want.fast_miss_rate);
  EXPECT_EQ(got.total_miss_rate, want.total_miss_rate);

  // Same run loop, so the same timeline and the same instruments.
  const std::vector<StepEvent> want_events = want.timeline.events();
  const std::vector<StepEvent> got_events = got.timeline.events();
  ASSERT_EQ(got_events.size(), want_events.size());
  for (usize i = 0; i < want_events.size(); ++i) {
    EXPECT_EQ(got_events[i].kind, want_events[i].kind);
    EXPECT_EQ(got_events[i].step, want_events[i].step);
    EXPECT_EQ(got_events[i].start, want_events[i].start);
    EXPECT_EQ(got_events[i].end, want_events[i].end);
    EXPECT_EQ(got_events[i].blocks, want_events[i].blocks);
  }
  ASSERT_EQ(got.metrics.counters.size(), want.metrics.counters.size());
  for (usize i = 0; i < want.metrics.counters.size(); ++i) {
    EXPECT_EQ(got.metrics.counters[i].name, want.metrics.counters[i].name);
    EXPECT_EQ(got.metrics.counters[i].value, want.metrics.counters[i].value);
  }
  ASSERT_EQ(got.metrics.gauges.size(), want.metrics.gauges.size());
  for (usize i = 0; i < want.metrics.gauges.size(); ++i) {
    EXPECT_EQ(got.metrics.gauges[i].name, want.metrics.gauges[i].name);
    EXPECT_EQ(got.metrics.gauges[i].value, want.metrics.gauges[i].value);
  }
  ASSERT_EQ(got.metrics.histograms.size(), want.metrics.histograms.size());
  for (usize i = 0; i < want.metrics.histograms.size(); ++i) {
    EXPECT_EQ(got.metrics.histograms[i].name, want.metrics.histograms[i].name);
  }
}

TEST_F(PipelineAgreement, SingleSessionServiceEqualsVizPipeline) {
  const CameraPath p = path();
  const RunResult want = reference(p);
  ServiceConfig cfg;
  cfg.app_aware = true;
  cfg.preload_important = true;  // VizPipeline preloads by default
  cfg.sigma_bits = bench_->sigma_bits();
  cfg.leader_pace_seconds = 0.0;
  cfg.aggregate_prefetch_budget_bytes = 0;
  BlockService svc(grid(), make_hierarchy(), cfg, &bench_->table(),
                   &bench_->importance());
  const std::optional<SessionId> session = svc.open_session();
  ASSERT_TRUE(session.has_value());
  for (usize i = 0; i < p.size(); ++i) {
    expect_same_step(want.steps[i], svc.step(*session, p[i]), i);
  }
  EXPECT_EQ(svc.hierarchy().stats().fast_miss_rate(), want.fast_miss_rate);
}

}  // namespace
}  // namespace vizcache
