// Unit tests of the benchmark's own helpers: percentiles and ratios, the
// span recorder with its self-time computation, and the viewer tours.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "lockstep.hpp"
#include "path.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace vizcache;
using namespace vizcache::perfbench;

TEST(Stats, PercentileInterpolatesLinearly) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 3.97);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Stats, PercentileClampsOutOfRangeRanks) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 2.0), 2.0);
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0, 7.0}), 4.0);
}

TEST(Stats, RatioOfZeroDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(0.0, 0.0), 0.0);
}

TEST(Stats, TailSkipsOnlyTheWarmUp) {
  std::vector<double> a(300, 1.0);
  for (usize i = 0; i < 10; ++i) a[i] = 50.0;  // cold first operations
  for (usize i = 100; i < 110; ++i) a[i] = 9.0;  // a later burst
  // The warm-up is left out; the burst (10 of 290 samples) is the tail.
  EXPECT_DOUBLE_EQ(tail_percentile({a}, 10, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(tail_percentile({a}, 10, 0.5), 1.0);
  // Nothing left after the warm-up: the percentile of everything.
  EXPECT_DOUBLE_EQ(tail_percentile({{1.0, 2.0, 3.0}}, 10, 1.0), 3.0);
}

TEST(Stats, TailPoolsEveryClientAfterItsOwnWarmUp) {
  std::vector<double> fast(100, 1.0);
  std::vector<double> slow(100, 9.0);
  fast[0] = 100.0;
  slow[0] = 100.0;
  // Each part drops its first sample; the pooled 99 + 99 samples are half
  // 1s and half 9s.
  EXPECT_DOUBLE_EQ(tail_percentile({fast, slow}, 1, 1.0), 9.0);
  EXPECT_DOUBLE_EQ(tail_percentile({fast, slow}, 1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(tail_percentile({fast, slow}, 1, 0.5), 5.0);
}

TEST(Stats, MeanOfWindowTailsCountsEveryWindow) {
  std::vector<double> a(310, 1.0);
  for (usize i = 0; i < 10; ++i) a[i] = 50.0;  // cold first operations
  a[150] = 31.0;  // one stall in the second of three windows
  // Window maxima are 1, 31, 1; window p99s are 1, 1 + 30 * 0.01 (rank
  // 98.01 of 0..99 interpolates towards the stall), 1.
  EXPECT_DOUBLE_EQ(mean_window_percentile({a}, 10, 100, 1.0), 11.0);
  EXPECT_NEAR(mean_window_percentile({a}, 10, 100, 0.99),
              (1.0 + (1.0 + 30.0 * 0.01) + 1.0) / 3.0, 1e-12);
  // Without a whole window: the pooled tail.
  EXPECT_DOUBLE_EQ(mean_window_percentile({{1.0, 2.0, 3.0}}, 0, 100, 1.0),
                   3.0);
}

TEST(Stats, WindowsNeverStraddleClients) {
  const std::vector<double> fast(150, 1.0);
  const std::vector<double> slow(150, 9.0);
  // Each part has one whole window of 100 (the partial rest is dropped):
  // the tails are 1 and 9.
  EXPECT_DOUBLE_EQ(mean_window_percentile({fast, slow}, 0, 100, 0.99), 5.0);
}

TEST(Stats, PercentileOfInfiniteFailureIsInfinite) {
  // A failed operation is recorded as an infinite latency and must show up
  // in the tail rather than vanish.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(percentile({1.0, 2.0, inf}, 1.0), inf);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, inf}, 0.5), 2.0);
}

Span make_span(const char* name, u64 id, u64 parent, double start,
               double end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(SelfTime, LayerIsTheNamePrefix) {
  EXPECT_EQ(span_layer("render.raycast_packet"), "render");
  EXPECT_EQ(span_layer("bench"), "bench");
}

TEST(SelfTime, ChildrenAreSubtractedFromTheirParent) {
  const std::vector<Span> spans = {
      make_span("bench.frame", 1, 0, 0.0, 10.0),
      make_span("service.step", 2, 1, 0.0, 2.0),
      make_span("render.raycast_packet", 3, 1, 5.0, 9.0),
  };
  const auto self = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 4.0);
  EXPECT_DOUBLE_EQ(self.at("service"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("render"), 4.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      make_span("bench.frame", 1, 0, 0.0, 10.0),
      make_span("volume.read_block", 2, 1, 1.0, 4.0),
      make_span("volume.read_block", 3, 1, 3.0, 6.0),
  };
  const auto self = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("volume"), 6.0);
}

TEST(SelfTime, ChildTimeOutsideTheParentIsIgnored) {
  const std::vector<Span> spans = {
      make_span("bench.frame", 1, 0, 0.0, 4.0),
      make_span("service.step", 2, 1, 2.0, 7.0),
  };
  const auto self = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("service"), 5.0);
}

TEST(SelfTime, GrandchildrenReduceOnlyTheirOwnParent) {
  const std::vector<Span> spans = {
      make_span("bench.frame", 1, 0, 0.0, 10.0),
      make_span("service.resident_fast", 2, 1, 0.0, 8.0),
      make_span("volume.read_block", 3, 2, 1.0, 7.0),
  };
  const auto self = self_seconds_by_layer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("service"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("volume"), 6.0);
}

TEST(Tracer, RecordsNestingAndRequestIds) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "bench.frame", 7);
    { ScopedSpan inner(&tracer, "service.step", 7); }
    { ScopedSpan inner(&tracer, "render.raycast_packet", 7); }
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_NE(spans[1].id, spans[2].id);
  for (const Span& s : spans) {
    EXPECT_EQ(s.request, 7u);
    EXPECT_LE(s.start_s, s.end_s);
  }
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[2].end_s);
}

TEST(Tracer, ThreadsGetDistinctIdsAndNoCrossThreadParents) {
  Tracer tracer;
  auto work = [&tracer](u64 request) {
    ScopedSpan outer(&tracer, "bench.round", request);
    ScopedSpan inner(&tracer, "net.client_step", request);
  };
  std::thread a(work, 1);
  std::thread b(work, 2);
  a.join();
  b.join();
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    bool found = false;
    for (const Span& p : spans) {
      if (p.id == s.parent) {
        found = true;
        EXPECT_EQ(p.request, s.request);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Tracer, NullTracerRecordsNothing) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "bench.frame", 1);
    ScopedSpan inner(nullptr, "service.step", 1);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "bench.frame");
}

TEST(Tracer, ANewTracerDoesNotSeeAnOldOnesSpans) {
  {
    Tracer first;
    ScopedSpan s(&first, "service.step", 1);
  }
  Tracer second;
  { ScopedSpan s(&second, "render.raycast_packet", 2); }
  const std::vector<Span> spans = second.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].request, 2u);
  EXPECT_EQ(spans[0].parent, 0u);
}

/// Waits up to two seconds for `reached` to equal `want`.
bool reaches(const std::atomic<u64>& reached, u64 want) {
  for (int k = 0; k < 2000 && reached.load() != want; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return reached.load() == want;
}

TEST(Lockstep, ALeaderWaitsForTheSlowestViewer) {
  constexpr u64 kLead = Lockstep::kMaxLead;
  Lockstep pace(2);
  std::atomic<u64> started{0};  // steps viewer 0 was allowed to start
  std::thread leader([&] {
    for (u64 i = 0; i < 3 * kLead; ++i) {
      pace.next(0, i);
      started = i + 1;
    }
    pace.finish(0);
  });
  // Viewer 1 has done nothing: viewer 0 may start steps 0..kLead only.
  EXPECT_TRUE(reaches(started, kLead + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(started.load(), kLead + 1);
  pace.next(1, kLead);  // viewer 1 finished kLead steps
  EXPECT_TRUE(reaches(started, 2 * kLead + 1));
  pace.finish(1);  // a finished viewer holds nobody back
  EXPECT_TRUE(reaches(started, 3 * kLead));
  leader.join();
}

TEST(Tour, EveryStepTurnsFiveToTenDegrees) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    const Tour tour = make_tour(seed, 3000, 10.0, 3.0);
    ASSERT_EQ(tour.path.size(), 3000u);
    for (usize i = 1; i < tour.path.size(); ++i) {
      const Vec3& a = tour.path[i - 1].position();
      const Vec3& b = tour.path[i].position();
      ASSERT_TRUE(std::isfinite(b.x) && std::isfinite(b.y) &&
                  std::isfinite(b.z));
      EXPECT_NEAR(b.norm(), 3.0, 1e-9);
      const double deg = rad_to_deg(angle_between(a, b));
      EXPECT_LE(deg, kStepMaxDeg + 1e-6) << "seed " << seed << " step " << i;
      EXPECT_GE(deg, kStepMinDeg - 1e-6) << "seed " << seed << " step " << i;
    }
  }
}

TEST(Tour, OneCycleSeesEveryOctant) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    const Tour tour = make_tour(seed, 3000, 10.0, 3.0);
    ASSERT_GT(tour.cycle, 48u);
    ASSERT_LT(tour.cycle, 3000u);
    bool seen[8] = {};
    for (usize i = 0; i < tour.cycle; ++i) {
      const Vec3& p = tour.path[i].position();
      seen[(p.x > 0 ? 1 : 0) | (p.y > 0 ? 2 : 0) | (p.z > 0 ? 4 : 0)] = true;
    }
    for (bool s : seen) EXPECT_TRUE(s) << "seed " << seed;
  }
}

TEST(Tour, SameSeedSamePathOtherSeedOtherPath) {
  const CameraPath a = make_tour(7, 500, 10.0, 3.0).path;
  const CameraPath b = make_tour(7, 500, 10.0, 3.0).path;
  const CameraPath c = make_tour(8, 500, 10.0, 3.0).path;
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position().x, b[i].position().x);
    EXPECT_EQ(a[i].position().z, b[i].position().z);
  }
  EXPECT_NE(a[10].position().x, c[10].position().x);
}

TEST(Tour, ViewersNeverShareACamera) {
  const std::vector<CameraPath> paths = make_viewer_paths(3, 3, 2000, 10.0, 3.0);
  ASSERT_EQ(paths.size(), 3u);
  for (usize i = 0; i < 2000; ++i) {
    for (usize v = 1; v < 3; ++v) {
      EXPECT_GT(distance(paths[0][i].position(), paths[v][i].position()), 1e-6);
    }
  }
}
