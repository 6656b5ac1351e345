#include "util/step_timeline.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "util/error.hpp"

namespace vizcache {
namespace {

StepEvent make(StepEvent::Kind kind, u64 step, u32 worker, SimSeconds start,
               SimSeconds end, usize blocks = 0) {
  return {kind, step, worker, start, end, blocks};
}

TEST(StepTimeline, RecordsInOrderAndFilters) {
  StepTimeline tl;
  EXPECT_TRUE(tl.empty());
  tl.record(make(StepEvent::Kind::kFetch, 1, 0, 0.0, 2.0, 5));
  tl.record(make(StepEvent::Kind::kRender, 1, 0, 2.0, 3.0));
  tl.record(make(StepEvent::Kind::kFetch, 2, 0, 3.0, 3.5, 1));
  EXPECT_EQ(tl.size(), 3u);
  auto fetches = tl.events_of(StepEvent::Kind::kFetch);
  ASSERT_EQ(fetches.size(), 2u);
  EXPECT_EQ(fetches[0].step, 1u);
  EXPECT_EQ(fetches[0].blocks, 5u);
  EXPECT_EQ(fetches[1].step, 2u);
  EXPECT_DOUBLE_EQ(tl.span_end(), 3.5);
}

TEST(StepTimeline, BoundedRingKeepsTheNewestEventsInOrder) {
  StepTimeline tl(3);
  EXPECT_EQ(tl.capacity(), 3u);
  for (u64 step = 1; step <= 7; ++step) {
    tl.record(make(StepEvent::Kind::kFetch, step, 0, 0.0, 1.0));
  }
  EXPECT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl.dropped(), 4u);
  const std::vector<StepEvent> events = tl.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, 5u);
  EXPECT_EQ(events[1].step, 6u);
  EXPECT_EQ(events[2].step, 7u);
  EXPECT_EQ(tl.events_of(StepEvent::Kind::kFetch).front().step, 5u);
  tl.clear();
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.dropped(), 0u);
  tl.record(make(StepEvent::Kind::kFetch, 8, 0, 0.0, 1.0));
  EXPECT_EQ(tl.events().front().step, 8u);
  EXPECT_THROW(StepTimeline(0), InvalidArgument);
}

TEST(StepTimeline, UnboundedTimelineDropsNothing) {
  StepTimeline tl;
  for (u64 step = 0; step < 100; ++step) {
    tl.record(make(StepEvent::Kind::kRender, step, 0, 0.0, 1.0));
  }
  EXPECT_EQ(tl.size(), 100u);
  EXPECT_EQ(tl.capacity(), 0u);
  EXPECT_EQ(tl.dropped(), 0u);
}

TEST(StepTimeline, RejectsNegativeSpans) {
  StepTimeline tl;
  EXPECT_THROW(tl.record(make(StepEvent::Kind::kFetch, 1, 0, 2.0, 1.0)),
               InvalidArgument);
}

TEST(StepTimeline, KindNames) {
  EXPECT_STREQ(step_event_kind_name(StepEvent::Kind::kFetch), "fetch");
  EXPECT_STREQ(step_event_kind_name(StepEvent::Kind::kLookup), "lookup");
  EXPECT_STREQ(step_event_kind_name(StepEvent::Kind::kPrefetch), "prefetch");
  EXPECT_STREQ(step_event_kind_name(StepEvent::Kind::kRender), "render");
}

TEST(StepTimeline, OverlapSumsSameWorkerIntersections) {
  StepTimeline tl;
  // Worker 0: render [2, 5], prefetch [3, 6] -> overlap 2.
  tl.record(make(StepEvent::Kind::kRender, 1, 0, 2.0, 5.0));
  tl.record(make(StepEvent::Kind::kPrefetch, 1, 0, 3.0, 6.0, 2));
  // Worker 1's prefetch overlaps worker 0's render in time but not in lane.
  tl.record(make(StepEvent::Kind::kPrefetch, 1, 1, 2.0, 5.0, 1));
  EXPECT_DOUBLE_EQ(
      tl.overlap_seconds(StepEvent::Kind::kRender, StepEvent::Kind::kPrefetch),
      2.0);
  // Serial spans never overlap.
  EXPECT_DOUBLE_EQ(
      tl.overlap_seconds(StepEvent::Kind::kFetch, StepEvent::Kind::kRender),
      0.0);
}

// Golden snapshot of the Chrome trace-event export: the exact byte shape
// chrome://tracing and ui.perfetto.dev consume. Deliberately brittle — any
// change to the export format must be a conscious decision here too.
TEST(StepTimeline, ChromeTraceGolden) {
  StepTimeline tl;
  tl.record(make(StepEvent::Kind::kFetch, 1, 0, 0.0, 0.5e-6, 3));
  tl.record(make(StepEvent::Kind::kRender, 1, 0, 0.5e-6, 2e-6));
  tl.record(make(StepEvent::Kind::kPrefetch, 1, 0, 1e-6, 1.5e-6, 2));
  const std::string expected = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "vizcache simulated pipeline"}},
    {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "w0 fetch+render"}},
    {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "w0 lookup+prefetch"}},
    {"ph": "X", "pid": 0, "tid": 0, "name": "fetch", "cat": "sim", "ts": 0.000, "dur": 0.500, "args": {"step": 1, "blocks": 3}},
    {"ph": "X", "pid": 0, "tid": 0, "name": "render", "cat": "sim", "ts": 0.500, "dur": 1.500, "args": {"step": 1, "blocks": 0}},
    {"ph": "X", "pid": 0, "tid": 1, "name": "prefetch", "cat": "sim", "ts": 1.000, "dur": 0.500, "args": {"step": 1, "blocks": 2}}
  ]
})";
  EXPECT_EQ(tl.chrome_trace_json(), expected);
}

TEST(StepTimeline, WriteChromeTraceRoundTrips) {
  StepTimeline tl;
  tl.record(make(StepEvent::Kind::kFetch, 1, 0, 0.0, 1e-6, 1));
  const std::string path = testing::TempDir() + "/vizcache_trace_test.json";
  tl.write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, tl.chrome_trace_json() + "\n");
}

TEST(StepTimeline, WriteChromeTraceThrowsOnBadPath) {
  StepTimeline tl;
  EXPECT_THROW(tl.write_chrome_trace("/nonexistent-dir/trace.json"), IoError);
}

}  // namespace
}  // namespace vizcache
