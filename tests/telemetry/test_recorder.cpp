// Telemetry recorder: the enabled/disabled gate, thread-local span
// buffers (including flush-at-thread-exit), metrics instruments, and the
// disabled-mode zero-allocation guarantee (docs/observability.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "telemetry/recorder.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter for the zero-allocation test. Sanitizers
// install their own allocator interceptors, so the override (and the test
// that needs it) is compiled out under TSan/ASan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FASTFIT_SANITIZED 1
#endif
#if !defined(FASTFIT_SANITIZED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FASTFIT_SANITIZED 1
#endif
#endif

#ifndef FASTFIT_SANITIZED

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // FASTFIT_SANITIZED

namespace fastfit::telemetry {
namespace {

// The recorder is a process-wide singleton; every test starts from a
// clean, enabled state and leaves the recorder disabled and empty.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = Recorder::instance();
    rec.enable();
    rec.reset();
  }
  void TearDown() override {
    auto& rec = Recorder::instance();
    rec.reset();
    rec.disable();
  }
};

TEST_F(RecorderTest, SpanRecordsCompleteEventOnBoundLane) {
  auto& rec = Recorder::instance();
  Recorder::bind_thread(Track::Executor, 3, "executor-3");
  {
    ScopedSpan span("outer");
    span.arg("point", "p0");
    span.arg("trial", "1");
    { ScopedSpan inner("inner"); }
  }
  const auto events = rec.drain_events();
  ASSERT_EQ(events.size(), 2u);
  // Drain sorts by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].track, Track::Executor);
  EXPECT_EQ(events[0].index, 3);
  EXPECT_EQ(events[0].args, "point=p0; trial=1");
  EXPECT_GE(events[0].dur_us, 0);
  // Nesting: the inner interval lies within the outer interval.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
  // Restore the default lane for later tests on this thread.
  Recorder::bind_thread(Track::Main, -1, "campaign-main");
}

TEST_F(RecorderTest, ChildOpenedInParentsMicrosecondSortsAfterIt) {
  // A child closes, and so is recorded, before its parent. When both open
  // in the same microsecond, drain must still put the parent first.
  auto& rec = Recorder::instance();
  Event child;
  child.name = "child";
  child.start_us = 1000;
  child.dur_us = 2;
  Event parent;
  parent.name = "parent";
  parent.start_us = 1000;
  parent.dur_us = 5;
  Event marker;
  marker.name = "marker";
  marker.start_us = 1000;
  rec.record(marker);
  rec.record(child);
  rec.record(parent);
  const auto events = rec.drain_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "parent");
  EXPECT_STREQ(events[1].name, "child");
  EXPECT_STREQ(events[2].name, "marker");

  // Live spans opened back to back mostly share their start microsecond,
  // and often their recorded duration too. The parent must still sort
  // first, and the child's recorded interval must lie within the parent's.
  for (int i = 0; i < 1000; ++i) {
    {
      ScopedSpan outer("outer");
      ScopedSpan inner("inner");
    }
    const auto spans = rec.drain_events();
    ASSERT_EQ(spans.size(), 2u);
    ASSERT_STREQ(spans[0].name, "outer") << "iteration " << i;
    EXPECT_GE(spans[1].start_us, spans[0].start_us);
    EXPECT_LE(spans[1].start_us + spans[1].dur_us,
              spans[0].start_us + spans[0].dur_us);
  }
}

TEST_F(RecorderTest, SpanConstructedWhileDisabledStaysInert) {
  auto& rec = Recorder::instance();
  rec.disable();
  ScopedSpan span("late");
  EXPECT_FALSE(span.active());
  rec.enable();
  span.finish();  // must not record a half-measured span
  EXPECT_TRUE(rec.drain_events().empty());
}

TEST_F(RecorderTest, InstantEventsCarryTrackAndArgs) {
  auto& rec = Recorder::instance();
  rec.instant("watchdog-fire", Track::Monitor, 0, "rank=2");
  const auto events = rec.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "watchdog-fire");
  EXPECT_LT(events[0].dur_us, 0);  // instant marker
  EXPECT_EQ(events[0].track, Track::Monitor);
  EXPECT_EQ(events[0].args, "rank=2");
}

TEST_F(RecorderTest, ThreadBuffersFlushWhenThreadsExit) {
  auto& rec = Recorder::instance();
  // Short-lived threads (like simulated ranks) record spans and exit
  // before any drain: their events must survive via the retired list.
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([r] {
      Recorder::bind_thread(Track::Rank, r, "rank-" + std::to_string(r));
      ScopedSpan span("rank-main");
      Recorder::instance().instant("marker", Track::Rank, r);
    });
  }
  for (auto& t : threads) t.join();
  const auto events = rec.drain_events();
  EXPECT_EQ(events.size(), 8u);  // one span + one instant per thread
  int spans = 0;
  for (const auto& event : events) {
    if (std::string_view(event.name) == "rank-main") {
      ++spans;
      EXPECT_EQ(event.track, Track::Rank);
    }
  }
  EXPECT_EQ(spans, 4);
  // All four lanes registered their labels.
  const auto bound = rec.bound_threads();
  int rank_lanes = 0;
  for (const auto& lane : bound) {
    if (lane.track == Track::Rank) ++rank_lanes;
  }
  EXPECT_EQ(rank_lanes, 4);
  // A second drain finds nothing left behind.
  EXPECT_TRUE(rec.drain_events().empty());
}

TEST_F(RecorderTest, ConcurrentSpansFromManyThreadsAllArrive) {
  auto& rec = Recorder::instance();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      Recorder::bind_thread(Track::Executor, i, "w" + std::to_string(i));
      for (int s = 0; s < kSpansPerThread; ++s) {
        ScopedSpan span("work");
        span.arg("i", std::to_string(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = rec.drain_events();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  // Drain output is sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_us, events[i].start_us);
  }
}

TEST_F(RecorderTest, CountersGaugesAndHistogramsRoundTrip) {
  auto& rec = Recorder::instance();
  auto& trials = rec.counter("t_total", "help", "outcome=\"SUCCESS\"");
  auto& trials2 = rec.counter("t_total", "help", "outcome=\"SEG_FAULT\"");
  auto& leaked = rec.gauge("t_leaked", "help");
  auto& lat = rec.latency("t_seconds", "help");
  trials.add(3);
  trials2.add();
  leaked.set(5);
  leaked.add(-2);
  lat.observe_us(1500.0);  // 1.5 ms
  lat.observe_us(0.2);     // clamps into the first bucket

  // find-or-create returns the same instrument for the same series.
  EXPECT_EQ(&rec.counter("t_total", "help", "outcome=\"SUCCESS\""), &trials);
  EXPECT_NE(&trials, &trials2);

  const auto snap = rec.metrics();
  EXPECT_EQ(snap.counter_value("t_total", "outcome=\"SUCCESS\""), 3u);
  EXPECT_EQ(snap.counter_value("t_total", "outcome=\"SEG_FAULT\""), 1u);
  EXPECT_EQ(snap.counter_sum("t_total"), 4u);
  EXPECT_EQ(snap.gauge_value("t_leaked"), 3);
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "t_seconds") continue;
    found = true;
    EXPECT_EQ(h.data.count, 2u);
    EXPECT_NEAR(h.data.sum_seconds, (1500.0 + 0.2) / 1e6, 1e-12);
    ASSERT_FALSE(h.data.buckets.empty());
    // Cumulative counts are monotone and end at the total.
    std::uint64_t prev = 0;
    for (const auto& [le, cum] : h.data.buckets) {
      EXPECT_GE(cum, prev);
      prev = cum;
    }
    EXPECT_EQ(prev, 2u);
  }
  EXPECT_TRUE(found);
}

TEST_F(RecorderTest, MetricsAreInertWhileDisabled) {
  auto& rec = Recorder::instance();
  auto& c = rec.counter("t_gated", "help");
  auto& g = rec.gauge("t_gated_gauge", "help");
  auto& h = rec.latency("t_gated_seconds", "help");
  rec.disable();
  c.add(7);
  g.set(7);
  h.observe_us(7.0);
  rec.enable();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(rec.metrics().counter_value("t_gated"), 0u);
}

TEST_F(RecorderTest, ResetZeroesMetricsButKeepsReferencesValid) {
  auto& rec = Recorder::instance();
  auto& c = rec.counter("t_reset", "help");
  c.add(9);
  { ScopedSpan span("gone"); }
  rec.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_TRUE(rec.drain_events().empty());
  c.add(2);  // the cached reference still works after reset
  EXPECT_EQ(rec.metrics().counter_value("t_reset"), 2u);
}

TEST_F(RecorderTest, BufferCapDropsAndCountsInsteadOfGrowing) {
  auto& rec = Recorder::instance();
  // Fill the process-wide buffer to the cap, then overflow it: the
  // overflow must be counted in dropped_events, not buffered.
  const std::size_t overflow = 100;
  for (std::size_t i = 0; i < Recorder::kMaxBufferedEvents + overflow; ++i) {
    Event event;
    event.name = "spam";
    rec.record(std::move(event));
  }
  EXPECT_EQ(rec.dropped_events(), overflow);
  const auto events = rec.drain_events();
  EXPECT_EQ(events.size(), Recorder::kMaxBufferedEvents);
  // The metrics snapshot exposes the drop count for the exporters.
  EXPECT_EQ(rec.metrics().dropped_events, overflow);
}

#ifndef FASTFIT_SANITIZED
TEST_F(RecorderTest, DisabledModeAllocatesNothing) {
  auto& rec = Recorder::instance();
  // Pre-create the instruments (registration allocates; the hot path
  // must not) and warm up this thread's buffer handle.
  auto& c = rec.counter("t_zero_alloc", "help");
  auto& g = rec.gauge("t_zero_alloc_gauge", "help");
  auto& h = rec.latency("t_zero_alloc_seconds", "help");
  { ScopedSpan warm("warm"); }
  rec.reset();
  rec.disable();

  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("hot");
    span.arg("k", "v");
    ScopedSpan explicit_lane("hot2", Track::Journal, 0);
    rec.instant("hot3", Track::Monitor, 0);
    c.add();
    g.set(i);
    h.observe_us(12.0);
  }
  const auto after = g_allocations.load(std::memory_order_relaxed);
  rec.enable();
  EXPECT_EQ(after, before) << "disabled-mode telemetry must not allocate";
}
#endif  // FASTFIT_SANITIZED

}  // namespace
}  // namespace fastfit::telemetry
