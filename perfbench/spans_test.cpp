// Tests of the benchmark's own statistics: span self time and the tail
// percentile rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

Span span(const char* name, double start, double end, int parent) {
  return Span{name, start, end, parent};
}

TEST(SelfTime, LeafSpanKeepsItsWholeDuration) {
  const std::vector<Span> spans = {span("a", 1.0, 3.5, -1)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 2.5);
}

TEST(SelfTime, ChildrenCoverPartOfTheParent) {
  // Parent [0, 10]; children cover [1, 3] and [6, 7]: self = 10 - 3.
  const std::vector<Span> spans = {span("parent", 0.0, 10.0, -1),
                                   span("c1", 1.0, 3.0, 0),
                                   span("c2", 6.0, 7.0, 0)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // root [0, 10] > mid [2, 8] > leaf [3, 5].
  const std::vector<Span> spans = {span("root", 0.0, 10.0, -1),
                                   span("mid", 2.0, 8.0, 0),
                                   span("leaf", 3.0, 5.0, 1)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 4.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  double total = 0.0;
  for (const double s : self) total += s;
  EXPECT_DOUBLE_EQ(total, spans[0].duration_s());
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  // Children [1, 4] and [3, 6] overlap; [9, 12] sticks out of the parent.
  const std::vector<Span> spans = {span("parent", 0.0, 10.0, -1),
                                   span("c1", 1.0, 4.0, 0),
                                   span("c2", 3.0, 6.0, 0),
                                   span("c3", 9.0, 12.0, 0)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 5.0 - 1.0);
}

TEST(SelfTime, DurationsSelectSpansByName) {
  const std::vector<Span> spans = {span("x", 0.0, 4.0, -1),
                                   span("y", 1.0, 2.0, 0),
                                   span("x", 5.0, 6.0, -1)};
  EXPECT_EQ(durations_s(spans, "x"), (std::vector<double>{4.0, 1.0}));
}

TEST(SelfTime, TracerRecordsNestingFromScopes) {
  Tracer tracer(true);
  {
    auto outer = tracer.begin("outer");
    { auto inner = tracer.begin("inner"); }
    { auto inner = tracer.begin("inner"); }
  }
  { auto next = tracer.begin("next"); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  for (const auto& s : spans) EXPECT_LE(s.start_s, s.end_s);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[2].end_s);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { auto s = tracer.begin("x"); }
  EXPECT_TRUE(tracer.spans().empty());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  // n = 19: the median is the 10th sample, with only 9 beyond it.
  EXPECT_FALSE(tail_percentile(ramp(19)).has_value());
  // n = 20: the median is the 10th sample, with exactly 10 beyond.
  const auto t = tail_percentile(ramp(20));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 50.0);
  EXPECT_DOUBLE_EQ(t->value, 10.0);
}

TEST(TailPercentile, PicksTheHighestQualifyingPercentile) {
  // n = 100: p90 is the 90th sample with 10 beyond; p95 has only 5.
  auto t = tail_percentile(ramp(100));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 90.0);
  EXPECT_DOUBLE_EQ(t->value, 90.0);
  // n = 1000: p99 is the 990th sample with exactly 10 beyond.
  t = tail_percentile(ramp(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 99.0);
  EXPECT_DOUBLE_EQ(t->value, 990.0);
  // n = 10000: p99.9 is the 9990th sample with exactly 10 beyond.
  t = tail_percentile(ramp(10000));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 99.9);
  EXPECT_DOUBLE_EQ(t->value, 9990.0);
}

TEST(TailPercentile, SortsItsInput) {
  std::vector<double> v = ramp(40);
  std::reverse(v.begin(), v.end());
  const auto t = tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 75.0);  // 30th sample, 10 beyond
  EXPECT_DOUBLE_EQ(t->value, 30.0);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
