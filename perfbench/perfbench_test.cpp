// Tests of the benchmark's own arithmetic: percentiles and the tail rule,
// span self time, and failure accounting.
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Ramp(100);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10u);
  EXPECT_EQ(SamplesBeyond(20, 0.50), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.50), 0u);
}

TEST(PercentileTest, TailIsHighestPercentileWithTenBeyond) {
  TailPoint t = Tail(Ramp(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  t = Tail(Ramp(999));  // p99 would leave 9 beyond
  EXPECT_EQ(t.q, 0.90);
  EXPECT_EQ(t.value, Percentile(Ramp(999), 0.90));
  t = Tail(Ramp(100));
  EXPECT_EQ(t.q, 0.90);
  EXPECT_EQ(t.value, 90);
  t = Tail(Ramp(99));
  EXPECT_EQ(t.q, 0.50);
  EXPECT_EQ(t.value, 50);
  t = Tail(Ramp(5));  // too few for any tail: the median
  EXPECT_EQ(t.q, 0.50);
  EXPECT_EQ(t.value, 3);
}

TEST(OpLogTest, FailFracCountsFailuresAgainstAttempts) {
  EXPECT_EQ(LoopSummary{}.fail_frac(), 0);
  std::vector<Window> w(1);
  for (int i = 0; i < 98; ++i) w[0].log.Ok(1.0);
  w[0].log.Fail();
  w[0].log.Fail();
  EXPECT_EQ(w[0].log.attempted(), 100u);
  EXPECT_EQ(w[0].log.failed(), 2u);
  EXPECT_EQ(w[0].log.succeeded(), 98u);
  EXPECT_DOUBLE_EQ(Summarize(w).fail_frac(), 0.02);
}

TEST(OpLogTest, FailedOpMissesEveryLatencyLimit) {
  OpLog log;
  for (int i = 0; i < 989; ++i) log.Ok(1.0);
  for (int i = 0; i < 11; ++i) log.Fail();
  const std::vector<double> sorted = log.Sorted();
  EXPECT_TRUE(std::isinf(Percentile(sorted, 0.99)));
  EXPECT_TRUE(std::isinf(Tail(sorted).value));
  EXPECT_EQ(Percentile(sorted, 0.5), 1.0);
}

TEST(OpLogTest, MergeSumsCountsAndSamples) {
  OpLog a, b;
  a.Ok(2.0);
  a.Fail();
  b.Ok(1.0);
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 3u);
  EXPECT_EQ(a.failed(), 1u);
  const std::vector<double> sorted = a.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], 1.0);
  EXPECT_TRUE(std::isinf(sorted[2]));
}

TEST(WindowTest, QuietWindowsDropStolenOnes) {
  std::vector<Window> w(4);
  w[0].steal = 0.0;
  w[1].steal = 0.3;
  w[2].steal = 0.01;
  w[3].steal = 0.02;
  EXPECT_EQ(QuietWindows(w), (std::vector<std::size_t>{0, 2, 3}));
  // Fewer than half quiet: the least-stolen half.
  w[2].steal = 0.2;
  w[3].steal = 0.1;
  EXPECT_EQ(QuietWindows(w), (std::vector<std::size_t>{0, 3}));
  for (Window& x : w) x.steal = 0.5;
  EXPECT_EQ(QuietWindows(w), (std::vector<std::size_t>{0, 1}));
}

TEST(WindowTest, StolenWindowsLeaveFiguresButCountOps) {
  std::vector<Window> w(3);
  for (Window& x : w) x.seconds = 1.0;
  for (int i = 0; i < 100; ++i) w[0].log.Ok(1.0);
  for (int i = 0; i < 100; ++i) w[1].log.Ok(1.0);
  for (int i = 0; i < 10; ++i) w[2].log.Ok(50.0);
  w[2].log.Fail();
  w[2].steal = 0.4;
  const LoopSummary s = Summarize(w);
  EXPECT_EQ(s.ops_s, 100);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_EQ(s.attempted, 211u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.quiet, 2u);
}

TEST(WindowTest, SummaryTakesMediansOverWindows) {
  std::vector<Window> windows(3);
  // Rates 10/s, 20/s, 1000/s: the stalled and the lucky window do not
  // move the median.
  for (int i = 0; i < 10; ++i) windows[0].log.Ok(1.0);
  for (int i = 0; i < 20; ++i) windows[1].log.Ok(2.0);
  for (int i = 0; i < 1000; ++i) windows[2].log.Ok(3.0);
  windows[1].log.Fail();
  for (Window& w : windows) w.seconds = 1.0;
  const LoopSummary s = Summarize(windows);
  EXPECT_EQ(s.ops_s, 20);
  EXPECT_EQ(s.attempted, 1031u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_DOUBLE_EQ(s.fail_frac(), 1.0 / 1031);
  EXPECT_EQ(s.p50, 3.0);
  // Tails per window: 1.0 (10 samples: the median), 2.0 (21 samples, the
  // failure among them: only p50 has 10 beyond), 3.0 (p99 of 1000).
  EXPECT_EQ(s.tail, 2.0);
  EXPECT_EQ(s.tail_q, 0.5);
}

SpanRec Span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
             std::uint64_t end) {
  SpanRec s;
  s.id = id;
  s.parent = parent;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, DurationMinusChildren) {
  // Root [0,100) with children [10,30) and [50,60): self 70.
  const std::vector<SpanRec> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 30),
                                      Span(3, 1, 50, 60)};
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 10u);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Parallel children [10,40) and [20,50) cover [10,50): self 60.
  const std::vector<SpanRec> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 40),
                                      Span(3, 1, 20, 50)};
  EXPECT_EQ(SelfTimes(spans)[0], 60u);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  // A child that outlives its parent covers only the parent's interval.
  const std::vector<SpanRec> spans = {Span(1, 0, 0, 100),
                                      Span(2, 1, 80, 150)};
  EXPECT_EQ(SelfTimes(spans)[0], 80u);
}

TEST(SelfTimeTest, GrandchildrenDoNotReduceGrandparent) {
  const std::vector<SpanRec> spans = {Span(1, 0, 0, 100), Span(2, 1, 0, 50),
                                      Span(3, 2, 0, 50)};
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 0u);
  EXPECT_EQ(self[2], 50u);
}

TEST(TracerTest, ScopesNestAndRecordPerThread) {
  Tracer tracer(true);
  {
    Tracer::Scope root(tracer, "root", 7);
    { Tracer::Scope child(tracer, "child", 7); }
    std::thread other([&] {
      Tracer::Scope remote(tracer, "remote", 7, root.id());
    });
    other.join();
  }
  const std::vector<SpanRec> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  for (const SpanRec& s : spans) EXPECT_EQ(s.req, 7u);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  { Tracer::Scope s(tracer, "x", 1); }
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(TracerTest, SuccessiveTracersKeepSeparateBuffers) {
  for (int i = 0; i < 2; ++i) {
    Tracer tracer(true);
    { Tracer::Scope s(tracer, "x", 1); }
    EXPECT_EQ(tracer.Collect().size(), 1u);
  }
}

}  // namespace
}  // namespace perfbench
