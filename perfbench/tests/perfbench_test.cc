// Tests for the benchmark's own helpers: the percentile and its stated
// sample count, rate from busy time (whole and windowed), the bounded
// latency sample, self-time differencing, seed determinism of the
// workloads, and the traced replay's fidelity checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(NearestRank, ReportsValueAndSampleCount) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);
  std::reverse(samples.begin(), samples.end());  // Order must not matter.

  const Percentile p50 = NearestRank(samples, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p99 = NearestRank(samples, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.samples, 100u);
  EXPECT_EQ(p99.beyond, 1u);

  EXPECT_EQ(NearestRank(samples, 1.0).value, 100.0);
}

TEST(NearestRank, SmallAndEmptySamples) {
  // ceil(0.99 * 3) = 3: the maximum, with nothing beyond it.
  const Percentile p99 = NearestRank({5.0, 1.0, 3.0}, 0.99);
  EXPECT_EQ(p99.value, 5.0);
  EXPECT_EQ(p99.samples, 3u);
  EXPECT_EQ(p99.beyond, 0u);
  EXPECT_EQ(NearestRank({7.0}, 0.5).value, 7.0);

  const Percentile empty = NearestRank({}, 0.5);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(Median({2.0, 9.0, 4.0}), 4.0);
}

TEST(RatePerSecond, DividesByBusyTimeNotWallTime) {
  EXPECT_DOUBLE_EQ(RatePerSecond(1000, 0.5), 2000.0);
  EXPECT_DOUBLE_EQ(RatePerSecond(0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(RatePerSecond(10, 0.0), 0.0);  // No busy time: no rate.
}

TEST(WindowedRate, ClosesWindowsOnBusyTimeAndDropsTheTail) {
  WindowedRate rate(0.5);
  rate.Add(100, 0.25);
  rate.Add(100, 0.25);  // 0.5 s of busy time: the first window closes.
  rate.Add(300, 0.5);   // A window on its own.
  rate.Add(7, 0.1);     // Trailing partial window: dropped.
  const std::vector<double> rates = rate.Rates();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 400.0);
  EXPECT_DOUBLE_EQ(rates[1], 600.0);

  WindowedRate short_run(0.5);
  short_run.Add(10, 0.1);  // Never fills a window: the partial one counts.
  ASSERT_EQ(short_run.Rates().size(), 1u);
  EXPECT_DOUBLE_EQ(short_run.Rates()[0], 100.0);
  EXPECT_TRUE(WindowedRate(0.5).Rates().empty());
}

TEST(Reservoir, KeepsEverythingUpToCapacityThenABoundedSample) {
  Reservoir small(4);
  for (double v : {3.0, 1.0, 2.0}) small.Add(v);
  EXPECT_EQ(small.values(), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(small.seen(), 3u);

  Reservoir capped(4);
  for (int i = 0; i < 1000; ++i) capped.Add(i);
  EXPECT_EQ(capped.values().size(), 4u);
  EXPECT_EQ(capped.seen(), 1000u);
  for (double v : capped.values()) {
    EXPECT_TRUE(v >= 0.0 && v < 1000.0);
  }
}

TEST(SelfTime, KeepsNegativeDifferences) {
  EXPECT_DOUBLE_EQ(SelfTime(3.0, 1.25), 1.75);
  EXPECT_DOUBLE_EQ(SelfTime(1.0, 1.5), -0.5);  // Not clamped to zero.
}

TEST(Tracer, SpansNestAndTotal) {
  Tracer tracer;
  const int root = tracer.Begin("root");
  { ScopedSpan a(&tracer, "pass", root); }
  { ScopedSpan b(&tracer, "pass", root); }
  tracer.End(root);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_EQ(tracer.Durations("pass").size(), 2u);
  EXPECT_GE(tracer.Total("root"), tracer.Total("pass"));
}

RunResult SmallRun(const std::string& workload, uint64_t seed,
                   size_t steps) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.max_steps = steps;
  options.record = true;
  return RunWorkload(options);
}

bool SameUpdates(const Recording& a, const Recording& b) {
  return a.updates.size() == b.updates.size() &&
         std::equal(a.updates.begin(), a.updates.end(), b.updates.begin(),
                    [](const rs::Update& x, const rs::Update& y) {
                      return x.item == y.item && x.delta == y.delta;
                    });
}

class SeedDeterminism : public testing::TestWithParam<std::string> {};

TEST_P(SeedDeterminism, SameSeedSameRunOtherSeedOtherInputs) {
  const std::string workload = GetParam();
  // Steps: batches, adaptive rounds, or checkpoint rounds.
  const size_t steps = workload == "f0_adaptive"  ? 2000
                       : workload == "checkpoint" ? 3
                                                  : 8;
  const RunResult a = SmallRun(workload, 7, steps);
  const RunResult b = SmallRun(workload, 7, steps);
  const RunResult c = SmallRun(workload, 8, steps);
  for (const RunResult* r : {&a, &b, &c}) {
    EXPECT_TRUE(r->correct()) << (r->problems.empty() ? "" : r->problems[0]);
    EXPECT_GT(r->recording.updates.size(), 0u);
  }

  EXPECT_TRUE(SameUpdates(a.recording, b.recording));
  EXPECT_EQ(a.envelope_bytes, b.envelope_bytes);    // snapshot_mib
  EXPECT_EQ(a.footprint_bytes, b.footprint_bytes);  // footprint_mib
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.recording.answers, b.recording.answers);

  EXPECT_FALSE(SameUpdates(a.recording, c.recording));
}

INSTANTIATE_TEST_SUITE_P(Workloads, SeedDeterminism,
                         testing::Values("fp_ingest", "f0_adaptive",
                                         "checkpoint"));

TEST(Replay, TwinsMatchTheHubAndEveryPassConsumesTheRecording) {
  RunResult r = SmallRun("f0_adaptive", 3, 3000);
  ASSERT_TRUE(r.correct());
  Tracer tracer;
  const std::vector<Metric> metrics =
      Replay(Fleet("f0_adaptive", 3), r, &tracer, -1, &r);
  EXPECT_TRUE(r.correct()) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(metrics.size(), 27u);
  for (const char* span : {"replay.hub", "replay.hub.updates",
                           "replay.engine", "replay.engine.updates",
                           "replay.sketch", "replay.hash"}) {
    EXPECT_EQ(tracer.Durations(span).size(), 32u) << span;  // One a window.
  }
  EXPECT_EQ(tracer.Durations("replay.gate").size(), 1u);
}

TEST(Replay, TamperedRecordingFailsTheFidelityCheck) {
  RunResult r = SmallRun("f0_adaptive", 3, 500);
  ASSERT_TRUE(r.correct());
  ASSERT_FALSE(r.recording.answers.empty());
  r.recording.answers.back() += 1.0;  // An answer no twin can reproduce.
  Tracer tracer;
  Replay(Fleet("f0_adaptive", 3), r, &tracer, -1, &r);
  EXPECT_FALSE(r.correct());
}

}  // namespace
}  // namespace perfbench
