// Live progress meter: the line renderer (pure function of a metrics
// snapshot) and the monitor thread's periodic metrics re-export.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "telemetry/progress_meter.hpp"
#include "telemetry/recorder.hpp"
#include "temp_file.hpp"

namespace fastfit::telemetry {
namespace {

using namespace std::chrono_literals;

MetricsSnapshot synthetic_snapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back(
      {"fastfit_trials_total", "h", "outcome=\"SUCCESS\"", 30});
  snap.counters.push_back(
      {"fastfit_trials_total", "h", "outcome=\"SEG_FAULT\"", 10});
  snap.counters.push_back({"fastfit_trial_retries_total", "h", "", 2});
  snap.counters.push_back({"fastfit_step_budgets_exhausted_total", "h", "", 3});
  return snap;
}

TEST(ProgressMeterRender, WithExpectedTotalShowsPercentAndEta) {
  const auto line =
      ProgressMeter::render_line(synthetic_snapshot(), /*expected=*/80,
                                 /*elapsed_s=*/10.0);
  // 40 of 80 done at 4/s leaves 40 trials ≈ 10 s.
  EXPECT_NE(line.find("[fastfit] 40/80 trials (50.0%)"), std::string::npos)
      << line;
  EXPECT_NE(line.find("4.0 trials/s"), std::string::npos) << line;
  EXPECT_NE(line.find("ETA 10s"), std::string::npos) << line;
  EXPECT_NE(line.find("SUCCESS=30"), std::string::npos) << line;
  EXPECT_NE(line.find("SEG_FAULT=10"), std::string::npos) << line;
  EXPECT_NE(line.find("retries=2"), std::string::npos) << line;
  EXPECT_NE(line.find("step-budget=3"), std::string::npos) << line;
  EXPECT_EQ(line.find("dropped="), std::string::npos) << line;
}

TEST(ProgressMeterRender, WithoutExpectedTotalOmitsEta) {
  const auto line =
      ProgressMeter::render_line(synthetic_snapshot(), 0, 10.0);
  EXPECT_NE(line.find("[fastfit] 40 trials"), std::string::npos) << line;
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressMeterRender, SurfacesDroppedEvents) {
  auto snap = synthetic_snapshot();
  snap.dropped_events = 5;
  const auto line = ProgressMeter::render_line(snap, 0, 1.0);
  EXPECT_NE(line.find("dropped=5"), std::string::npos) << line;
}

TEST(ProgressMeterRender, ZeroElapsedDoesNotDivide) {
  const auto line =
      ProgressMeter::render_line(synthetic_snapshot(), 80, 0.0);
  EXPECT_NE(line.find("0.0 trials/s"), std::string::npos) << line;
}

TEST(ProgressMeterThread, PeriodicallyReexportsMetrics) {
  auto& rec = Recorder::instance();
  rec.enable();
  rec.reset();
  rec.counter("fastfit_trials_total", "h", "outcome=\"SUCCESS\"").add(4);

  const testing_support::TempFile path("progress_metrics.prom");
  {
    ProgressMeter::Options opts;
    opts.live_line = false;  // no stderr noise from the test
    opts.interval = 5ms;
    opts.metrics_path = path;
    opts.metrics_interval = 10ms;
    ProgressMeter meter(opts);
    // Wait for at least one periodic export (bounded, not fixed-sleep).
    bool exported = false;
    for (int i = 0; i < 200 && !exported; ++i) {
      std::this_thread::sleep_for(10ms);
      if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        exported = true;
      }
    }
    EXPECT_TRUE(exported);
    meter.stop();
  }
  // stop() leaves a final export behind, and the monitor thread's
  // progress-tick spans landed on the Monitor track.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(
      contents.find("fastfit_trials_total{outcome=\"SUCCESS\"} 4"),
      std::string::npos)
      << contents;

  bool tick_seen = false;
  for (const auto& event : rec.drain_events()) {
    if (std::string_view(event.name) == "progress-tick") {
      tick_seen = true;
      EXPECT_EQ(event.track, Track::Monitor);
      EXPECT_EQ(event.index, 1);
    }
  }
  EXPECT_TRUE(tick_seen);
  rec.reset();
  rec.disable();
}

}  // namespace
}  // namespace fastfit::telemetry
