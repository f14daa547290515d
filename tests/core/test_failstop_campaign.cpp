// Campaign-level fail-stop and message-fault coverage: the fault-model-v2
// axes must flow end to end — enumeration crosses points with the spec
// list, rank-death trials classify RANK_DEAD (or REPAIRED under --repair),
// outcomes stay bit-identical across serial/parallel executors, journal
// resume, and snapshots auto|off (non-replayable specs take the from-scratch
// fallback), and the telemetry counters agree with the returned counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "inject/fault_model.hpp"
#include "inject/outcome.hpp"
#include "telemetry/recorder.hpp"
#include "temp_file.hpp"

namespace fastfit::core {
namespace {

namespace tel = fastfit::telemetry;

constexpr auto kRankDead = static_cast<std::size_t>(inject::Outcome::RankDead);
constexpr auto kRepaired = static_cast<std::size_t>(inject::Outcome::Repaired);

CampaignOptions failstop_options() {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 2;
  opts.seed = 20250808;
  opts.max_parallel_trials = 1;
  opts.fault_models = {inject::FaultModelSpec::parse("rank-death")};
  return opts;
}

std::vector<PointResult> run_points(const apps::Workload& workload,
                                    const CampaignOptions& opts,
                                    std::size_t npoints,
                                    SnapshotCache::Stats* stats_out = nullptr) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  auto results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n),
      opts.trials_per_point);
  if (stats_out != nullptr) *stats_out = campaign.snapshot_stats();
  EXPECT_TRUE(campaign.health().clean());
  return results;
}

void expect_same_counts(const std::vector<PointResult>& a,
                        const std::vector<PointResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].counts, b[i].counts) << label << " point " << i;
    EXPECT_EQ(a[i].trials, b[i].trials) << label << " point " << i;
  }
}

TEST(FailStopCampaign, RankDeathClassifiesRankDeadWithoutRepair) {
  const auto workload = apps::make_workload("LU");
  const auto results = run_points(*workload, failstop_options(), 4);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_EQ(r.counts[kRankDead], r.trials);
    EXPECT_EQ(r.counts[kRepaired], 0u);
  }
}

TEST(FailStopCampaign, RepairYieldsRepairedOutcomes) {
  const auto workload = apps::make_workload("LU");
  auto opts = failstop_options();
  opts.repair = true;
  const auto results = run_points(*workload, opts, 6);
  ASSERT_FALSE(results.empty());
  std::uint32_t repaired_total = 0;
  for (const auto& r : results) {
    // Every trial either tore the world down or shrank and continued —
    // and deterministically so: both trials of a point agree.
    EXPECT_EQ(r.counts[kRankDead] + r.counts[kRepaired], r.trials);
    EXPECT_TRUE(r.counts[kRankDead] == 0 || r.counts[kRepaired] == 0)
        << "trial outcomes of one point diverged";
    repaired_total += r.counts[kRepaired];
  }
  // LU opts into repair: the shrink-and-continue path must actually fire.
  EXPECT_GT(repaired_total, 0u);
}

TEST(FailStopCampaign, RepairedOutcomesIdenticalAcrossExecutors) {
  const auto workload = apps::make_workload("LU");
  auto serial = failstop_options();
  serial.repair = true;
  const auto expected = run_points(*workload, serial, 6);

  auto pooled = serial;
  pooled.max_parallel_trials = 4;
  expect_same_counts(expected, run_points(*workload, pooled, 6),
                     "rank-death pool-4");
}

TEST(FailStopCampaign, RankDeathResumesBitIdenticalFromJournal) {
  const auto workload = apps::make_workload("LU");
  auto opts = failstop_options();
  opts.repair = true;
  const auto expected = run_points(*workload, opts, 4);

  const testing_support::TempFile path("failstop_resume.jsonl");
  {
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    const auto& points = partial.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    partial.measure_many(std::span<const InjectionPoint>(points.data(), 2),
                         opts.trials_per_point);
    partial.detach_journal();
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  const auto& points = resumed.enumeration().points;
  const auto results = resumed.measure_many(
      std::span<const InjectionPoint>(points.data(), 4),
      opts.trials_per_point);
  EXPECT_GT(resumed.health().replayed_trials, 0u);
  expect_same_counts(expected, results, "rank-death resume");
}

TEST(FailStopCampaign, NonReplayableSpecsBypassSnapshotsWithParity) {
  // Satellite: rank death and message faults change world wiring, not a
  // recorded parameter — the prefix-replay fast path must step aside
  // (from-scratch fallback) and the results must not notice.
  const auto workload = apps::make_workload("LU");
  for (const char* model : {"rank-death", "message-drop", "message-delay",
                            "message-corrupt"}) {
    auto off = failstop_options();
    off.fault_models = {inject::FaultModelSpec::parse(model)};
    off.snapshots = SnapshotMode::Off;
    const auto expected = run_points(*workload, off, 3);

    auto replay = off;
    replay.snapshots = SnapshotMode::Auto;
    SnapshotCache::Stats stats;
    const auto replayed = run_points(*workload, replay, 3, &stats);
    expect_same_counts(expected, replayed, model);
    // The guard must have prevented every snapshot attempt: no clones,
    // no divergence-driven fallbacks.
    EXPECT_EQ(stats.clones, 0u) << model;
    EXPECT_EQ(stats.fallbacks, 0u) << model;
  }
}

TEST(FailStopCampaign, ProbabilisticTriggerIsDeterministicPerTrial) {
  // A per-call coin flip is still a pure function of (seed, point, trial):
  // serial and pooled executions agree, as do snapshots off and auto (the
  // probabilistic trigger is non-replayable and takes the fallback).
  const auto workload = apps::make_workload("CG");
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 3;
  opts.seed = 99;
  opts.max_parallel_trials = 1;
  opts.snapshots = SnapshotMode::Off;
  opts.fault_models = {
      inject::FaultModelSpec::parse("single-bit-flip@prob=0.5")};
  const auto expected = run_points(*workload, opts, 3);

  auto pooled = opts;
  pooled.max_parallel_trials = 4;
  pooled.snapshots = SnapshotMode::Auto;
  SnapshotCache::Stats stats;
  expect_same_counts(expected, run_points(*workload, pooled, 3, &stats),
                     "prob trigger");
  EXPECT_EQ(stats.clones, 0u);
}

TEST(FailStopCampaign, SpecListCrossesPointsSpecMajor) {
  const auto workload = apps::make_workload("LU");
  CampaignOptions base;
  base.nranks = 8;
  base.seed = 7;

  Campaign plain(*workload, base);
  plain.profile();
  const auto& base_points = plain.enumeration().points;
  const std::size_t nbase = base_points.size();
  std::set<std::tuple<std::uint32_t, int, std::uint64_t>> sites;
  for (const auto& p : base_points) {
    sites.insert({p.site_id, p.rank, p.invocation});
  }

  auto crossed = base;
  crossed.fault_models = {inject::FaultModelSpec{},
                          inject::FaultModelSpec::parse("rank-death")};
  Campaign campaign(*workload, crossed);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  // Parameter models keep the full param axis; rank death collapses it to
  // one point per (site, rank, invocation).
  ASSERT_EQ(points.size(), nbase + sites.size());
  for (std::size_t i = 0; i < nbase; ++i) {
    EXPECT_TRUE(points[i].fault.is_default());
  }
  for (std::size_t i = nbase; i < points.size(); ++i) {
    EXPECT_EQ(points[i].fault.model, inject::FaultModel::RankDeath);
  }
}

TEST(FailStopCampaign, DuplicateSpecListIsRejected) {
  const auto workload = apps::make_workload("EP");
  CampaignOptions opts;
  opts.fault_models = {inject::FaultModelSpec{}, inject::FaultModelSpec{}};
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
  opts.fault_models.clear();
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
}

class FailStopTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = tel::Recorder::instance();
    rec.enable();
    rec.reset();
  }
  void TearDown() override {
    auto& rec = tel::Recorder::instance();
    rec.reset();
    rec.disable();
  }
};

TEST_F(FailStopTelemetryTest, CountersMatchReportedOutcomes) {
  const auto workload = apps::make_workload("LU");
  auto opts = failstop_options();
  opts.repair = true;
  const auto results = run_points(*workload, opts, 4);

  std::uint64_t rank_dead = 0;
  std::uint64_t repaired = 0;
  for (const auto& r : results) {
    rank_dead += r.counts[kRankDead];
    repaired += r.counts[kRepaired];
  }
  const auto snap = tel::Recorder::instance().metrics();
  EXPECT_EQ(snap.counter_value("fastfit_trials_total",
                               "outcome=\"RANK_DEAD\""),
            rank_dead);
  EXPECT_EQ(snap.counter_value("fastfit_trials_total",
                               "outcome=\"REPAIRED\""),
            repaired);
  EXPECT_GT(rank_dead + repaired, 0u);
}

}  // namespace
}  // namespace fastfit::core
