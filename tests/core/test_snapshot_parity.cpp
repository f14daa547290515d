// Snapshot parity: the prefix-replay fast path must be invisible in the
// results. Every assertion here compares --snapshots auto against the
// from-scratch off path — per-point outcome counts, journal resume, the
// parallel executor — plus the determinism of the golden digest and step
// budgets that every trial is classified and bounded against.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"
#include "support/error.hpp"

namespace fastfit::core {
namespace {

CampaignOptions base_options(SnapshotMode mode) {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 3;
  opts.seed = 4242;
  opts.max_parallel_trials = 1;
  opts.snapshots = mode;
  return opts;
}

// Measures the first `npoints` enumerated points and returns the
// results; `stats_out` receives the campaign's snapshot statistics.
std::vector<PointResult> run_study(const apps::Workload& workload,
                                   const CampaignOptions& opts,
                                   std::size_t npoints,
                                   SnapshotCache::Stats* stats_out = nullptr) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  const auto results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n), opts.trials_per_point);
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
    EXPECT_EQ(a[i].exec.quarantined, b[i].exec.quarantined)
        << label << " point " << i;
  }
}

TEST(SnapshotParity, ReplayMatchesFromScratchForEveryWorkload) {
  for (const auto& name : apps::workload_names()) {
    const auto workload = apps::make_workload(name);
    const auto off =
        run_study(*workload, base_options(SnapshotMode::Off), 2);
    SnapshotCache::Stats stats;
    const auto on =
        run_study(*workload, base_options(SnapshotMode::Auto), 2, &stats);
    expect_same_counts(off, on, name);
    // The fast path must actually have engaged: one recording, one
    // snapshot per distinct cut, trials served as clones.
    EXPECT_EQ(stats.recording_builds, 1u) << name;
    EXPECT_GT(stats.clones, 0u) << name;
    EXPECT_EQ(stats.fallbacks, 0u) << name;
  }
}

TEST(SnapshotParity, AutoModeMatchesAndReusesTheRecording) {
  const auto workload = apps::make_workload("LU");
  const auto off = run_study(*workload, base_options(SnapshotMode::Off), 4);
  SnapshotCache::Stats stats;
  const auto replayed =
      run_study(*workload, base_options(SnapshotMode::Auto), 4, &stats);
  expect_same_counts(off, replayed, "LU auto");
  EXPECT_EQ(stats.recording_builds, 1u);  // shared across all 4 points
  // 3 trials per point share each point's derived cut (>= because guard
  // retries may re-clone).
  EXPECT_GE(stats.hits, stats.snapshot_builds);
  EXPECT_GE(stats.clones, 4u * 3u);
}

TEST(SnapshotParity, ParallelExecutorMatchesSerialFromScratch) {
  const auto workload = apps::make_workload("CG");
  const auto serial_off =
      run_study(*workload, base_options(SnapshotMode::Off), 3);
  auto parallel = base_options(SnapshotMode::Auto);
  parallel.max_parallel_trials = 4;
  SnapshotCache::Stats stats;
  const auto pooled = run_study(*workload, parallel, 3, &stats);
  expect_same_counts(serial_off, pooled, "CG pool-4");
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(SnapshotParity, ResumeFromJournalStaysBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = base_options(SnapshotMode::Auto);
  const auto expected =
      run_study(*workload, base_options(SnapshotMode::Off), 4);

  const std::string path =
      ::testing::TempDir() + "fastfit_snapshot_parity_resume";
  std::remove(path.c_str());
  {
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    const auto& points = partial.enumeration().points;
    ASSERT_GE(points.size(), 4u);
    partial.measure_many(
        std::span<const InjectionPoint>(points.data(), 2), 3);
    partial.detach_journal();
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  const auto& points = resumed.enumeration().points;
  const auto results = resumed.measure_many(
      std::span<const InjectionPoint>(points.data(), 4), 3);
  EXPECT_GT(resumed.health().replayed_trials, 0u);
  expect_same_counts(expected, results, "LU resume");
}

// A workload whose first collective moves to another call site after the
// first two runs. A campaign's profiling and recording runs are its first
// two, so every later trial replays a prefix that no longer matches the
// recording. Both sites reduce the same value, so the digest and every
// outcome of the End-phase allreduce are the same either way.
class ShiftingPrefixWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "shifting-prefix"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    const bool shifted =
        rank_entries.fetch_add(1, std::memory_order_relaxed) >= 2 * mpi.size();
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(ctx.trace, "kernel");
    const double local = 1.0 + mpi.rank();
    const double sum = shifted ? mpi.allreduce_value(local, mpi::kSum)
                               : mpi.allreduce_value(local, mpi::kSum);
    ctx.trace.set_phase(trace::ExecPhase::End);
    const double check = mpi.allreduce_value(sum * local, mpi::kSum);
    const double values[2] = {sum, check};
    return apps::digest_doubles(values, 9);
  }

  mutable std::atomic<int> rank_entries{0};
};

TEST(SnapshotParity, DivergedReplayRerunsEachTrialFromScratch) {
  // The from-scratch reference runs serially, so its first trial is the
  // only one on the old site, and End-phase outcomes do not depend on it.
  std::vector<PointResult> expected;
  std::vector<InjectionPoint> end_points;
  {
    ShiftingPrefixWorkload workload;
    auto opts = base_options(SnapshotMode::Off);
    opts.nranks = 4;
    Campaign campaign(workload, opts);
    campaign.profile();
    for (const auto& point : campaign.enumeration().points) {
      if (point.phase == trace::ExecPhase::End) end_points.push_back(point);
    }
    ASSERT_FALSE(end_points.empty());
    expected = campaign.measure_many(end_points, opts.trials_per_point);
  }
  for (const std::size_t pool : {1u, 4u}) {
    ShiftingPrefixWorkload workload;
    auto opts = base_options(SnapshotMode::Auto);
    opts.nranks = 4;
    opts.max_parallel_trials = pool;
    Campaign campaign(workload, opts);
    campaign.profile();
    const auto replayed =
        campaign.measure_many(end_points, opts.trials_per_point);
    const std::string label = "pool " + std::to_string(pool);
    expect_same_counts(expected, replayed, label);
    const auto stats = campaign.snapshot_stats();
    EXPECT_EQ(stats.recording_builds, 1u) << label;
    // Every trial tried replay, diverged and reran from scratch: one
    // divergence does not switch replay off for the rest of the campaign.
    EXPECT_EQ(stats.clones, end_points.size() * opts.trials_per_point)
        << label;
    EXPECT_EQ(stats.fallbacks, stats.clones) << label;
    EXPECT_TRUE(campaign.health().clean()) << label;
    EXPECT_EQ(campaign.health().total_retries, 0u) << label;
  }
}

TEST(SnapshotParity, GoldenRunIsMemoizedAcrossCampaigns) {
  // Every campaign's profiling run is its own fault-free run (the name
  // predates the removal of the golden-run memo). Two campaigns over one
  // configuration must agree on the digest every trial is classified
  // against and on the step budgets that bound every trial.
  const auto workload = apps::make_workload("EP");
  const auto opts = base_options(SnapshotMode::Off);

  Campaign first(*workload, opts);
  first.profile();
  Campaign second(*workload, opts);
  second.profile();
  EXPECT_EQ(second.golden_digest(), first.golden_digest());
  EXPECT_EQ(second.step_budget(), first.step_budget());

  // A different seed is a different execution.
  auto other = opts;
  other.seed = opts.seed + 1;
  Campaign third(*workload, other);
  third.profile();
  EXPECT_NE(third.golden_digest(), first.golden_digest());
}

}  // namespace
}  // namespace fastfit::core
