// Campaign execution: golden digest, trial determinism, and the response
// statistics the evaluation aggregates.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

CampaignOptions small_options() {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 6;
  opts.seed = 77;
  return opts;
}

TEST(Campaign, ProfilePopulatesEnumerationAndGolden) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  EXPECT_NE(campaign.golden_digest(), 0u);
  EXPECT_FALSE(campaign.enumeration().points.empty());
  // One step budget per rank, a fixed multiple of its golden step count.
  ASSERT_EQ(campaign.step_budget().size(), 8u);
  for (const auto budget : campaign.step_budget()) {
    EXPECT_GT(budget, 0u);
    EXPECT_EQ(budget % Campaign::kStepBudgetMultiplier, 0u);
  }
}

TEST(Campaign, ProfiledSiteFilesAreRepoRelative) {
  // Call-site ids hash the site's file name, so an absolute path would make
  // every trial seed depend on where the checkout lives.
  const auto workload = apps::make_workload("EP");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& sites = campaign.profiler().rank(0).sites;
  ASSERT_FALSE(sites.empty());
  for (const auto& [id, site] : sites) {
    const std::string file = site.file;
    ASSERT_FALSE(file.empty());
    EXPECT_NE(file.front(), '/') << file;
    EXPECT_EQ(file.rfind("src/apps/", 0), 0u) << file;
  }
}

TEST(Campaign, UsingBeforeProfileThrows) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  EXPECT_THROW(campaign.enumeration(), InternalError);
  EXPECT_THROW(campaign.golden_digest(), InternalError);
  InjectionPoint point;
  EXPECT_THROW(campaign.measure(point, 1), InternalError);
}

TEST(Campaign, InvalidOptionsRejected) {
  const auto workload = apps::make_workload("LU");
  CampaignOptions bad = small_options();
  bad.trials_per_point = 0;
  EXPECT_THROW(Campaign(*workload, bad), ConfigError);
  bad = small_options();
  bad.nranks = 0;
  EXPECT_THROW(Campaign(*workload, bad), ConfigError);
}

TEST(Campaign, MeasureAggregatesTrials) {
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  // Pick a count-parameter point: a mix of MPI_ERR / SEG_FAULT / SUCCESS.
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::Count;
      });
  ASSERT_NE(it, points.end());
  const auto result = campaign.measure(*it, 10);
  EXPECT_EQ(result.trials, 10u);
  std::uint32_t total = 0;
  for (auto c : result.counts) total += c;
  EXPECT_EQ(total, 10u);
  EXPECT_GT(result.error_rate(), 0.0);  // count flips are rarely harmless
  EXPECT_EQ(campaign.trials_run(), 10u);
}

TEST(Campaign, PointResultMath) {
  PointResult r;
  r.record(inject::Outcome::Success);
  r.record(inject::Outcome::Success);
  r.record(inject::Outcome::MpiErr);
  r.record(inject::Outcome::SegFault);
  EXPECT_EQ(r.trials, 4u);
  EXPECT_DOUBLE_EQ(r.error_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.fraction(inject::Outcome::Success), 0.5);
  EXPECT_DOUBLE_EQ(r.fraction(inject::Outcome::MpiErr), 0.25);
  EXPECT_EQ(r.dominant(), inject::Outcome::Success);
  r.record(inject::Outcome::MpiErr);
  r.record(inject::Outcome::MpiErr);
  EXPECT_EQ(r.dominant(), inject::Outcome::MpiErr);
}

TEST(Campaign, RecvBufFaultsAreNearHarmless) {
  // Paper Fig 9: recvbuf flips have little impact (the collective
  // overwrites them).
  const auto workload = apps::make_workload("LU");
  Campaign campaign(*workload, small_options());
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::RecvBuf &&
               p.kind == mpi::CollectiveKind::Allreduce;
      });
  ASSERT_NE(it, points.end());
  const auto result = campaign.measure(*it, 12);
  EXPECT_GE(result.fraction(inject::Outcome::Success), 0.75);
}

TEST(Campaign, SameSeedSameCampaignStatistics) {
  const auto workload = apps::make_workload("LU");
  Campaign c1(*workload, small_options());
  Campaign c2(*workload, small_options());
  c1.profile();
  c2.profile();
  ASSERT_EQ(c1.enumeration().points.size(), c2.enumeration().points.size());
  const auto& p = c1.enumeration().points.front();
  const auto r1 = c1.measure(p, 8);
  const auto r2 = c2.measure(p, 8);
  EXPECT_EQ(r1.counts, r2.counts);
}

TEST(Campaign, MeasureIsIndependentOfCampaignHistory) {
  // The determinism contract in campaign.hpp: measure(point, n) yields the
  // same PointResult regardless of what was measured before it. (An older
  // implementation threaded a shared trial counter into the RNG, so a
  // point's result depended on every preceding measurement.)
  const auto workload = apps::make_workload("LU");
  Campaign fresh(*workload, small_options());
  Campaign busy(*workload, small_options());
  fresh.profile();
  busy.profile();
  const auto& points = fresh.enumeration().points;
  ASSERT_GE(points.size(), 3u);

  // `busy` measures two other points first; `fresh` goes straight to the
  // point under test.
  busy.measure(points[1], 5);
  busy.measure(points[2], 9);
  const auto direct = fresh.measure(points[0], 8);
  const auto after_history = busy.measure(points[0], 8);
  EXPECT_EQ(direct.counts, after_history.counts);

  // Re-measuring the same point in the same campaign also reproduces.
  EXPECT_EQ(fresh.measure(points[0], 8).counts, direct.counts);
}

// A workload whose ranks spin on an externally released gate, keeping a
// measure() call verifiably in flight for as long as the test needs.
class GatedWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "gated"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(ctx.trace, "kernel");
    const double total =
        ctx.mpi.allreduce_value(1.0 + ctx.mpi.rank(), mpi::kSum);
    return apps::digest_doubles(std::span<const double>(&total, 1), 9);
  }

  mutable std::atomic<bool> gate{true};
};

TEST(Campaign, SetMaxParallelTrialsThrowsWhileMeasuring) {
  GatedWorkload workload;
  CampaignOptions opts;
  opts.nranks = 2;
  opts.trials_per_point = 2;
  opts.seed = 7;
  opts.max_parallel_trials = 1;
  Campaign campaign(workload, opts);
  campaign.profile();
  ASSERT_FALSE(campaign.enumeration().points.empty());
  EXPECT_FALSE(campaign.measuring());

  workload.gate.store(false, std::memory_order_release);
  std::thread measurer([&] {
    campaign.measure(campaign.enumeration().points[0], 1);
  });
  while (!campaign.measuring()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The documented race: resizing the pool mid-measure. Now an error.
  EXPECT_THROW(campaign.set_max_parallel_trials(4), InternalError);
  // A second measure would race with the first on the cut table.
  EXPECT_THROW(campaign.measure(campaign.enumeration().points[0], 1),
               InternalError);
  EXPECT_TRUE(campaign.measuring());
  workload.gate.store(true, std::memory_order_release);
  measurer.join();

  // Between measures the knob works, and the next measure honours it.
  EXPECT_FALSE(campaign.measuring());
  campaign.set_max_parallel_trials(2);
  EXPECT_EQ(campaign.parallel_trials(), 2u);
}

TEST(Campaign, GoldenDigestStableAcrossCampaigns) {
  const auto workload = apps::make_workload("MG");
  Campaign c1(*workload, small_options());
  Campaign c2(*workload, small_options());
  c1.profile();
  c2.profile();
  EXPECT_EQ(c1.golden_digest(), c2.golden_digest());
}

TEST(Campaign, ProfilingRunMatchesAnUninstrumentedRun) {
  // The profiling run is the campaign's only fault-free run, and injected
  // worlds run without the profiler. So the profiler must not change the
  // execution: digest and per-rank steps must equal a plain run's.
  for (const char* name : {"IS", "FT", "MG", "LU", "CG", "EP", "miniMD"}) {
    SCOPED_TRACE(name);
    const auto workload = apps::make_workload(name);
    const auto opts = small_options();
    Campaign campaign(*workload, opts);
    campaign.profile();

    mpi::WorldOptions world;
    world.nranks = opts.nranks;
    world.seed = opts.seed;
    world.algorithms = opts.algorithms;
    trace::ContextRegistry contexts(opts.nranks, /*record_call_graph=*/false);
    const auto plain = apps::run_job(*workload, world, nullptr, contexts);
    ASSERT_TRUE(plain.world.clean());
    EXPECT_EQ(campaign.golden_digest(), plain.digest);
    ASSERT_EQ(campaign.step_budget().size(), plain.world.steps.size());
    for (std::size_t r = 0; r < plain.world.steps.size(); ++r) {
      EXPECT_EQ(campaign.step_budget()[r],
                plain.world.steps[r] * Campaign::kStepBudgetMultiplier)
          << "rank " << r;
    }
  }
}

TEST(Campaign, FiberEnginePool8MatchesSerialBitIdentical) {
  const auto workload = apps::make_workload("LU");
  auto opts = small_options();
  opts.max_parallel_trials = 1;

  Campaign serial(*workload, opts);
  serial.profile();
  const auto& points = serial.enumeration().points;
  const auto n = std::min<std::size_t>(4, points.size());
  const auto expected = serial.measure_many(
      std::span<const InjectionPoint>(points.data(), n), 6);

  opts.max_parallel_trials = 8;
  Campaign pooled(*workload, opts);
  pooled.profile();
  const auto got = pooled.measure_many(
      std::span<const InjectionPoint>(pooled.enumeration().points.data(), n),
      6);

  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].counts, got[i].counts) << "point " << i;
    EXPECT_EQ(expected[i].trials, got[i].trials) << "point " << i;
    EXPECT_EQ(expected[i].exec.quarantined, got[i].exec.quarantined);
  }
  EXPECT_TRUE(pooled.health().clean());
}

}  // namespace
}  // namespace fastfit::core
