// StudyDriver orchestration: pass-chain validation, deterministic
// sharding, fragment export, and the `fastfit merge` reassembly that
// must be bit-identical to the unsharded run.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/export.hpp"
#include "core/shard.hpp"
#include "core/study.hpp"
#include "temp_file.hpp"

namespace fastfit::core {
namespace {

StudyOptions small_study(int nranks = 8, std::uint32_t trials = 3) {
  StudyOptions opts;
  opts.campaign.nranks = nranks;
  opts.campaign.trials_per_point = trials;
  opts.campaign.seed = 20260805;
  opts.use_ml = false;
  return opts;
}

TEST(Shard, ParseAcceptsWellFormedSpecs) {
  EXPECT_EQ(parse_shard("1/1"), (ShardSpec{1, 1}));
  EXPECT_EQ(parse_shard("3/4"), (ShardSpec{3, 4}));
  EXPECT_EQ(parse_shard("4/4"), (ShardSpec{4, 4}));
  EXPECT_EQ(parse_shard("2/2").str(), "2/2");
}

TEST(Shard, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "1", "/", "1/", "/4", "0/4", "5/4", "x/4", "1/y", "1/0",
        "1/4/2", "-1/4", "1 /4"}) {
    EXPECT_THROW(parse_shard(bad), ConfigError) << "'" << bad << "'";
  }
}

TEST(Shard, PartitionIsADisjointCover) {
  // Every post-pruning point lands in exactly one shard, for any N.
  const auto workload = apps::make_workload("LU");
  StudyDriver driver(*workload, small_study());
  driver.profile();
  const auto& points = driver.campaign().enumeration().points;
  ASSERT_FALSE(points.empty());
  for (std::size_t count : {2u, 3u, 5u}) {
    for (const auto& point : points) {
      std::size_t owners = 0;
      for (std::size_t index = 1; index <= count; ++index) {
        if (shard_owns(ShardSpec{index, count}, point)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "count=" << count;
    }
  }
}

TEST(Shard, UnshardedSpecOwnsEverything) {
  const auto workload = apps::make_workload("EP");
  StudyDriver driver(*workload, small_study());
  driver.profile();
  for (const auto& point : driver.campaign().enumeration().points) {
    EXPECT_TRUE(shard_owns(ShardSpec{}, point));
  }
}

TEST(StudyDriver, CampaignAccessorRequiresProfileOrRun) {
  const auto workload = apps::make_workload("EP");
  StudyDriver driver(*workload, small_study());
  EXPECT_THROW(driver.campaign(), InternalError);
  driver.profile();
  EXPECT_NO_THROW(driver.campaign().stats());
  driver.profile();  // idempotent
  const auto result = driver.run();  // profiles only once
  EXPECT_EQ(result.measured.size(), result.stats.after_context);
}

TEST(StudyDriver, MlStageRefusesSharding) {
  const auto workload = apps::make_workload("EP");
  auto opts = small_study();
  opts.use_ml = true;
  opts.campaign.shard = ShardSpec{1, 2};
  EXPECT_THROW(StudyDriver(*workload, opts), ConfigError);
}

TEST(StudyDriver, MlPassMustBeLastInTheChain) {
  const auto workload = apps::make_workload("EP");
  auto opts = small_study();
  opts.use_ml = true;
  opts.passes = {"semantic", "ml", "context"};
  EXPECT_THROW(StudyDriver(*workload, opts), ConfigError);
}

TEST(StudyDriver, MlPassWithMlDisabledIsAContradiction) {
  const auto workload = apps::make_workload("EP");
  auto opts = small_study();
  opts.use_ml = false;
  opts.passes = {"semantic", "context", "ml"};
  EXPECT_THROW(StudyDriver(*workload, opts), ConfigError);
}

TEST(StudyDriver, ExplicitStructuralChainRuns) {
  const auto workload = apps::make_workload("EP");
  auto opts = small_study(8, 2);
  opts.passes = {"context", "semantic"};
  StudyDriver driver(*workload, opts);
  const auto result = driver.run();
  EXPECT_EQ(result.measured.size(), result.stats.after_context);
  EXPECT_TRUE(result.predicted.empty());
}

TEST(StudyDriver, ShardedFragmentsMergeBitIdenticalToUnshardedRun) {
  // The tentpole acceptance check, in-process: shard EP 2 ways, merge
  // the fragments, and require the exact JSON report of the unsharded
  // study — same points, same per-trial outcomes, same health.
  const auto workload = apps::make_workload("EP");
  StudyDriver unsharded(*workload, small_study());
  const auto want = unsharded.run();

  std::vector<std::string> fragments;
  std::set<std::size_t> seen_ordinals;
  std::size_t measured_total = 0;
  for (std::size_t index = 1; index <= 2; ++index) {
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{index, 2};
    StudyDriver driver(*workload, opts);
    const auto part = driver.run();
    EXPECT_EQ(part.shard, (ShardSpec{index, 2}));
    EXPECT_EQ(part.stats, want.stats);
    EXPECT_EQ(part.golden_digest, want.golden_digest);
    EXPECT_EQ(part.shard_ordinals.size(), part.measured.size());
    for (const auto ordinal : part.shard_ordinals) {
      EXPECT_TRUE(seen_ordinals.insert(ordinal).second);
    }
    measured_total += part.measured.size();
    fragments.push_back(to_shard_fragment(part));
  }
  EXPECT_EQ(measured_total, want.measured.size());

  const auto merged = merge_fragments(fragments);
  EXPECT_EQ(to_json(merged), to_json(want));
  EXPECT_EQ(merged.shard, (ShardSpec{1, 1}));
  EXPECT_EQ(merged.golden_digest, want.golden_digest);
  EXPECT_EQ(merged.health.total_retries, want.health.total_retries);
  EXPECT_EQ(merged.health.quarantined_points,
            want.health.quarantined_points);
}

TEST(StudyDriver, MergeOrderDoesNotMatter) {
  const auto workload = apps::make_workload("EP");
  std::vector<std::string> fragments;
  for (std::size_t index : {2u, 1u}) {  // reversed on purpose
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{index, 2};
    StudyDriver driver(*workload, opts);
    fragments.push_back(to_shard_fragment(driver.run()));
  }
  StudyDriver unsharded(*workload, small_study());
  EXPECT_EQ(to_json(merge_fragments(fragments)),
            to_json(unsharded.run()));
}

TEST(Fragment, UnshardedResultRoundTripsThroughASingleFragment) {
  const auto workload = apps::make_workload("EP");
  StudyDriver driver(*workload, small_study());
  const auto want = driver.run();
  const auto merged = merge_fragments({to_shard_fragment(want)});
  EXPECT_EQ(to_json(merged), to_json(want));
}

TEST(Fragment, MergeRejectsIncompleteAndInconsistentSets) {
  const auto workload = apps::make_workload("EP");
  auto make_fragment = [&](std::size_t index, std::size_t count) {
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{index, count};
    StudyDriver driver(*workload, opts);
    return to_shard_fragment(driver.run());
  };
  const auto one_of_two = make_fragment(1, 2);
  const auto two_of_two = make_fragment(2, 2);

  // Missing shard.
  EXPECT_THROW(merge_fragments({one_of_two}), ConfigError);
  // Duplicate shard.
  EXPECT_THROW(merge_fragments({one_of_two, one_of_two}), ConfigError);
  // Fragments from a study with a different shard count.
  EXPECT_THROW(merge_fragments({one_of_two, make_fragment(2, 3)}),
               ConfigError);
  // Garbage input.
  EXPECT_THROW(merge_fragments({"not a fragment"}), ConfigError);
  EXPECT_THROW(merge_fragments({}), ConfigError);
  // Sanity: the well-formed pair still merges.
  EXPECT_NO_THROW(merge_fragments({one_of_two, two_of_two}));
}

TEST(Journal, HeaderPinsTheShard) {
  // A shard's journal belongs to that shard: resuming it from a
  // different shard of the study must be refused.
  const auto workload = apps::make_workload("EP");
  const testing_support::TempFile path("shard_journal_test.jsonl");
  {
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{1, 2};
    opts.journal = path;
    StudyDriver driver(*workload, opts);
    driver.run();
  }
  {
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{2, 2};
    opts.journal = path;
    opts.resume = true;
    StudyDriver driver(*workload, opts);
    EXPECT_THROW(driver.run(), ConfigError);
  }
  {
    // The matching shard resumes cleanly and replays every trial.
    auto opts = small_study();
    opts.campaign.shard = ShardSpec{1, 2};
    opts.journal = path;
    opts.resume = true;
    StudyDriver driver(*workload, opts);
    const auto result = driver.run();
    EXPECT_GT(result.health.replayed_trials, 0u);
  }
}

}  // namespace
}  // namespace fastfit::core
