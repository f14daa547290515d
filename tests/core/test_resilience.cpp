// Crash-resilient campaign execution: the retrying trial guard with
// quarantine, kill-and-resume through the trial journal, and hang verdicts
// that do not depend on wall time (docs/resilience.md,
// docs/hang_detection.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <unistd.h>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "core/campaign.hpp"
#include "core/scheduler.hpp"
#include "support/error.hpp"
#include "temp_file.hpp"

namespace fastfit::core {
namespace {

using namespace std::chrono_literals;

// A small SPMD kernel (bcast + allreduce) whose failure behaviour the
// test controls from outside:
//  - `fail_budget` > 0: rank 0 throws a std::runtime_error at job start —
//    an *internal* error (not a simulated fault), the kind the trial
//    guard must retry and quarantine.
//  - `hang_from`/`hang_until`: rank 0 skips the collectives for jobs
//    whose ordinal falls in [hang_from, hang_until], so its peers block
//    on an exited rank — a deadlock proven at quiescence.
//  - `slow_from`/`slow_until`: rank 0 sleeps `slow_ms` and then calls
//    check_deadline() for jobs in that window — slow in wall time, but
//    finite.
// Job ordinals count every World execution (profiling = 1, trials from
// 2), assigned by rank 0 at entry.
class SupervisedWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "supervised"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    auto& tr = ctx.trace;
    bool hang = false;
    if (mpi.rank() == 0) {
      const auto job = jobs.fetch_add(1, std::memory_order_relaxed) + 1;
      int budget = fail_budget.load(std::memory_order_relaxed);
      while (budget > 0 &&
             !fail_budget.compare_exchange_weak(budget, budget - 1)) {
      }
      if (budget > 0) throw std::runtime_error("synthetic internal flake");
      hang = job >= hang_from.load(std::memory_order_relaxed) &&
             job <= hang_until.load(std::memory_order_relaxed);
      if (job >= slow_from.load(std::memory_order_relaxed) &&
          job <= slow_until.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
        mpi.check_deadline();
      }
    }

    tr.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(tr, "kernel");
    if (hang) return 0;  // silent early exit: peers wait on an exited rank
    const double seeded = mpi.bcast_value(
        mpi.rank() == 0 ? static_cast<double>(ctx.input_seed % 97) : 0.0, 0);
    const double total =
        mpi.allreduce_value(seeded + mpi.rank(), mpi::kSum);
    const double values[2] = {seeded, total};
    return apps::digest_doubles(values, 9);
  }

  mutable std::atomic<int> jobs{0};
  mutable std::atomic<int> fail_budget{0};
  mutable std::atomic<int> hang_from{0};
  mutable std::atomic<int> hang_until{-1};
  mutable std::atomic<int> slow_from{0};
  mutable std::atomic<int> slow_until{-1};
  int slow_ms = 0;
};

// A kernel whose loop count travels in a bcast: a flipped bit in it makes
// every rank call check_deadline() forever — a livelock that never goes
// quiescent, so only the step budget can end it.
class LivelockWorkload final : public apps::Workload {
 public:
  std::string name() const override { return "livelock"; }

  std::uint64_t run_rank(apps::AppContext& ctx) const override {
    auto& mpi = ctx.mpi;
    ctx.trace.set_phase(trace::ExecPhase::Compute);
    trace::FunctionScope scope(ctx.trace, "kernel");
    const std::int32_t loops =
        mpi.bcast_value<std::int32_t>(mpi.rank() == 0 ? 16 : 0, 0);
    if (loops != 16) {
      for (;;) mpi.check_deadline();
    }
    const double total = mpi.allreduce_value(1.0 * loops, mpi::kSum);
    return apps::digest_doubles(std::span<const double>(&total, 1), 9);
  }
};

CampaignOptions supervised_options() {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 4;
  opts.seed = 101;
  opts.max_parallel_trials = 1;
  // These tests script failures by *job ordinal* (profiling = 1, trials
  // from 2); the snapshot recording run would shift the ordinals and
  // absorb scripted failures, so pin it off here. Snapshot
  // parity has its own suite (test_snapshot_parity.cpp).
  opts.snapshots = SnapshotMode::Off;
  return opts;
}

testing_support::TempFile temp_journal(const std::string& name) {
  return testing_support::TempFile("resilience_" + name);
}

// A send-buffer bit flip corrupts data but can never hang a collective,
// so the escalated re-run of a hang-window trial classifies as
// SUCCESS/WRONG_ANS — never a genuine INF_LOOP.
InjectionPoint sendbuf_point(const Campaign& campaign) {
  const auto& points = campaign.enumeration().points;
  const auto it =
      std::find_if(points.begin(), points.end(), [](const InjectionPoint& p) {
        return p.param == mpi::Param::SendBuf;
      });
  EXPECT_NE(it, points.end());
  return *it;
}

TEST(Resilience, InternalErrorIsRetriedNotFatal) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 2;
  Campaign campaign(workload, opts);
  campaign.profile();
  ASSERT_FALSE(campaign.enumeration().points.empty());

  // One synthetic flake: the first attempt of the first trial fails, its
  // retry succeeds, and the point's statistics are complete.
  workload.fail_budget.store(1);
  const auto result = campaign.measure(campaign.enumeration().points[0], 3);
  EXPECT_EQ(result.trials, 3u);
  EXPECT_FALSE(result.exec.quarantined);
  EXPECT_EQ(result.exec.retries, 1u);
  EXPECT_EQ(campaign.health().total_retries, 1u);
  EXPECT_EQ(campaign.health().quarantined_points, 0u);
  EXPECT_TRUE(campaign.health().clean());
}

TEST(Resilience, ExhaustedRetriesQuarantineThePointOnly) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 0;  // quarantine on the first internal error
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  ASSERT_GE(points.size(), 2u);

  // Exactly one job fails: with serial execution that is point 0's first
  // trial. Point 0 must be quarantined, point 1 measured in full, and the
  // campaign must not abort.
  workload.fail_budget.store(1);
  const InjectionPoint batch[2] = {points[0], points[1]};
  const auto results = campaign.measure_many(
      std::span<const InjectionPoint>(batch, 2), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].exec.quarantined);
  EXPECT_EQ(results[0].trials, 0u);  // remaining trials were skipped
  // Quarantine errors carry attribution: which attempt, on which lane
  // (the serial path runs inline on the submitting thread).
  EXPECT_EQ(results[0].exec.last_error,
            "attempt 1 on main thread: synthetic internal flake");
  EXPECT_FALSE(results[1].exec.quarantined);
  EXPECT_EQ(results[1].trials, 2u);
  EXPECT_EQ(campaign.health().quarantined_points, 1u);
  EXPECT_FALSE(campaign.health().clean());
}

TEST(Resilience, QuarantineIsRecordedInTheJournal) {
  SupervisedWorkload workload;
  auto opts = supervised_options();
  opts.max_trial_retries = 0;
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto path = temp_journal("quarantine");
  campaign.attach_journal(path, JournalMode::Create);
  workload.fail_budget.store(1);
  const auto result = campaign.measure(campaign.enumeration().points[0], 2);
  ASSERT_TRUE(result.exec.quarantined);
  const auto record =
      campaign.journal()->quarantine(point_key(result.point));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->error,
            "attempt 1 on main thread: synthetic internal flake");
}

TEST(Resilience, KillAndResumeIsBitIdentical) {
  // The tentpole contract: a campaign killed at an arbitrary trial —
  // including mid-write, leaving a torn final journal line — and resumed
  // from its journal produces per-point outcome counts identical to an
  // uninterrupted campaign.
  const auto workload = apps::make_workload("LU");
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 5;
  opts.seed = 77;

  Campaign baseline(*workload, opts);
  baseline.profile();
  const auto& points = baseline.enumeration().points;
  ASSERT_GE(points.size(), 4u);
  const std::span<const InjectionPoint> batch(points.data(), 4);
  const auto expected = baseline.measure_many(batch, 5);

  const auto path = temp_journal("kill_resume");
  {
    // "Killed" campaign: measures only half the batch before dying.
    Campaign partial(*workload, opts);
    partial.profile();
    partial.attach_journal(path, JournalMode::Create);
    partial.measure_many(batch.subspan(0, 2), 5);
    partial.detach_journal();
  }
  {
    // Simulate SIGKILL mid-write: chop bytes off the journal tail.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, 16L);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 9), 0);
  }

  Campaign resumed(*workload, opts);
  resumed.profile();
  resumed.attach_journal(path, JournalMode::Resume);
  EXPECT_GT(resumed.journal()->loaded_trials(), 0u);
  const auto results = resumed.measure_many(batch, 5);
  EXPECT_GT(resumed.health().replayed_trials, 0u);

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].counts, expected[i].counts) << "point " << i;
    EXPECT_EQ(results[i].trials, expected[i].trials) << "point " << i;
  }
}

TEST(Resilience, ResumeRefusesChangedSeed) {
  const auto workload = apps::make_workload("LU");
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 4;
  opts.seed = 77;
  const auto path = temp_journal("changed_seed");
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    campaign.attach_journal(path, JournalMode::Create);
  }
  opts.seed = 78;
  Campaign other(*workload, opts);
  other.profile();
  EXPECT_THROW(other.attach_journal(path, JournalMode::Resume), ConfigError);
  // Create also refuses to clobber the existing journal.
  EXPECT_THROW(other.attach_journal(path, JournalMode::Create), ConfigError);
}

TEST(Resilience, SlowButFiniteTrialIsNotInfLoop) {
  // Regression for outcomes that depended on wall time. The trial's rank 0
  // sleeps for a second and then reaches check_deadline(). A wall-clock
  // watchdog (150 ms for this kernel, re-confirmed once at 4x that)
  // classified it INF_LOOP on both runs; under the step budget a slow
  // trial is just slow, and it finishes.
  SupervisedWorkload workload;
  workload.slow_ms = 1000;
  Campaign campaign(workload, supervised_options());
  campaign.profile();  // job 1: the one fault-free (profiling) run
  EXPECT_EQ(workload.jobs.load(), 1);

  // Job 2 is the trial; job 3 would have been the watchdog's re-run.
  workload.slow_from.store(2);
  workload.slow_until.store(3);
  const InjectionPoint point = sendbuf_point(campaign);
  const auto result =
      campaign.measure_many(std::span<const InjectionPoint>(&point, 1), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].trials, 1u);
  EXPECT_EQ(result[0].counts[static_cast<std::size_t>(
                inject::Outcome::InfLoop)],
            0u);
  EXPECT_EQ(workload.jobs.load(), 2);  // no re-run
  EXPECT_TRUE(campaign.health().clean());
}

TEST(Resilience, LivelockEndsAtStepBudgetIdenticallyAtEveryPoolSize) {
  LivelockWorkload workload;
  const auto run = [&workload](std::size_t pool) {
    auto opts = supervised_options();
    opts.trials_per_point = 3;
    opts.max_parallel_trials = pool;
    Campaign campaign(workload, opts);
    campaign.profile();
    return campaign.measure_many(campaign.enumeration().points);
  };
  const auto serial = run(1);
  const auto pooled = run(4);
  ASSERT_EQ(serial.size(), pooled.size());

  bool livelock_seen = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].counts, pooled[i].counts) << "point " << i;
    EXPECT_EQ(serial[i].exec.last_autopsy, pooled[i].exec.last_autopsy)
        << "point " << i;
    if (serial[i].point.kind == mpi::CollectiveKind::Bcast &&
        serial[i].point.param == mpi::Param::SendBuf &&
        serial[i].point.rank == 0) {
      // Every bit flip of the loop count livelocks the job.
      livelock_seen = true;
      EXPECT_EQ(serial[i].counts[static_cast<std::size_t>(
                    inject::Outcome::InfLoop)],
                3u);
      EXPECT_NE(serial[i].exec.last_autopsy.find("step budget of"),
                std::string::npos)
          << serial[i].exec.last_autopsy;
      EXPECT_NE(serial[i].exec.last_autopsy.find("exhausted (livelock)"),
                std::string::npos)
          << serial[i].exec.last_autopsy;
    }
  }
  EXPECT_TRUE(livelock_seen);
}

TEST(Resilience, EpFlippedPairCountEndsAtStepBudget) {
  // Regression: EP's pair loop took no steps, so a bit flip in the
  // broadcast pair count (EP admits up to 2^24 pairs per rank) computed for
  // seconds and ended as WRONG_ANS. The loop now steps once per 1024 pairs,
  // so trial 0 of this point exhausts rank 0's step budget.
  const auto workload = apps::make_workload("EP");
  const auto run = [&workload](std::size_t pool) {
    CampaignOptions opts;
    opts.nranks = 8;
    opts.trials_per_point = 3;
    opts.seed = 20260805;
    opts.max_parallel_trials = pool;
    Campaign campaign(*workload, opts);
    campaign.profile();
    const auto& points = campaign.enumeration().points;
    const auto it = std::find_if(
        points.begin(), points.end(), [](const InjectionPoint& p) {
          return p.kind == mpi::CollectiveKind::Bcast &&
                 p.param == mpi::Param::SendBuf && p.rank == 0;
        });
    EXPECT_NE(it, points.end());
    const std::span<const InjectionPoint> point(&*it, 1);
    // All three trials for the counts; trial 0 alone for its autopsy
    // (last_autopsy reports the batch's last non-SUCCESS trial).
    return std::make_pair(campaign.measure_many(point).at(0),
                          campaign.measure_many(point, 1).at(0));
  };
  const auto [serial, serial_first] = run(1);
  const auto [pooled, pooled_first] = run(4);
  EXPECT_EQ(serial.counts, pooled.counts);
  EXPECT_EQ(serial.exec.last_autopsy, pooled.exec.last_autopsy);
  EXPECT_EQ(serial_first.exec.last_autopsy, pooled_first.exec.last_autopsy);
  EXPECT_EQ(serial.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)],
            1u);
  EXPECT_EQ(serial.counts[static_cast<std::size_t>(inject::Outcome::WrongAns)],
            0u);
  EXPECT_EQ(serial_first.counts[static_cast<std::size_t>(
                inject::Outcome::InfLoop)],
            1u);
  EXPECT_NE(serial_first.exec.last_autopsy.find("step budget of"),
            std::string::npos)
      << serial_first.exec.last_autopsy;
  EXPECT_NE(serial_first.exec.last_autopsy.find("exhausted (livelock)"),
            std::string::npos)
      << serial_first.exec.last_autopsy;
}

TEST(Resilience, DeterministicDeadlockBypassesWatchdogMachinery) {
  // The synthetic hang (a silent early exit) is proven a deadlock
  // structurally, so the trial is classified INF_LOOP at once, with a
  // world autopsy attached to the point and no re-run.
  SupervisedWorkload workload;
  Campaign campaign(workload, supervised_options());
  campaign.profile();

  workload.hang_from.store(2);
  workload.hang_until.store(2);
  const auto result = campaign.measure(sendbuf_point(campaign), 1);
  EXPECT_EQ(result.trials, 1u);
  EXPECT_EQ(result.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)],
            1u);
  EXPECT_NE(result.exec.last_autopsy.find("deterministic deadlock"),
            std::string::npos)
      << result.exec.last_autopsy;
  const auto health = campaign.health();
  EXPECT_EQ(health.deterministic_deadlocks, 1u);
  EXPECT_EQ(health.watchdog_confirmations, 0u);
  EXPECT_EQ(health.watchdog_recalibrations, 0u);
  EXPECT_EQ(health.leaked_rank_threads, 0u);
  EXPECT_TRUE(health.clean());
}

TEST(Resilience, DeterministicFlagAndAutopsyAreJournaled) {
  SupervisedWorkload workload;
  Campaign campaign(workload, supervised_options());
  campaign.profile();
  const auto path = temp_journal("autopsy");
  campaign.attach_journal(path, JournalMode::Create);
  workload.hang_from.store(2);
  workload.hang_until.store(2);
  (void)campaign.measure(sendbuf_point(campaign), 1);
  campaign.detach_journal();

  // The journal line for the hung trial must carry the forensic fields;
  // replay ignores them, so resume stays bit-identical (covered by
  // KillAndResumeIsBitIdentical).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(contents.find("\"d\":1"), std::string::npos);
  EXPECT_NE(contents.find("deterministic deadlock"), std::string::npos);
}

// Deterministic scripted engine for exercising the scheduler in
// isolation: every outcome is a pure function of (site, trial), every
// successful attempt reports `trial % 2` retries, and exactly one chosen
// (point, trial) fails permanently. A per-call jitter makes pool > 1
// genuinely interleave so the failure races ahead of (and behind) its
// siblings. `on_run`, if set, is called first on every attempt (from the
// executing thread), to observe or break the run.
class ScriptedRunner final : public TrialRunner {
 public:
  ScriptedRunner(std::uint32_t fail_site, std::uint32_t fail_trial)
      : fail_site_(fail_site), fail_trial_(fail_trial) {}

  std::function<void(std::uint32_t site, std::uint64_t trial)> on_run;

  Attempt run_guarded(const InjectionPoint& point,
                      std::uint64_t trial) override {
    if (on_run) on_run(point.site_id, trial);
    std::this_thread::sleep_for(
        std::chrono::microseconds((point.site_id * 131 + trial * 37) % 400));
    Attempt attempt;
    if (point.site_id == fail_site_ && trial == fail_trial_) {
      attempt.ok = false;
      attempt.retries = 2;
      attempt.error = "scripted failure";
      return attempt;
    }
    attempt.ok = true;
    attempt.retries = static_cast<std::uint32_t>(trial % 2);
    attempt.outcome = static_cast<inject::Outcome>(
        (point.site_id + trial) % (inject::kNumOutcomes - 1));
    return attempt;
  }

 private:
  std::uint32_t fail_site_;
  std::uint32_t fail_trial_;
};

// Serializes the full observation stream — every TrialRecord and
// PointStatus field the downstream sinks can see — so two runs compare
// as one string.
struct CaptureSink final : OutcomeSink {
  std::string stream;
  void on_trial(const TrialRecord& record) override {
    stream += "T " + record.key + " #" + std::to_string(record.trial) +
              " o" + std::to_string(static_cast<int>(record.outcome)) +
              (record.replayed ? " R" : "") +
              (record.deterministic ? " D" : "") + "\n";
  }
  void on_point(const PointStatus& status) override {
    stream += "P " + status.key +
              " retries=" + std::to_string(status.retries);
    if (status.quarantined) stream += " quarantined err=" + status.error;
    stream += "\n";
  }
};

TEST(Resilience, SchedulerQuarantineIsPoolOrderIndependent) {
  // Regression: the per-point quarantine state used to be accumulated in
  // arrival order (last-writer-wins error, retries from whichever jobs
  // happened to start before the failure landed), so a pool > 1 batch
  // could report different skipped sets, retries, and error text than
  // the serial run — the intermittent results_identical_to_serial: false
  // in the throughput bench. The scheduler now reconstructs the serial
  // stream from per-slot records keyed by the minimum failed ordinal.
  std::vector<InjectionPoint> points(6);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].site_id = static_cast<std::uint32_t>(i);
    points[i].kind = mpi::CollectiveKind::Bcast;
    points[i].site_location = "synthetic:" + std::to_string(i);
    points[i].rank = 0;
    points[i].invocation = 1;
    points[i].param = mpi::Param::SendBuf;
  }
  const std::uint32_t trials = 8;

  const auto run = [&](std::size_t pool) {
    ScriptedRunner runner(/*fail_site=*/3, /*fail_trial=*/2);
    SchedulerConfig config;
    config.pool = pool;
    TrialScheduler scheduler(runner, config);
    CaptureSink sink;
    OutcomeSink* sinks[] = {&sink};
    const auto stats = scheduler.run(points, trials, nullptr, sinks);
    EXPECT_EQ(stats.quarantined_points, 1u);
    return sink.stream;
  };

  const auto serial = run(1);
  // The serial stream itself: point 3 executed trials 0 and 1 (retries
  // 0 + 1), failed at trial 2 (2 retries), skipped the rest.
  const std::string quarantined_line =
      "P " + point_key(points[3]) +
      " retries=3 quarantined err=scripted failure";
  EXPECT_NE(serial.find(quarantined_line), std::string::npos) << serial;
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run(8), serial) << "pool-8 repeat " << repeat;
  }
}

// `n` synthetic points with distinct keys, scripted by site id = index.
std::vector<InjectionPoint> synthetic_points(std::size_t n) {
  std::vector<InjectionPoint> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i].site_id = static_cast<std::uint32_t>(i);
    points[i].kind = mpi::CollectiveKind::Bcast;
    points[i].site_location = "synthetic:" + std::to_string(i);
    points[i].rank = 0;
    points[i].invocation = 1;
    points[i].param = mpi::Param::SendBuf;
  }
  return points;
}

TEST(Resilience, SchedulerCommitsEachRecordBeforeTheNextTrialRuns) {
  // The commit cursor hands a record to the sinks as soon as it and every
  // record before it are final, not when the batch ends: at pool 1 each
  // trial is committed before the runner is asked for the next one.
  const auto points = synthetic_points(2);
  std::string log;
  ScriptedRunner runner(/*fail_site=*/99, /*fail_trial=*/0);
  runner.on_run = [&log](std::uint32_t site, std::uint64_t trial) {
    log += "run " + std::to_string(site) + "," + std::to_string(trial) + "\n";
  };
  struct LogSink final : OutcomeSink {
    std::string* log;
    void on_trial(const TrialRecord& record) override {
      *log += "commit " + std::to_string(record.point_index) + "," +
              std::to_string(record.trial) + "\n";
    }
    void on_point(const PointStatus& status) override {
      *log += "point " + std::to_string(status.point_index) + "\n";
    }
    void on_batch_end() override { *log += "end\n"; }
  } sink;
  sink.log = &log;
  OutcomeSink* sinks[] = {&sink};
  TrialScheduler scheduler(runner, SchedulerConfig{});
  scheduler.run(points, /*trials=*/2, nullptr, sinks);
  EXPECT_EQ(log,
            "run 0,0\ncommit 0,0\nrun 0,1\ncommit 0,1\npoint 0\n"
            "run 1,0\ncommit 1,0\nrun 1,1\ncommit 1,1\npoint 1\nend\n");
}

TEST(Resilience, SchedulerJournalIsDurableWhileTheBatchRuns) {
  // A one-batch study killed mid-run may lose only the journal's unsynced
  // tail: by the time the runner is asked for batch ordinal
  // kFlushBatch + 1, the first kFlushBatch trials are on disk.
  const auto path = temp_journal("streaming");
  auto journal = TrialJournal::create(path, JournalHeader{});
  const auto points = synthetic_points(1);
  constexpr auto kProbe = static_cast<std::uint32_t>(TrialJournal::kFlushBatch);
  std::size_t trial_lines = 0;
  ScriptedRunner runner(/*fail_site=*/99, /*fail_trial=*/0);
  runner.on_run = [&](std::uint32_t, std::uint64_t trial) {
    if (trial != kProbe) return;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // the header
    while (std::getline(in, line)) ++trial_lines;
  };
  JournalSink sink(*journal, points);
  OutcomeSink* sinks[] = {&sink};
  TrialScheduler scheduler(runner, SchedulerConfig{});
  scheduler.run(points, kProbe + 8, nullptr, sinks);
  EXPECT_GE(trial_lines, TrialJournal::kFlushBatch);
}

TEST(Resilience, SchedulerEmitsReplayedTrialsBeyondAFailure) {
  // A point stops at its first failed ordinal, but journal-replayed
  // trials beyond it are still emitted — the serial run never un-records
  // them — and fresh trials beyond it are not, at every pool size.
  const auto points = synthetic_points(6);
  const std::uint32_t trials = 8;
  const std::string key = point_key(points[3]);
  const auto path = temp_journal("replay_beyond_failure");
  auto journal = TrialJournal::create(path, {});
  journal->record_trial(key, 4, inject::Outcome::InfLoop);
  journal->record_trial(key, 6, inject::Outcome::WrongAns);
  journal->record_trial(point_key(points[1]), 5, inject::Outcome::MpiErr);

  const auto run = [&](std::size_t pool) {
    ScriptedRunner runner(/*fail_site=*/3, /*fail_trial=*/2);
    SchedulerConfig config;
    config.pool = pool;
    TrialScheduler scheduler(runner, config);
    CaptureSink sink;
    OutcomeSink* sinks[] = {&sink};
    const auto stats = scheduler.run(points, trials, journal.get(), sinks);
    EXPECT_EQ(stats.replayed, 3u);
    EXPECT_EQ(stats.quarantined_points, 1u);
    return sink.stream;
  };

  const auto serial = run(1);
  const std::string replayed_tail = "T " + key + " #4 o5 R\nT " + key +
                                    " #6 o4 R\nP " + key +
                                    " retries=3 quarantined err=scripted "
                                    "failure\n";
  EXPECT_NE(serial.find(replayed_tail), std::string::npos) << serial;
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run(8), serial) << "pool-8 repeat " << repeat;
  }
}

TEST(Resilience, SchedulerRethrowsWhatTheRunnerThrows) {
  // A runner that throws instead of reporting a failed Attempt makes
  // run() rethrow at every pool size. The throwing job's slot is still
  // marked final, so the commit cursor cannot wait on it forever; a hang
  // fails here after a minute instead of at ctest's TIMEOUT.
  const auto points = synthetic_points(4);
  for (const std::size_t pool : {1, 4}) {
    ScriptedRunner runner(/*fail_site=*/99, /*fail_trial=*/0);
    runner.on_run = [](std::uint32_t site, std::uint64_t trial) {
      if (site == 2 && trial == 1) throw std::runtime_error("runner bug");
    };
    SchedulerConfig config;
    config.pool = pool;
    TrialScheduler scheduler(runner, config);
    CaptureSink sink;
    OutcomeSink* sinks[] = {&sink};
    auto batch = std::async(std::launch::async, [&] {
      return scheduler.run(points, /*trials=*/4, nullptr, sinks);
    });
    if (batch.wait_for(60s) != std::future_status::ready) {
      ADD_FAILURE() << "pool " << pool << ": run() hung after a throw";
      std::abort();  // the hung batch cannot be joined
    }
    EXPECT_THROW(batch.get(), std::runtime_error) << "pool " << pool;
    // Nothing at or beyond the throwing slot is committed.
    EXPECT_EQ(sink.stream.find(point_key(points[2]) + " #1"),
              std::string::npos);
    EXPECT_EQ(sink.stream.find("P " + point_key(points[2])),
              std::string::npos);
    if (pool == 1) {
      EXPECT_NE(sink.stream.find("P " + point_key(points[1])),
                std::string::npos)
          << sink.stream;
    }
  }
}

}  // namespace
}  // namespace fastfit::core
