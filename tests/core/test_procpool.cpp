// Process-isolated trial execution: the fork-server pool (core/procpool)
// and its campaign integration behind --isolation process.
//
// Unit tests drive ProcPool directly with synthetic trial functions
// (echo, contained error, raise(signo), sleep, a synthetic cut) to pin the
// wire protocol, the death taxonomy (SignalDeath / LeaseExpired /
// LaneFailure), lane respawn, the degradation ladder, and the cut
// holder's life cycle. The CutForkParity suite requires fork at the cut
// to equal --snapshots off on every point of five workloads. Campaign-level tests require the
// process backend to be byte-identical to the thread backend for
// non-signal fault models (serial, pooled, and journal resume) and to
// classify genuine worker signal deaths as SEG_FAULT — with the signal
// number and rusage in the journal's forensic field — without losing the
// campaign.
//
// Fixture names deliberately avoid the CI sanitizer-job regexes: these
// suites fork, which is the address-sanitizer job's surface (ProcPool|
// ProcessIsolation there), not the thread-sanitizer job's.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "core/procpool.hpp"
#include "inject/fault_model.hpp"
#include "inject/outcome.hpp"
#include "telemetry/recorder.hpp"
#include "temp_file.hpp"

namespace fastfit::core {
namespace {

using procpool::TrialReply;
using procpool::WorkItem;

constexpr auto kSegFault = static_cast<std::size_t>(inject::Outcome::SegFault);

WorkItem sample_item() {
  WorkItem item;
  item.site_id = 42;
  item.rank = -3;  // negative ranks must survive the wire encoding
  item.invocation = 7;
  item.param = 2;
  item.fault = inject::FaultModelSpec::parse("single-bit-flip@prob=0.25");
  item.trial = 11;
  item.step_budget = {1234, 0, 99};
  return item;
}

// ---------------------------------------------------------------------------
// ProcPool unit tests: synthetic trial functions, no campaign involved.
// ---------------------------------------------------------------------------

TEST(ProcPool, CompletedReplyRoundTripsEveryField) {
  ProcPool::Options opts;
  opts.lanes = 1;
  // The child echoes the decoded work item back through the autopsy, so
  // this also pins the WorkItem wire encoding end to end.
  ProcPool pool(opts, [](const WorkItem& item) {
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::WrongAns;
    reply.deterministic_hang = true;
    std::ostringstream echo;
    echo << item.site_id << '/' << item.rank << '/' << item.invocation << '/'
         << static_cast<int>(item.param) << '/' << item.fault.canonical()
         << '/' << item.trial;
    for (const auto budget : item.step_budget) echo << '/' << budget;
    reply.autopsy = echo.str();
    return reply;
  });

  const auto result = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(result.reply.ok);
  EXPECT_EQ(result.reply.outcome, inject::Outcome::WrongAns);
  EXPECT_TRUE(result.reply.deterministic_hang);
  EXPECT_EQ(result.reply.autopsy,
            "42/-3/7/2/single-bit-flip@prob=0.25/11/1234/0/99");
  EXPECT_EQ(pool.stats().trials_dispatched, 1u);
  EXPECT_EQ(pool.stats().signal_deaths, 0u);
}

TEST(ProcPool, ContainedErrorTravelsThroughReply) {
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = false;
    reply.error = "synthetic contained failure";
    return reply;
  });
  const auto result = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(result.kind, ProcPool::Result::Kind::Completed);
  EXPECT_FALSE(result.reply.ok);
  EXPECT_EQ(result.reply.error, "synthetic contained failure");
}

TEST(ProcPool, SignalMatrixReportsSignalDeathWithRusage) {
  // One pool, four trials, each raising a different genuine signal in the
  // trial child; the supervisor must survive all of them and report the
  // exact signal number.
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, [](const WorkItem& item) {
    std::raise(static_cast<int>(item.site_id));
    TrialReply reply;  // unreachable: the raise kills this child
    reply.ok = false;
    reply.error = "survived raise";
    return reply;
  });

  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    WorkItem item = sample_item();
    item.site_id = static_cast<std::uint32_t>(signo);
    const auto result = pool.run(item, std::chrono::seconds(30));
    ASSERT_EQ(result.kind, ProcPool::Result::Kind::SignalDeath)
        << "signal " << signo;
    EXPECT_EQ(result.signal, signo);
  }
  EXPECT_EQ(pool.stats().signal_deaths, 4u);
  // A signal death is a datum, not a lane loss: the server survives, so
  // no respawns were needed.
  EXPECT_EQ(pool.stats().respawns, 0u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, LeaseExpiryKillsLaneAndRespawns) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.trial == 999) {  // the wedged trial: sleep past any lease
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });

  WorkItem wedged = sample_item();
  wedged.trial = 999;
  const auto expired = pool.run(wedged, std::chrono::milliseconds(200));
  ASSERT_EQ(expired.kind, ProcPool::Result::Kind::LeaseExpired);
  EXPECT_NE(expired.error.find("lease"), std::string::npos);
  EXPECT_EQ(pool.stats().lease_kills, 1u);

  // The lane respawns on next use and serves normally.
  const auto after = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
  EXPECT_FALSE(pool.degraded());
}

TEST(ProcPool, ServerKilledMidTrialIsLaneFailureThenRecovers) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, [](const WorkItem& item) {
    if (item.trial == 999) {
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });

  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_GT(pids[0], 0);

  // Kill the fork-server while its trial child is mid-trial (sleeping).
  std::thread killer([pid = pids[0]] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(pid, SIGKILL);
  });
  WorkItem wedged = sample_item();
  wedged.trial = 999;
  const auto lost = pool.run(wedged, std::chrono::seconds(30));
  killer.join();
  ASSERT_EQ(lost.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_EQ(pool.stats().lane_failures, 1u);

  const auto after = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(after.kind, ProcPool::Result::Kind::Completed);
  EXPECT_TRUE(after.reply.ok);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(ProcPool, RespawnBudgetExhaustionDegradesPool) {
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 0;  // the first lane loss is terminal
  ProcPool pool(opts, [](const WorkItem&) {
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    return reply;
  });
  const auto pids = pool.server_pids();
  ASSERT_EQ(pids.size(), 1u);
  ::kill(pids[0], SIGKILL);

  // First run discovers the dead server (LaneFailure), second finds the
  // lane down with no respawn budget left: the pool declares degraded.
  const auto first = pool.run(sample_item(), std::chrono::seconds(30));
  EXPECT_EQ(first.kind, ProcPool::Result::Kind::LaneFailure);
  const auto second = pool.run(sample_item(), std::chrono::seconds(30));
  ASSERT_EQ(second.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_NE(second.error.find("degraded"), std::string::npos);
  EXPECT_TRUE(pool.degraded());
}

TEST(ProcPool, IsolationModeParsesAndRejects) {
  EXPECT_EQ(parse_isolation_mode("thread"), IsolationMode::Thread);
  EXPECT_EQ(parse_isolation_mode("process"), IsolationMode::Process);
  EXPECT_STREQ(to_string(IsolationMode::Thread), "thread");
  EXPECT_STREQ(to_string(IsolationMode::Process), "process");
  EXPECT_THROW(parse_isolation_mode("fork"), ConfigError);
  EXPECT_THROW(parse_isolation_mode(""), ConfigError);
}

TEST(ProcPool, DescribeWorkerDeathNamesSignalAndRusage) {
  const auto text = describe_worker_death(SIGSEGV, 3'000, 1'000, 2048);
  EXPECT_EQ(text,
            "worker killed by SIGSEGV (signal 11); rusage: user=3ms sys=1ms "
            "maxrss=2048KiB");
  EXPECT_NE(describe_worker_death(SIGBUS, 0, 0, 0).find("SIGBUS"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign integration: --isolation process end to end.
// ---------------------------------------------------------------------------

CampaignOptions isolation_options(IsolationMode mode) {
  CampaignOptions opts;
  opts.nranks = 4;
  opts.trials_per_point = 2;
  opts.seed = 20260808;
  opts.max_parallel_trials = 1;
  opts.isolation = mode;
  return opts;
}

std::vector<PointResult> run_points(const apps::Workload& workload,
                                    const CampaignOptions& opts,
                                    std::size_t npoints,
                                    CampaignHealth* health_out = nullptr) {
  Campaign campaign(workload, opts);
  campaign.profile();
  const auto& points = campaign.enumeration().points;
  const auto n = std::min(npoints, points.size());
  auto results = campaign.measure_many(
      std::span<const InjectionPoint>(points.data(), n),
      opts.trials_per_point);
  if (health_out != nullptr) *health_out = campaign.health();
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

TEST(ProcessIsolation, MatchesThreadBackendSerially) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  CampaignHealth health;
  const auto actual = run_points(
      *workload, isolation_options(IsolationMode::Process), 4, &health);
  expect_same_counts(expected, actual, "process serial");
  // Non-signal models must not lose a single worker.
  EXPECT_EQ(health.worker_deaths, 0u);
  EXPECT_EQ(health.isolation_fallbacks, 0u);
}

TEST(ProcessIsolation, MatchesThreadBackendPooled) {
  const auto workload = apps::make_workload("LU");
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);
  auto pooled = isolation_options(IsolationMode::Process);
  pooled.max_parallel_trials = 4;
  expect_same_counts(expected, run_points(*workload, pooled, 4),
                     "process pool-4");
}

TEST(ProcessIsolation, NonParameterModelMatchesAcrossBackends) {
  // Rank death exercises the non-replayable (snapshot-bypassing) trial
  // path inside the worker children.
  const auto workload = apps::make_workload("LU");
  auto thread_opts = isolation_options(IsolationMode::Thread);
  thread_opts.fault_models = {inject::FaultModelSpec::parse("rank-death")};
  const auto expected = run_points(*workload, thread_opts, 3);

  auto process_opts = thread_opts;
  process_opts.isolation = IsolationMode::Process;
  expect_same_counts(expected, run_points(*workload, process_opts, 3),
                     "rank-death process");
}

TEST(CrashResume, ProcessBackendResumesBitIdentical) {
  const auto workload = apps::make_workload("LU");
  const auto opts = isolation_options(IsolationMode::Process);
  // Baseline from the thread backend: resume parity must hold not just
  // run-to-run but across isolation modes.
  const auto expected =
      run_points(*workload, isolation_options(IsolationMode::Thread), 4);

  const testing_support::TempFile path("procpool_resume.jsonl");
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
  expect_same_counts(expected, results, "process resume");
  std::remove(path.c_str());
}

TEST(SignalMatrix, GenuineSignalsClassifySegFault) {
  // The real-crash acceptance test: every signal-family fault model kills
  // its worker child with a genuine signal, and every such death must be
  // classified SEG_FAULT without losing the campaign.
  const auto workload = apps::make_workload("EP");
  for (const char* model : {"sigsegv", "sigbus", "sigfpe", "sigabrt"}) {
    auto opts = isolation_options(IsolationMode::Process);
    opts.fault_models = {inject::FaultModelSpec::parse(model)};
    CampaignHealth health;
    const auto results = run_points(*workload, opts, 2, &health);
    ASSERT_FALSE(results.empty()) << model;
    std::uint64_t total = 0;
    for (const auto& r : results) {
      EXPECT_EQ(r.counts[kSegFault], r.trials) << model;
      total += r.trials;
    }
    EXPECT_EQ(health.worker_deaths, total) << model;
    EXPECT_EQ(health.quarantined_points, 0u) << model;
  }
}

TEST(SignalMatrix, JournalCarriesSignalForensics) {
  // The journal's forensic field must name the signal and the child's
  // rusage — that is what makes a real crash diagnosable after the fact.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Process);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};

  const testing_support::TempFile path("signal_forensics.jsonl");
  {
    Campaign campaign(*workload, opts);
    campaign.profile();
    campaign.attach_journal(path, JournalMode::Create);
    const auto& points = campaign.enumeration().points;
    ASSERT_FALSE(points.empty());
    campaign.measure_many(std::span<const InjectionPoint>(points.data(), 1),
                          opts.trials_per_point);
    EXPECT_TRUE(campaign.health().clean());
    campaign.detach_journal();
  }
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("worker killed by SIGSEGV (signal 11)"),
            std::string::npos);
  EXPECT_NE(contents.str().find("rusage:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SignalMatrix, SignalModelsRequireProcessIsolation) {
  // In-process, a genuine SIGSEGV would kill the campaign: the engine
  // must refuse the configuration up front, at construction.
  const auto workload = apps::make_workload("EP");
  auto opts = isolation_options(IsolationMode::Thread);
  opts.fault_models = {inject::FaultModelSpec::parse("sigsegv")};
  EXPECT_THROW(Campaign c(*workload, opts), ConfigError);
}

// ---------------------------------------------------------------------------
// Fork at the cut: the process a server forks for a point runs the prefix
// once, holds it at the cut, and forks one child per trial of the point.
// ---------------------------------------------------------------------------

/// A trial function with a synthetic cut that items of invocation 0 reach
/// and others do not. The reply's autopsy is "<parent pid> <trial>": the
/// parent is the cut holder for a child forked at the cut, the server
/// otherwise. Trial 999 writes "<pid> <parent pid>" to `pid_file` and then
/// sleeps past any lease.
procpool::TrialFn cut_trial_fn(const std::string& pid_file = "") {
  return [pid_file](const WorkItem& item) {
    std::uint64_t trial = item.trial;
    if (item.invocation == 0) trial = procpool::hold_at_cut(trial);
    if (trial == 999) {
      std::ofstream(pid_file) << ::getpid() << ' ' << ::getppid() << '\n';
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    TrialReply reply;
    reply.ok = true;
    reply.outcome = inject::Outcome::Success;
    reply.autopsy = std::to_string(::getppid()) + ' ' + std::to_string(trial);
    return reply;
  };
}

WorkItem cut_item(std::uint32_t site, std::uint64_t trial,
                  std::uint64_t invocation = 0) {
  WorkItem item = sample_item();
  item.site_id = site;
  item.trial = trial;
  item.invocation = invocation;
  return item;
}

struct CutReply {
  bool from_cut = false;
  int parent = 0;
  std::uint64_t trial = 0;
};

CutReply run_cut(ProcPool& pool, const WorkItem& item) {
  const auto result = pool.run(item, std::chrono::seconds(30));
  EXPECT_EQ(result.kind, ProcPool::Result::Kind::Completed) << result.error;
  CutReply reply;
  reply.from_cut = result.from_cut;
  std::istringstream(result.reply.autopsy) >> reply.parent >> reply.trial;
  return reply;
}

/// True once `pid` is dead: gone, or a zombie its new parent has not
/// reaped yet. Waits up to 5 s for a SIGKILL to land.
bool process_gone(int pid) {
  for (int i = 0; i < 500; ++i) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) return true;
    const auto name_end = line.rfind(')');
    if (name_end != std::string::npos && name_end + 2 < line.size() &&
        line[name_end + 2] == 'Z') {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::pair<int, int> read_pids(const std::string& path) {
  std::pair<int, int> pids{0, 0};
  std::ifstream(path) >> pids.first >> pids.second;
  return pids;
}

TEST(ProcPool, CutHolderServesItsPointAndSwitchesMidBatch) {
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, cut_trial_fn());
  const int server = pool.server_pids().at(0);

  const auto a0 = run_cut(pool, cut_item(1, 0));
  EXPECT_TRUE(a0.from_cut);
  EXPECT_NE(a0.parent, server);  // forked by the holder, not the server
  EXPECT_EQ(a0.trial, 0u);
  const auto a5 = run_cut(pool, cut_item(1, 5));
  EXPECT_TRUE(a5.from_cut);
  EXPECT_EQ(a5.parent, a0.parent);  // the same holder, prefix not rerun
  EXPECT_EQ(a5.trial, 5u);

  // Another point: the server ends and reaps the first point's holder.
  const auto b3 = run_cut(pool, cut_item(2, 3));
  EXPECT_TRUE(b3.from_cut);
  EXPECT_NE(b3.parent, a0.parent);
  EXPECT_EQ(b3.trial, 3u);
  EXPECT_TRUE(process_gone(a0.parent));

  // Back to the first point: a fresh holder.
  const auto a7 = run_cut(pool, cut_item(1, 7));
  EXPECT_TRUE(a7.from_cut);
  EXPECT_NE(a7.parent, b3.parent);
  EXPECT_EQ(a7.trial, 7u);

  EXPECT_EQ(pool.stats().cut_forks, 4u);
  EXPECT_EQ(pool.stats().trials_dispatched, 4u);
  EXPECT_EQ(pool.stats().respawns, 0u);
}

TEST(ProcPool, RunPrefersTheLaneHoldingThePoint) {
  ProcPool::Options opts;
  opts.lanes = 2;
  ProcPool pool(opts, cut_trial_fn());
  const auto a = run_cut(pool, cut_item(1, 0));
  const auto b = run_cut(pool, cut_item(2, 0));
  EXPECT_NE(a.parent, b.parent);  // B took the idle lane
  for (std::uint64_t trial = 1; trial < 4; ++trial) {
    EXPECT_EQ(run_cut(pool, cut_item(1, trial)).parent, a.parent);
    EXPECT_EQ(run_cut(pool, cut_item(2, trial)).parent, b.parent);
  }
  EXPECT_EQ(pool.stats().cut_forks, 8u);
}

TEST(ProcPool, PointWhoseCutIsNeverReachedRunsFromScratch) {
  ProcPool::Options opts;
  opts.lanes = 1;
  ProcPool pool(opts, cut_trial_fn());
  const int server = pool.server_pids().at(0);
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto reply = run_cut(pool, cut_item(1, trial, /*invocation=*/1));
    EXPECT_FALSE(reply.from_cut);
    EXPECT_EQ(reply.parent, server);
    EXPECT_EQ(reply.trial, trial);
  }
  EXPECT_EQ(pool.stats().cut_forks, 0u);
}

TEST(ProcPool, LeaseKillsTheCutHolderAndItsChildTogether) {
  const testing_support::TempFile pid_file("cut_lease_pids");
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, cut_trial_fn(pid_file));
  ASSERT_TRUE(run_cut(pool, cut_item(1, 0)).from_cut);

  // Trial 999 goes to the holder, whose child sleeps past the lease.
  const auto expired =
      pool.run(cut_item(1, 999), std::chrono::milliseconds(300));
  ASSERT_EQ(expired.kind, ProcPool::Result::Kind::LeaseExpired);
  const auto [child, holder] = read_pids(pid_file);
  ASSERT_GT(child, 0);
  ASSERT_GT(holder, 0);
  EXPECT_TRUE(process_gone(child));
  EXPECT_TRUE(process_gone(holder));

  const auto after = run_cut(pool, cut_item(1, 1));
  EXPECT_TRUE(after.from_cut);
  EXPECT_EQ(after.trial, 1u);
  EXPECT_EQ(pool.stats().lease_kills, 1u);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(ProcPool, ServerKilledWhileHoldingACutIsLaneFailureThenRecovers) {
  const testing_support::TempFile pid_file("cut_server_kill_pids");
  ProcPool::Options opts;
  opts.lanes = 1;
  opts.respawn_budget = 2;
  ProcPool pool(opts, cut_trial_fn(pid_file));
  ASSERT_TRUE(run_cut(pool, cut_item(1, 0)).from_cut);

  std::thread killer([pid = pool.server_pids().at(0)] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(pid, SIGKILL);
  });
  const auto lost = pool.run(cut_item(1, 999), std::chrono::seconds(30));
  killer.join();
  ASSERT_EQ(lost.kind, ProcPool::Result::Kind::LaneFailure);
  EXPECT_EQ(pool.stats().lane_failures, 1u);
  const auto [child, holder] = read_pids(pid_file);
  EXPECT_TRUE(process_gone(child));
  EXPECT_TRUE(process_gone(holder));

  const auto after = run_cut(pool, cut_item(1, 2));
  EXPECT_TRUE(after.from_cut);
  EXPECT_EQ(after.trial, 2u);
  EXPECT_EQ(pool.stats().respawns, 1u);
}

// Campaign level: process isolation forks at the cut unless snapshots are
// off, and the two give the same outcomes and autopsies on every point.

struct CutStudy {
  std::vector<PointResult> results;
  /// Journal trial records, with the rusage of signal deaths cut off (it
  /// varies run to run; the signal does not).
  std::vector<std::string> journal;
  std::uint64_t cut_forks = 0;
};

CutStudy run_every_point(const apps::Workload& workload,
                         const CampaignOptions& opts,
                         std::span<const InjectionPoint> only = {}) {
  auto& rec = telemetry::Recorder::instance();
  rec.enable();
  rec.reset();
  const testing_support::TempFile journal("cut_fork_parity.jsonl");
  CutStudy study;
  {
    Campaign campaign(workload, opts);
    campaign.profile();
    campaign.attach_journal(journal, JournalMode::Create);
    study.results = campaign.measure_many(
        only.empty() ? std::span<const InjectionPoint>(
                           campaign.enumeration().points)
                     : only,
        opts.trials_per_point);
    EXPECT_TRUE(campaign.health().clean());
    campaign.detach_journal();
  }
  study.cut_forks = rec.metrics().counter_value("fastfit_cut_forks_total");
  rec.reset();
  rec.disable();
  std::ifstream in(journal.path());
  std::string line;
  std::getline(in, line);  // the header
  while (std::getline(in, line)) {
    study.journal.push_back(line.substr(0, line.find("; rusage:")));
  }
  return study;
}

CampaignOptions cut_options(const char* fault_models) {
  CampaignOptions opts;
  opts.nranks = 8;
  opts.trials_per_point = 3;
  opts.seed = 20261020;
  opts.max_parallel_trials = 2;
  opts.isolation = IsolationMode::Process;
  opts.fault_models = inject::parse_fault_models(fault_models);
  return opts;
}

void expect_cut_parity(const char* workload_name, const char* fault_models) {
  const auto workload = apps::make_workload(workload_name);
  const std::string label =
      std::string(workload_name) + " " + fault_models;
  auto off_opts = cut_options(fault_models);
  off_opts.snapshots = SnapshotMode::Off;
  const auto off = run_every_point(*workload, off_opts);
  const auto cut = run_every_point(*workload, cut_options(fault_models));
  expect_same_counts(off.results, cut.results, label);
  EXPECT_EQ(off.journal, cut.journal) << label;
  EXPECT_EQ(off.cut_forks, 0u) << label;
  // Every point is an exact-point fault whose cut the world reaches.
  std::uint64_t trials = 0;
  for (const auto& r : cut.results) trials += r.trials;
  EXPECT_EQ(cut.cut_forks, trials) << label;
}

constexpr const char* kEveryModel =
    "single-bit-flip,message-drop,message-corrupt,rank-death,sigsegv";

TEST(CutForkParity, LuEveryPointEveryModel) {
  expect_cut_parity("LU", kEveryModel);
}

TEST(CutForkParity, EpEveryPointEveryModel) {
  expect_cut_parity("EP", kEveryModel);
}

// The workloads where thread-mode replay counts different outcomes than
// from-scratch runs (docs/snapshot.md, "Parity"): the fork does not.
TEST(CutForkParity, IsEveryPoint) { expect_cut_parity("IS", "single-bit-flip"); }
TEST(CutForkParity, CgEveryPoint) { expect_cut_parity("CG", "single-bit-flip"); }
TEST(CutForkParity, MiniMdEveryPoint) {
  expect_cut_parity("miniMD", "single-bit-flip");
}

TEST(CutForkParity, UnreachedCutRunsFromScratch) {
  // An invocation the run never reaches: the trigger never fires, so no
  // process holds a cut and every trial runs the whole fault-free job.
  const auto workload = apps::make_workload("LU");
  const auto opts = cut_options("single-bit-flip");
  Campaign probe(*workload, opts);
  probe.profile();
  InjectionPoint unreached = probe.enumeration().points.at(0);
  unreached.invocation = 1'000'000;
  const InjectionPoint points[1] = {unreached};

  auto off_opts = opts;
  off_opts.snapshots = SnapshotMode::Off;
  const auto off = run_every_point(*workload, off_opts, points);
  const auto cut = run_every_point(*workload, opts, points);
  expect_same_counts(off.results, cut.results, "unreached cut");
  EXPECT_EQ(cut.results.at(0).counts[static_cast<std::size_t>(
                inject::Outcome::Success)],
            opts.trials_per_point);
  EXPECT_EQ(cut.cut_forks, 0u);
}

}  // namespace
}  // namespace fastfit::core
