#pragma once

// Campaign execution: the fault-free profiling run, per-trial fault
// injection, and the per-point statistics the evaluation section reports.
//
// The campaign engine is crash-resilient in two coordinated layers:
//  (1) a durable trial journal (core/journal.hpp) that measure() /
//      measure_many() write through and resume from, and
//  (2) a retrying trial guard that contains internal (non-fault)
//      exceptions: a trial that keeps failing quarantines its point
//      instead of tearing down the campaign.
// Hang verdicts need no resilience layer: a deadlock is proven at world
// quiescence and a livelock ends at a per-rank step budget derived from
// the fault-free profiling run, so neither depends on host load.

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/enumerate.hpp"
#include "core/journal.hpp"
#include "core/points.hpp"
#include "core/procpool.hpp"
#include "core/scheduler.hpp"
#include "core/shard.hpp"
#include "core/snapshot_cache.hpp"
#include "inject/fault_spec.hpp"
#include "inject/injector.hpp"
#include "inject/outcome.hpp"
#include "profile/profiler.hpp"

namespace fastfit::core {

struct CampaignOptions {
  int nranks = 16;
  std::uint64_t seed = 0x5eedfa57f17ULL;
  /// Fault injection tests per injection point (Table II: NUM_INJ). The
  /// paper uses 100; smaller values trade statistical resolution for
  /// wall-clock time.
  std::uint32_t trials_per_point = 30;
  /// Fault models (manifestation x trigger) the campaign injects
  /// (--fault-models, FASTFIT_FAULT_MODELS). profile() crosses the
  /// enumerated points with every spec; the default single entry — the
  /// paper's exact-point single bit flip — reproduces the pre-v2 point
  /// set and outcomes byte for byte. Must be non-empty and
  /// duplicate-free (parse_fault_models enforces both).
  std::vector<inject::FaultModelSpec> fault_models = {
      inject::FaultModelSpec{}};
  /// ULFM-style shrink-and-continue repair (--repair, FASTFIT_REPAIR):
  /// injected worlds run with WorldOptions::repair set, so a fail-stop
  /// rank death revokes the communicator instead of poisoning the world
  /// and repair-capable workloads resume on the survivors (outcome
  /// REPAIRED instead of RANK_DEAD).
  bool repair = false;
  /// True when this configuration opted into the extended fault-model
  /// library (any non-default spec, or repair mode) and serialized
  /// surfaces must carry the RANK_DEAD / REPAIRED outcome columns. The
  /// default configuration keeps the paper's six-way taxonomy so its
  /// output is byte-identical to pre-v2 builds.
  bool extended_outcomes() const noexcept {
    return repair || fault_models.size() != 1 ||
           !fault_models.front().is_default();
  }
  /// Collective algorithm selection for every run of this campaign.
  mpi::CollectiveAlgorithms algorithms;
  /// Unread; kept because perfbench/refstudy.cpp still sets it.
  mpi::WorldEngine engine = mpi::WorldEngine::Fibers;
  /// Upper bound on concurrently executing trials in measure_many. 0 means
  /// "auto": hardware_concurrency() (min 1) — a trial runs all its rank
  /// fibers on its own lane thread. 1 forces the serial path. Results are
  /// identical at every setting; only wall-clock time changes.
  std::size_t max_parallel_trials = 0;
  /// Trial guard: how many times an internal (non-fault) trial failure is
  /// retried with exponential backoff before the point is quarantined.
  /// (FASTFIT_MAX_TRIAL_RETRIES; 0 disables retries.)
  std::uint32_t max_trial_retries = 2;
  /// Structural pruning chain applied at profile() time, in order
  /// (FASTFIT_PASSES). Names as understood by make_pruning_pass; passes
  /// that need a measurer ("ml") are rejected here — the ML stage runs
  /// points and belongs to the study driver.
  std::vector<std::string> pruning_passes = {"semantic", "context"};
  /// Which deterministic shard of the post-pruning point set this
  /// campaign executes (FASTFIT_SHARD, "--shard i/N"). The campaign
  /// itself only pins the shard into the journal header; the study
  /// driver does the actual partitioning.
  ShardSpec shard;
  /// Prefix skipping (--snapshots, FASTFIT_SNAPSHOTS). Under `auto`
  /// (default) a trial executes only the post-injection suffix: a
  /// thread-isolated trial clones a recorded fault-free prefix (a replay
  /// that diverges reruns from scratch), and a process-isolated trial of
  /// an exact-point fault is forked from the process that ran the prefix
  /// live up to the cut (core/procpool.hpp). `off` runs every trial from
  /// scratch. Skipping is meant to change wall time only. The fork does so
  /// by construction; replay does not yet on every workload: some IS, CG
  /// and miniMD points count different outcomes under `auto` than under
  /// `off` (docs/snapshot.md, "Parity").
  SnapshotMode snapshots = SnapshotMode::Auto;
  /// Trial execution backend (--isolation, FASTFIT_ISOLATION). `Thread`
  /// (default) runs trials in-process on the executor's lane threads.
  /// `Process` dispatches each trial to a child process of a per-lane
  /// fork-server (core/procpool.hpp): worker death by a real signal
  /// classifies SEG_FAULT instead of killing the campaign, and a worker
  /// that outlives its lease (a rank spinning without entering MiniMPI)
  /// is SIGKILLed; results for non-signal fault models stay
  /// byte-identical to the in-process backend run from scratch.
  IsolationMode isolation = IsolationMode::Thread;
  /// Per-trial lease for process-isolated workers: past this deadline
  /// the whole lane process group is SIGKILLed and the trial re-enters
  /// the retry-with-quarantine guard. The lease is the one wall-clock
  /// bound on a trial: it catches a rank spinning without entering
  /// MiniMPI and a wedged worker process. Unset = a generous backstop
  /// derived from the fault-free wall time.
  std::optional<std::chrono::milliseconds> worker_lease;
};

/// Aggregate campaign health: what the resilience machinery had to do.
/// All zeros on a healthy machine.
struct CampaignHealth {
  std::uint64_t total_retries = 0;           ///< guarded-trial retries
  std::uint64_t quarantined_points = 0;      ///< points given up on
  /// Always 0; kept because perfbench/refstudy.cpp still reads it.
  std::uint64_t watchdog_confirmations = 0;
  /// Always 0; kept because perfbench/refstudy.cpp still reads it.
  std::uint64_t watchdog_recalibrations = 0;
  std::uint64_t replayed_trials = 0;         ///< trials served from the journal
  std::uint64_t deterministic_deadlocks = 0; ///< structurally proven INF_LOOPs
  /// Always 0; kept because perfbench/refstudy.cpp still reads it.
  std::uint64_t leaked_rank_threads = 0;
  std::uint64_t worker_deaths = 0;           ///< workers killed by a real signal
  std::uint64_t worker_lease_kills = 0;      ///< workers SIGKILLed past the lease
  std::uint64_t isolation_fallbacks = 0;     ///< trials run in-process post-degradation

  /// True when no point was quarantined (retries and hang verdicts are
  /// routine; quarantine means lost coverage).
  /// Worker deaths are *data* (the classified SEG_FAULT outcomes), lease
  /// kills feed the retry ladder whose terminal state is quarantine, and
  /// degradation fallbacks still produce correct results — none of the
  /// worker counters flips a run unclean on its own, so exit codes stay
  /// 0/2/1-consistent with quarantine alone.
  bool clean() const noexcept { return quarantined_points == 0; }
};

/// Journal attachment mode (see Campaign::attach_journal).
enum class JournalMode {
  Create,  ///< fresh journal; refuses to clobber an existing file
  Resume,  ///< validate + replay an existing journal (create if missing)
};

/// One fault-injection campaign over one workload: owns the profiling
/// phase, the golden digest, and trial execution. The heavy lifting of
/// deciding *which* points to run lives above (the study driver and its
/// pruning passes); the ordering/batching machinery lives below
/// (TrialScheduler). Campaign is the *engine*: it implements TrialRunner
/// (privately — only its own measure calls may schedule on it) and
/// contributes the world execution, step-budget calibration, and trial
/// guard.
class Campaign : private TrialRunner {
 public:
  Campaign(const apps::Workload& workload, CampaignOptions options);

  /// Phase 1 (paper Fig 5): one fault-free profiling run, which also
  /// yields the golden digest, the per-rank step counts behind the trial
  /// step budgets and the worker lease, then point enumeration. Must be
  /// called before trials.
  void profile();

  const Enumeration& enumeration() const;
  const PruningStats& stats() const { return enumeration().stats; }
  const profile::Profiler& profiler() const;

  /// Attaches a durable trial journal at `path`. Requires profile():
  /// the journal header pins the campaign identity including the golden
  /// digest, and Resume refuses a journal whose identity differs from
  /// this campaign (changed seed, workload, fault model, algorithms,
  /// nranks, or golden digest). After attaching, measure()/measure_many()
  /// replay journaled trials instead of executing them and append every
  /// fresh outcome, so a killed campaign resumes bit-identically.
  void attach_journal(const std::string& path, JournalMode mode);

  /// Flushes and closes the journal (also done on destruction).
  void detach_journal();

  /// The attached journal, or nullptr.
  TrialJournal* journal() noexcept { return journal_.get(); }
  const TrialJournal* journal() const noexcept { return journal_.get(); }

  /// Runs `trials` injected executions of one point and aggregates the
  /// responses. Deterministic in (campaign seed, point, trial index): the
  /// per-trial RNG identity is derived from the point coordinates and the
  /// trial ordinal (FaultSpec::stream_index), so the result does not
  /// depend on what was measured before. Trials run serially; internal
  /// failures are retried and, on exhaustion, the point is quarantined
  /// (see PointResult::exec) rather than thrown. Measures on one campaign
  /// must not overlap: a measure started while another is running throws
  /// InternalError.
  PointResult measure(const InjectionPoint& point, std::uint32_t trials);

  /// Convenience: measure with the configured trials_per_point.
  PointResult measure(const InjectionPoint& point);

  /// Measures a batch of points, running up to max_parallel_trials
  /// (point, trial) jobs concurrently on a TrialExecutor. Returns results
  /// in input order, bit-identical to calling measure() on each point:
  /// per-trial RNG identity is execution-order-free, and no outcome reads
  /// a clock.
  std::vector<PointResult> measure_many(std::span<const InjectionPoint> points,
                                        std::uint32_t trials);

  /// Convenience: batch measure with the configured trials_per_point.
  std::vector<PointResult> measure_many(
      std::span<const InjectionPoint> points);

  /// Resolved trial concurrency (the "auto" default made concrete).
  std::size_t parallel_trials() const noexcept;

  /// Adjusts the trial concurrency of later measure_many calls; results
  /// are unaffected. Throws InternalError if a measure is in flight —
  /// the knob races with the running pool's sizing otherwise.
  void set_max_parallel_trials(std::size_t max_parallel);

  /// True while a measure()/measure_many() call is executing (any thread).
  bool measuring() const noexcept {
    return measuring_.load(std::memory_order_acquire);
  }

  /// Total injected executions so far (a statistic, not an RNG input).
  std::uint64_t trials_run() const noexcept {
    return trials_run_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the campaign's resilience counters.
  CampaignHealth health() const noexcept;

  /// Statistics of the prefix-replay snapshot subsystem (all zeros when
  /// snapshots are off, under process isolation, or never engaged).
  SnapshotCache::Stats snapshot_stats() const;

  std::uint64_t golden_digest() const;

  /// Per-rank step budget of every injected world (WorldOptions::
  /// step_budget): kStepBudgetMultiplier × the rank's step count in the
  /// profiling run.
  const std::vector<std::uint64_t>& step_budget() const;

  /// How many times its fault-free step count an injected rank may step
  /// before it is declared livelocked (INF_LOOP). Far above what finishing
  /// trials take (CG's largest legal iteration count is 32x its default),
  /// and below the 48 fault-free wall times of the worker lease, so a
  /// livelocked worker meets its budget before the lease kills it.
  static constexpr std::uint64_t kStepBudgetMultiplier = 32;

  const CampaignOptions& options() const noexcept { return options_; }
  const apps::Workload& workload() const noexcept { return *workload_; }

 private:
  const apps::Workload* workload_;
  CampaignOptions options_;
  bool profiled_ = false;
  std::uint64_t golden_digest_ = 0;
  std::vector<std::uint64_t> step_budget_;
  /// Worker lease under process isolation (CampaignOptions::worker_lease
  /// or the backstop derived in profile()).
  std::chrono::milliseconds worker_lease_{0};
  std::unique_ptr<trace::ContextRegistry> contexts_;
  std::unique_ptr<profile::Profiler> profiler_;
  Enumeration enumeration_;
  std::unique_ptr<TrialJournal> journal_;
  /// Present under thread isolation unless snapshots == Off; owns the
  /// recording and the cut table.
  std::unique_ptr<SnapshotCache> snapshot_cache_;
  std::atomic<std::uint64_t> trials_run_{0};
  std::atomic<std::uint64_t> total_retries_{0};
  std::atomic<std::uint64_t> quarantined_points_{0};
  std::atomic<std::uint64_t> replayed_trials_{0};
  std::atomic<std::uint64_t> deterministic_deadlocks_{0};
  std::atomic<std::uint64_t> worker_deaths_{0};
  std::atomic<std::uint64_t> worker_lease_kills_{0};
  std::atomic<std::uint64_t> isolation_fallbacks_{0};
  std::atomic<bool> measuring_{false};
  /// Live only while a process-isolated measure is in flight; run_guarded
  /// dispatches through it instead of running the trial in-process.
  std::atomic<ProcPool*> active_pool_{nullptr};

  /// One injected execution: fresh Injector + World + ContextRegistry.
  /// Thread-safe after profile(): touches only immutable campaign state.
  /// Performs the post-trial audit: a fully torn-down world that left
  /// memory regions registered is a harness bug and throws InternalError
  /// so the guard retries it. Stray undelivered messages are a legitimate
  /// fault consequence (e.g. a corrupted root re-routes sends nobody
  /// awaits), so only the uninjected profiling and recording runs assert on
  /// them.
  inject::TrialForensics run_trial(
      const InjectionPoint& point, std::uint64_t trial,
      const std::vector<std::uint64_t>& step_budget);

  /// The world execution behind run_trial and the process-isolated trial.
  /// With a snapshot, only the post-injection suffix executes (prefix
  /// replayed from the recording); may throw mpi::ReplayError, which
  /// run_trial converts into a from-scratch fallback. `cut` goes to the
  /// injector (Injector::set_cut_hook).
  inject::TrialForensics execute_trial(
      const InjectionPoint& point, std::uint64_t trial,
      const std::vector<std::uint64_t>& step_budget,
      std::shared_ptr<const mpi::WorldSnapshot> snapshot,
      inject::Injector::CutHook cut = {});

  /// One fault-free, uninstrumented recording run, digest-checked against
  /// the profiling run. Returns nullptr on any failure — the cut table
  /// then stays empty and every trial runs from scratch.
  std::shared_ptr<const mpi::WorldRecording> build_recording();

  /// Routes one trial to the right backend: the live worker pool under
  /// process isolation (worker death → SEG_FAULT forensics, lease
  /// expiry/lane loss → InternalError for the retry guard), or the
  /// in-process run_trial otherwise — including the degraded-pool
  /// fallback, which is refused for signal models (a real signal must
  /// never fire inside the campaign process).
  inject::TrialForensics dispatch_trial(const InjectionPoint& point,
                                        std::uint64_t trial);

  /// TrialRunner: supervised execution of one trial — retries internal
  /// (non-fault) failures with exponential backoff up to
  /// max_trial_retries before reporting !ok (quarantine).
  Attempt run_guarded(const InjectionPoint& point,
                      std::uint64_t trial) override;

  /// Shared implementation of measure / measure_many at a given pool size.
  std::vector<PointResult> measure_impl(
      std::span<const InjectionPoint> points, std::uint32_t trials,
      std::size_t pool);
};

}  // namespace fastfit::core
