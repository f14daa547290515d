#pragma once

// TrialScheduler: the ordering/batching stage of the study pipeline.
//
// The scheduler owns one batch's table of (point, trial) slots: journal
// replay, concurrent guarded execution on a TrialExecutor pool, and an
// ordered commit. It is engine-agnostic — trials execute through the
// narrow TrialRunner interface (implemented by Campaign, which
// routes each run_guarded call either to an in-process world or to
// the fork-server worker pool, per the --isolation knob; the scheduler
// never knows which backend ran a trial) — and
// result-agnostic: every recorded outcome fans out to OutcomeSink
// observers (report accumulator, telemetry counters, journal
// write-through), so the scheduler itself never knows what a report is.
//
// Execution order is free (per-trial RNG identity is order-independent);
// observation order is not. A commit cursor on the scheduling thread
// walks the slots in (point, trial) order and hands each record to the
// sinks as soon as it and every record before it are final, so the
// stream is bit-identical to a serial run at every pool size, and the
// journal and counters grow while the batch runs.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/points.hpp"
#include "inject/outcome.hpp"

namespace fastfit::core {

/// Execution engine behind the scheduler: runs one supervised trial.
/// Implemented by Campaign (fresh Injector + World per call).
class TrialRunner {
 public:
  /// Result of one supervised trial: outcome plus guard forensics.
  struct Attempt {
    bool ok = false;  ///< false = retries exhausted, quarantine the point
    inject::Outcome outcome{};
    bool deterministic_hang = false;  ///< structurally proven deadlock
    std::string autopsy;              ///< world autopsy (non-SUCCESS runs)
    std::uint32_t retries = 0;        ///< internal-error retries consumed
    std::string error;                ///< last internal error, attributed
  };

  virtual ~TrialRunner() = default;

  /// One guarded trial of `point`. Deterministic in (engine seed, point,
  /// trial); must be safe to call concurrently.
  virtual Attempt run_guarded(const InjectionPoint& point,
                              std::uint64_t trial) = 0;
};

/// One recorded (point, trial) outcome, committed in deterministic
/// (point, trial) order. References stay valid only for the duration of
/// the callback.
struct TrialRecord {
  const std::string& key;   ///< stable point identity (point_key)
  std::size_t point_index;  ///< index into the batch's point span
  std::uint32_t trial;
  inject::Outcome outcome{};
  bool replayed = false;       ///< served from the journal, not executed
  bool deterministic = false;  ///< INF_LOOP proven structurally
  const std::string& autopsy;  ///< world autopsy ("" if none)
};

/// Per-point supervision summary, observed right after the point's last
/// TrialRecord.
struct PointStatus {
  const std::string& key;
  std::size_t point_index;
  std::uint32_t retries = 0;
  bool quarantined = false;
  const std::string& error;  ///< last internal error ("" if none)
};

/// Observer of a batch's outcomes. Implementations: ResultAccumulator
/// (report), the campaign's telemetry sink, and the journal write-through
/// sink. Callbacks arrive on the scheduling thread while the batch runs,
/// each as soon as its record and every record before it are final, in
/// deterministic order: all trials of point 0, point 0's status, all
/// trials of point 1, ... then one on_batch_end once every job is done.
/// A batch whose runner throws stops committing at the first unfinished
/// slot and rethrows; it calls no on_batch_end.
class OutcomeSink {
 public:
  virtual ~OutcomeSink() = default;
  virtual void on_trial(const TrialRecord& record) = 0;
  virtual void on_point(const PointStatus& status) = 0;
  virtual void on_batch_end() {}
};

/// Builds the per-point response statistics (the report's raw material)
/// from the record stream.
class ResultAccumulator final : public OutcomeSink {
 public:
  explicit ResultAccumulator(std::span<const InjectionPoint> points);
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;
  /// The accumulated results, in point order. Call once, after the batch.
  std::vector<PointResult> take() { return std::move(results_); }

 private:
  std::vector<PointResult> results_;
};

/// Journal write-through: appends fresh trials and quarantine records,
/// flushes at batch end. Replayed trials are skipped — they are already
/// durable.
class JournalSink final : public OutcomeSink {
 public:
  /// `points` is the batch's point span (outlives the sink): the sink
  /// resolves record.point_index to the point's fault-model spec so
  /// every appended trial names what was injected ("m" field; omitted
  /// for the default spec to keep pre-v2 journals byte-identical).
  JournalSink(TrialJournal& journal, std::span<const InjectionPoint> points)
      : journal_(&journal), points_(points) {}
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;
  void on_batch_end() override;

 private:
  TrialJournal* journal_;
  std::span<const InjectionPoint> points_;
};

/// Campaign metrics: per-outcome trial counters (replays included, so a
/// resumed campaign reports identical totals), replay and quarantine
/// counters. No-op while the telemetry recorder is disabled.
class TelemetrySink final : public OutcomeSink {
 public:
  /// `extended_outcomes` widens the registered counter set with
  /// RANK_DEAD / REPAIRED (CampaignOptions::extended_outcomes); default
  /// campaigns register only the paper's six, so their metrics snapshot
  /// stays byte-identical to pre-v2 output.
  explicit TelemetrySink(bool extended_outcomes = false)
      : extended_outcomes_(extended_outcomes) {}
  void on_trial(const TrialRecord& record) override;
  void on_point(const PointStatus& status) override;

 private:
  bool extended_outcomes_;
};

/// What the scheduler's resilience machinery did during one batch; the
/// engine folds this into its campaign-wide health counters.
struct BatchStats {
  std::uint64_t replayed = 0;                ///< trials served from journal
  std::uint64_t deterministic_deadlocks = 0; ///< structurally proven INF_LOOPs
  std::uint64_t quarantined_points = 0;      ///< points given up on
};

struct SchedulerConfig {
  std::size_t pool = 1;  ///< concurrent (point, trial) jobs
};

class TrialScheduler {
 public:
  TrialScheduler(TrialRunner& runner, SchedulerConfig config)
      : runner_(&runner), config_(config) {}

  /// Runs `trials` per point, replaying from `replay` (may be null) and
  /// committing every outcome to `sinks` in deterministic order as soon
  /// as it is final.
  BatchStats run(std::span<const InjectionPoint> points,
                 std::uint32_t trials, const TrialJournal* replay,
                 std::span<OutcomeSink* const> sinks);

 private:
  TrialRunner* runner_;
  SchedulerConfig config_;
};

}  // namespace fastfit::core
