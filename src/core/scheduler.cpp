#include "core/scheduler.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "core/trial_executor.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

namespace {

// "No trial of this point has failed" marker for the per-point CAS-min.
constexpr std::uint32_t kNoFailure =
    std::numeric_limits<std::uint32_t>::max();

// One (point, trial) job of a batch. A replayed slot is final from the
// start; a fresh one once its job has written `attempt` and set `done`.
struct Slot {
  TrialRunner::Attempt attempt;
  bool replayed = false;  ///< outcome served from the journal
  bool done = false;      ///< attempt final, or its job threw
};

}  // namespace

ResultAccumulator::ResultAccumulator(std::span<const InjectionPoint> points)
    : results_(points.size()) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    results_[i].point = points[i];
  }
}

void ResultAccumulator::on_trial(const TrialRecord& record) {
  auto& result = results_[record.point_index];
  result.record(record.outcome);
  if (!record.autopsy.empty()) result.exec.last_autopsy = record.autopsy;
}

void ResultAccumulator::on_point(const PointStatus& status) {
  auto& exec = results_[status.point_index].exec;
  exec.retries = status.retries;
  if (status.quarantined) {
    exec.quarantined = true;
    exec.last_error = status.error;
  }
}

void JournalSink::on_trial(const TrialRecord& record) {
  // Replayed trials are already durable; re-recording is a no-op anyway
  // (the journal is idempotent), so skip the append entirely.
  if (record.replayed) return;
  const auto& fault = points_[record.point_index].fault;
  journal_->record_trial(record.key, record.trial, record.outcome,
                         record.deterministic, record.autopsy,
                         fault.is_default() ? std::string{}
                                            : fault.canonical());
}

void JournalSink::on_point(const PointStatus& status) {
  if (!status.quarantined) return;
  journal_->record_quarantine(status.key, status.retries, status.error);
}

void JournalSink::on_batch_end() { journal_->flush(); }

void TelemetrySink::on_trial(const TrialRecord& record) {
  auto& rec = tel::Recorder::instance();
  if (!rec.enabled()) return;
  // Outcome counters increment for replayed *and* fresh trials, so a
  // journal-resumed campaign reports identical totals. Registration is
  // per-slot idempotent rather than once-for-all: a default campaign
  // registers only the six base outcomes (pre-v2 metrics snapshot,
  // byte-identical) and a later extended campaign in the same process
  // fills in the remaining slots. on_trial runs on the scheduler's
  // commit thread only, so the unguarded slot check is safe.
  static std::array<tel::Counter*, inject::kNumOutcomes> counters{};
  const std::size_t active = inject::active_outcomes(extended_outcomes_);
  for (std::size_t o = 0; o < active; ++o) {
    if (counters[o]) continue;
    const std::string labels =
        "outcome=\"" +
        std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
        '"';
    counters[o] = &rec.counter(
        "fastfit_trials_total",
        "Trial outcomes recorded (incl. journal replays)", labels);
  }
  counters[static_cast<std::size_t>(record.outcome)]->add();
  if (record.replayed) {
    static auto& replays = rec.counter("fastfit_trials_replayed_total",
                                       "Trials served from the journal");
    replays.add();
  }
}

void TelemetrySink::on_point(const PointStatus& status) {
  if (!status.quarantined) return;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& quarantines =
        rec.counter("fastfit_quarantined_points_total",
                    "Points the trial guard gave up on");
    quarantines.add();
  }
}

BatchStats TrialScheduler::run(std::span<const InjectionPoint> points,
                               std::uint32_t trials,
                               const TrialJournal* replay,
                               std::span<OutcomeSink* const> sinks) {
  BatchStats stats;
  std::vector<std::string> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keys[i] = point_key(points[i]);
  }

  // One slot per (point, trial) job, in (point, trial) order. Journaled
  // outcomes are final from the start; only the gaps execute.
  std::vector<Slot> slots(points.size() * trials);
  const auto slot_of = [&slots, trials](std::size_t i, std::uint32_t t)
      -> Slot& { return slots[i * trials + t]; };
  if (replay) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::uint32_t t = 0; t < trials; ++t) {
        if (const auto o = replay->lookup(keys[i], t)) {
          Slot& slot = slot_of(i, t);
          slot.attempt.ok = true;
          slot.attempt.outcome = *o;
          slot.replayed = slot.done = true;
          ++stats.replayed;
        }
      }
    }
  }

  // Lowest failed trial ordinal per point (CAS-min), read by the jobs to
  // skip trials the serial run would never have executed. Under pool > 1
  // the first trial to fail in wall-clock time is not necessarily the
  // first in trial order, so only the minimum may gate a skip.
  std::vector<std::atomic<std::uint32_t>> first_failed(points.size());
  for (auto& f : first_failed) f.store(kNoFailure, std::memory_order_relaxed);

  // Slot::done and `aborted` are guarded by `mutex`; a job publishes its
  // slot's attempt by setting done under it.
  std::mutex mutex;
  std::condition_variable finished;
  bool aborted = false;  // a job threw; executor.wait() rethrows it

  const auto run_job = [this, &points, &keys, &first_failed, &slot_of,
                        &mutex, &finished, &aborted](std::size_t i,
                                                     std::uint32_t t,
                                                     std::int64_t submit_us) {
    Slot& slot = slot_of(i, t);
    const auto finish = [&](bool threw) {
      {
        std::lock_guard lock(mutex);
        slot.done = true;
        aborted = aborted || threw;
      }
      finished.notify_one();
    };
    try {
      // Skip only trials *beyond* a known failure: those are the ones
      // the serial run would never have executed, and the failure
      // ordinal only ever goes down, so the cursor never reads them.
      if (first_failed[i].load(std::memory_order_acquire) >= t) {
        auto& rec = tel::Recorder::instance();
        if (submit_us >= 0 && rec.enabled()) {
          const auto info = tel::Recorder::thread_info();
          tel::Event wait;
          wait.name = "queue-wait";
          wait.start_us = submit_us;
          wait.dur_us = rec.now_us() - submit_us;
          wait.track = info.track;
          wait.index = info.index;
          rec.record(std::move(wait));
        }
        tel::ScopedSpan trial_span("trial");
        trial_span.arg("point", keys[i]);
        trial_span.arg("trial", std::to_string(t));
        slot.attempt = runner_->run_guarded(points[i], t);
        if (slot.attempt.ok) {
          trial_span.arg("outcome", inject::to_string(slot.attempt.outcome));
        } else {
          auto& first = first_failed[i];
          std::uint32_t seen = first.load(std::memory_order_relaxed);
          while (t < seen && !first.compare_exchange_weak(
                                 seen, t, std::memory_order_acq_rel)) {
          }
        }
      }
    } catch (...) {
      finish(/*threw=*/true);
      throw;
    }
    finish(/*threw=*/false);
  };

  // The commit cursor: walks the slots in (point, trial) order on this
  // thread and hands each record to the sinks as soon as it and every
  // record before it are final. Per point it stops at the first failed
  // ordinal (never waiting on a fresh slot beyond it: that is wasted
  // work the serial run never did), still emits journal-replayed trials
  // beyond it, sums the retries of the executed trials up to and
  // including it, and ends with the point's PointStatus. With `block` it
  // waits for each slot; without, it returns at the first unfinished one.
  std::size_t point = 0;
  std::uint32_t trial = 0;
  std::uint32_t failed_at = kNoFailure;  // the cursor point's failure
  std::uint32_t retries = 0;
  const std::string no_error;
  const auto advance = [&](bool block) {
    while (point < points.size()) {
      if (trial == trials) {
        const bool quarantined = failed_at != kNoFailure;
        PointStatus status{keys[point], point, retries, quarantined,
                           quarantined ? slot_of(point, failed_at).attempt.error
                                       : no_error};
        if (quarantined) ++stats.quarantined_points;
        for (auto* sink : sinks) sink->on_point(status);
        ++point;
        trial = 0;
        failed_at = kNoFailure;
        retries = 0;
        continue;
      }
      const Slot& slot = slot_of(point, trial);
      if (!slot.replayed) {
        if (failed_at != kNoFailure) {  // beyond the failure: never emitted
          ++trial;
          continue;
        }
        std::unique_lock lock(mutex);
        if (block) finished.wait(lock, [&] { return slot.done || aborted; });
        if (aborted || !slot.done) return;
      }
      const auto& attempt = slot.attempt;
      if (!slot.replayed) retries += attempt.retries;
      if (!attempt.ok) {
        failed_at = trial;
      } else {
        const bool deterministic =
            !slot.replayed && attempt.deterministic_hang &&
            attempt.outcome == inject::Outcome::InfLoop;
        if (deterministic) ++stats.deterministic_deadlocks;
        TrialRecord record{keys[point],     point,         trial,
                           attempt.outcome, slot.replayed, deterministic,
                           attempt.autopsy};
        for (auto* sink : sinks) sink->on_trial(record);
      }
      ++trial;
    }
  };

  {
    TrialExecutor executor(config_.pool);
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::uint32_t t = 0; t < trials; ++t) {
        if (slot_of(i, t).replayed) continue;
        // Submission timestamp: the gap to execution start is the queue
        // wait, rendered as its own span on the executing worker's lane.
        auto& rec = tel::Recorder::instance();
        const std::int64_t submit_us = rec.enabled() ? rec.now_us() : -1;
        executor.submit(
            [&run_job, submit_us, i, t] { run_job(i, t, submit_us); });
        advance(/*block=*/false);  // the serial path commits as it goes
      }
    }
    advance(/*block=*/true);
    executor.wait();
  }
  for (auto* sink : sinks) sink->on_batch_end();
  return stats;
}

}  // namespace fastfit::core
