#include "core/campaign.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "core/pipeline.hpp"
#include "core/trial_executor.hpp"
#include "inject/injector.hpp"
#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

using namespace std::chrono_literals;

namespace tel = fastfit::telemetry;

namespace {

std::string algorithms_id(const mpi::CollectiveAlgorithms& algorithms) {
  return std::to_string(static_cast<int>(algorithms.allreduce)) + '/' +
         std::to_string(static_cast<int>(algorithms.bcast));
}

/// Where a trial attempt ran, for error attribution and trace spans.
std::string execution_site() {
  const int worker = TrialExecutor::current_worker();
  return worker >= 0 ? "executor thread " + std::to_string(worker)
                     : "main thread";
}

/// Crosses the structurally-pruned point set with the campaign's fault
/// models (spec-major, so shard partitions stay contiguous per model).
/// The default single-spec configuration returns the input untouched —
/// the pre-v2 point set, byte for byte. Manifestations that ignore the
/// parameter axis (message faults, rank death) keep one point per
/// (site, rank, invocation) instead of one per parameter: the parameter
/// only says *which argument* to mutate, which those models never do.
std::vector<InjectionPoint> cross_with_fault_models(
    std::vector<InjectionPoint> points,
    const std::vector<inject::FaultModelSpec>& specs) {
  if (specs.size() == 1 && specs.front().is_default()) return points;
  std::vector<InjectionPoint> crossed;
  for (const auto& spec : specs) {
    if (inject::is_parameter_model(spec.model)) {
      for (const auto& point : points) {
        crossed.push_back(point);
        crossed.back().fault = spec;
      }
      continue;
    }
    std::set<std::tuple<std::uint32_t, int, std::uint64_t>> seen;
    for (const auto& point : points) {
      if (!seen.insert({point.site_id, point.rank, point.invocation}).second) {
        continue;
      }
      crossed.push_back(point);
      crossed.back().fault = spec;
    }
  }
  return crossed;
}

}  // namespace

Campaign::Campaign(const apps::Workload& workload, CampaignOptions options)
    : workload_(&workload), options_(options) {
  if (options_.nranks < 1) throw ConfigError("Campaign: nranks must be >= 1");
  if (options_.trials_per_point == 0) {
    throw ConfigError("Campaign: trials_per_point must be positive");
  }
  if (options_.fault_models.empty()) {
    throw ConfigError("Campaign: fault_models must be non-empty");
  }
  for (std::size_t i = 0; i < options_.fault_models.size(); ++i) {
    for (std::size_t j = i + 1; j < options_.fault_models.size(); ++j) {
      if (options_.fault_models[i] == options_.fault_models[j]) {
        throw ConfigError("Campaign: duplicate fault model '" +
                          options_.fault_models[i].canonical() + "'");
      }
    }
  }
  // Real-signal manifestations kill the entire trial process; without
  // the fork-server backend that process is the campaign itself.
  for (const auto& spec : options_.fault_models) {
    if (inject::is_signal_model(spec.model) &&
        options_.isolation != IsolationMode::Process) {
      throw ConfigError("Campaign: fault model '" + spec.canonical() +
                        "' raises a genuine signal and requires "
                        "--isolation process");
    }
  }
  // Validate the structural pruning chain up front: unknown names and
  // measurer-needing passes ("ml") should fail at construction, not at
  // profile() time deep into a study.
  for (const auto& name : options_.pruning_passes) {
    if (make_pruning_pass(name)->needs_measurer()) {
      throw ConfigError("Campaign: pruning pass '" + name +
                        "' needs a measurer; select the ML stage through "
                        "the study driver, not CampaignOptions");
    }
  }
  if (options_.shard.count < 1 || options_.shard.index < 1 ||
      options_.shard.index > options_.shard.count) {
    throw ConfigError("Campaign: shard must satisfy 1 <= index <= count");
  }
  // One prefix-skipping mechanism per isolation mode: thread-isolated
  // trials replay a recorded prefix, process-isolated ones fork at the cut
  // (a process with threads cannot fork, so replay stays in-process).
  if (options_.snapshots != SnapshotMode::Off &&
      options_.isolation == IsolationMode::Thread) {
    snapshot_cache_ =
        std::make_unique<SnapshotCache>([this] { return build_recording(); });
  }
}

void Campaign::profile() {
  if (profiled_) throw InternalError("Campaign::profile: already profiled");

  // Profiling run (paper Fig 5 phase 1): the campaign's one fault-free
  // execution. Same problem as the injection runs, so the features
  // transfer; it also yields the golden digest and the per-rank step
  // counts behind the trial step budgets. The profiler only observes, so
  // the run matches an uninstrumented one; the uninstrumented recording
  // run must reproduce this digest before any prefix is replayed.
  contexts_ = std::make_unique<trace::ContextRegistry>(options_.nranks);
  profiler_ = std::make_unique<profile::Profiler>(*contexts_);
  mpi::WorldOptions profile_opts;
  profile_opts.nranks = options_.nranks;
  profile_opts.seed = options_.seed;
  profile_opts.algorithms = options_.algorithms;
  tel::ScopedSpan profiling_span("profiling-run");
  const auto t0 = std::chrono::steady_clock::now();
  const auto profiled =
      apps::run_job(*workload_, profile_opts, profiler_.get(), *contexts_);
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  profiling_span.finish();
  // The worker lease only backstops a wedged or compute-spinning worker
  // process, so it is generous: 48 fault-free wall times plus 10 s, and
  // never under a minute. A clock read here decides no outcome.
  worker_lease_ = options_.worker_lease.value_or(
      std::max<std::chrono::milliseconds>(60'000ms, wall * 48 + 10'000ms));
  if (!profiled.world.clean()) {
    throw InternalError("Campaign: profiling run failed: " +
                        profiled.world.event->message);
  }
  // Uninjected runs get the strict leak audit: with no fault to explain
  // them, a still-registered region or a queued message is a harness bug,
  // full stop.
  if (profiled.world.leaked_regions > 0 ||
      profiled.world.undelivered_messages > 0) {
    throw InternalError(
        "Campaign: profiling run leaked (" +
        std::to_string(profiled.world.leaked_regions) + " region(s), " +
        std::to_string(profiled.world.undelivered_messages) +
        " undelivered message(s))");
  }
  golden_digest_ = profiled.digest;
  step_budget_.clear();
  for (const std::uint64_t steps : profiled.world.steps) {
    step_budget_.push_back(steps * kStepBudgetMultiplier);
  }

  {
    tel::ScopedSpan span("enumerate-points");
    enumeration_ = enumerate_with_passes(*profiler_, options_.pruning_passes);
    enumeration_.points = cross_with_fault_models(
        std::move(enumeration_.points), options_.fault_models);
    // A non-identity cross changes the measured point set: after_context
    // is what sharding partitions and merge validates coverage against,
    // so it must track the crossed size (monotonicity of the earlier
    // stages is preserved by maxing them up). The default single-spec
    // cross is the identity and leaves every stat byte-identical.
    auto& stats = enumeration_.stats;
    stats.after_context = enumeration_.points.size();
    stats.after_semantic = std::max(stats.after_semantic, stats.after_context);
    stats.total_points = std::max(stats.total_points, stats.after_semantic);
  }
  profiled_ = true;
}

const Enumeration& Campaign::enumeration() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return enumeration_;
}

const profile::Profiler& Campaign::profiler() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return *profiler_;
}

std::uint64_t Campaign::golden_digest() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return golden_digest_;
}

const std::vector<std::uint64_t>& Campaign::step_budget() const {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  return step_budget_;
}

void Campaign::attach_journal(const std::string& path, JournalMode mode) {
  if (!profiled_) {
    throw InternalError("Campaign::attach_journal: profile() not run");
  }
  if (measuring()) {
    throw InternalError("Campaign::attach_journal: a measure is running");
  }
  JournalHeader header;
  header.workload = workload_->name();
  header.seed = options_.seed;
  header.nranks = options_.nranks;
  header.trials_per_point = options_.trials_per_point;
  header.fault_model = inject::canonical_fault_models(options_.fault_models);
  header.algorithms = algorithms_id(options_.algorithms);
  header.golden_digest = golden_digest_;
  header.shard_index = options_.shard.index;
  header.shard_count = options_.shard.count;
  journal_ = mode == JournalMode::Resume ? TrialJournal::resume(path, header)
                                         : TrialJournal::create(path, header);
}

void Campaign::detach_journal() {
  if (!journal_) return;
  journal_->flush();
  journal_.reset();
}

void Campaign::set_max_parallel_trials(std::size_t max_parallel) {
  if (measuring()) {
    throw InternalError(
        "Campaign::set_max_parallel_trials: a measure is running");
  }
  options_.max_parallel_trials = max_parallel;
}

SnapshotCache::Stats Campaign::snapshot_stats() const {
  return snapshot_cache_ ? snapshot_cache_->stats() : SnapshotCache::Stats{};
}

CampaignHealth Campaign::health() const noexcept {
  CampaignHealth h;
  h.total_retries = total_retries_.load(std::memory_order_relaxed);
  h.quarantined_points = quarantined_points_.load(std::memory_order_relaxed);
  h.replayed_trials = replayed_trials_.load(std::memory_order_relaxed);
  h.deterministic_deadlocks =
      deterministic_deadlocks_.load(std::memory_order_relaxed);
  h.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  h.worker_lease_kills =
      worker_lease_kills_.load(std::memory_order_relaxed);
  h.isolation_fallbacks =
      isolation_fallbacks_.load(std::memory_order_relaxed);
  return h;
}

std::shared_ptr<const mpi::WorldRecording> Campaign::build_recording() {
  tel::ScopedSpan span("snapshot-build");
  try {
    auto recorder = std::make_shared<mpi::PrefixRecorder>(options_.nranks);
    mpi::WorldOptions opts;
    opts.nranks = options_.nranks;
    opts.seed = options_.seed;
    opts.algorithms = options_.algorithms;
    opts.recorder = recorder;
    trace::ContextRegistry contexts(options_.nranks,
                                    /*record_call_graph=*/false);
    const auto job = apps::run_job(*workload_, opts, nullptr, contexts);
    if (!job.world.clean() || job.world.leaked_regions > 0 ||
        job.world.undelivered_messages > 0) {
      return nullptr;
    }
    if (job.digest != golden_digest_) {
      // The recording must be *the* golden execution, byte for byte —
      // replaying anything else would corrupt every trial built on it.
      // Matching the instrumented profiling run's digest also proves that
      // instrumentation does not change the execution.
      return nullptr;
    }
    auto recording = recorder->finish();
    span.arg("ops", std::to_string(recording->total_ops));
    span.arg("payload_bytes", std::to_string(recording->payload_bytes));
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& builds = rec.counter(
          "fastfit_snapshot_recordings_total",
          "Fault-free recording runs performed for prefix replay");
      builds.add();
    }
    return recording;
  } catch (...) {
    return nullptr;
  }
}

inject::TrialForensics Campaign::run_trial(
    const InjectionPoint& point, std::uint64_t trial,
    const std::vector<std::uint64_t>& step_budget) {
  // Snapshot fast path only for replayable specs: a fault that perturbs
  // prefix-visible state (message delay/drop, probabilistic or windowed
  // triggers that may fire inside the prefix) must execute from scratch —
  // the recorded fault-free prefix would silently mask the perturbation.
  if (inject::is_replayable(point.fault) && snapshot_cache_) {
    if (auto snapshot =
            snapshot_cache_->find(point.site_id, point.invocation)) {
      try {
        return execute_trial(point, trial, step_budget, std::move(snapshot));
      } catch (const mpi::ReplayError&) {
        // Divergence is a harness condition, never a trial outcome: count
        // it and rerun this trial from scratch below.
        snapshot_cache_->note_fallback();
      }
    }
  }
  return execute_trial(point, trial, step_budget, nullptr);
}

inject::TrialForensics Campaign::execute_trial(
    const InjectionPoint& point, std::uint64_t trial,
    const std::vector<std::uint64_t>& step_budget,
    std::shared_ptr<const mpi::WorldSnapshot> snapshot,
    inject::Injector::CutHook cut) {
  inject::FaultSpec spec;
  spec.site_id = point.site_id;
  spec.rank = point.rank;
  spec.invocation = point.invocation;
  spec.param = point.param;
  spec.trial = trial;
  spec.fault = point.fault;

  inject::Injector injector(spec, options_.seed);
  injector.set_cut_hook(std::move(cut));
  mpi::WorldOptions opts;
  opts.nranks = options_.nranks;
  opts.seed = options_.seed;
  opts.step_budget = step_budget;
  opts.algorithms = options_.algorithms;
  opts.repair = options_.repair;
  opts.replay = snapshot;
  trace::ContextRegistry contexts(options_.nranks, /*record_call_graph=*/false);
  auto& rec = tel::Recorder::instance();
  if (snapshot && rec.enabled()) {
    static auto& clones = rec.counter(
        "fastfit_snapshot_clones_total",
        "Trials that executed only the post-injection suffix via replay");
    clones.add();
  }
  tel::ScopedSpan world_span("world-run");
  const auto t0 = std::chrono::steady_clock::now();
  const auto job = apps::run_job(*workload_, opts, &injector, contexts);
  world_span.finish();
  if (rec.enabled()) {
    static auto& executed = rec.counter(
        "fastfit_trials_executed_total",
        "Injected world executions (fresh runs; excludes journal replays)");
    executed.add();
    static auto& latency = rec.latency(
        "fastfit_trial_seconds", "Wall time of one injected world execution");
    latency.observe_us(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  trials_run_.fetch_add(1, std::memory_order_relaxed);

  // Post-trial audit. With every rank unwound, all RegisteredBuffer
  // destructors have run; a region still registered is a harness bug, not
  // a fault consequence. Throw so the guard retries (and eventually
  // quarantines the point) rather than keep a result from a corrupted
  // registry.
  if (job.world.leaked_regions > 0) {
    throw InternalError("post-trial audit: " +
                        std::to_string(job.world.leaked_regions) +
                        " memory region(s) still registered after teardown");
  }
  // Undelivered transport messages are deliberately NOT audited here: an
  // injected run can legitimately succeed with strays queued (a corrupted
  // root re-routes sends nobody awaits while the digest never sees the
  // difference). The uninjected profiling run asserts zero.
  tel::ScopedSpan classify_span("classify");
  return inject::classify_with_forensics(job.world, job.digest,
                                         golden_digest_);
}

inject::TrialForensics Campaign::dispatch_trial(const InjectionPoint& point,
                                                std::uint64_t trial) {
  ProcPool* pool = active_pool_.load(std::memory_order_acquire);
  if (pool != nullptr && !pool->degraded()) {
    procpool::WorkItem item;
    item.site_id = point.site_id;
    item.rank = point.rank;
    item.invocation = point.invocation;
    item.param = static_cast<std::uint8_t>(point.param);
    item.fault = point.fault;
    item.trial = trial;
    item.step_budget = step_budget_;
    const auto result = pool->run(item, worker_lease_);
    switch (result.kind) {
      case ProcPool::Result::Kind::Completed: {
        if (!result.reply.ok) {
          // A contained worker-side failure re-enters the guard exactly
          // like an in-process internal error would.
          throw InternalError("worker: " + result.reply.error);
        }
        trials_run_.fetch_add(1, std::memory_order_relaxed);
        inject::TrialForensics forensics;
        forensics.outcome = result.reply.outcome;
        forensics.deterministic_hang = result.reply.deterministic_hang;
        forensics.autopsy = result.reply.autopsy;
        return forensics;
      }
      case ProcPool::Result::Kind::SignalDeath: {
        trials_run_.fetch_add(1, std::memory_order_relaxed);
        worker_deaths_.fetch_add(1, std::memory_order_relaxed);
        inject::TrialForensics forensics;
        forensics.outcome = inject::Outcome::SegFault;
        forensics.autopsy =
            describe_worker_death(result.signal, result.user_us,
                                  result.sys_us, result.maxrss_kb);
        return forensics;
      }
      case ProcPool::Result::Kind::LeaseExpired:
        worker_lease_kills_.fetch_add(1, std::memory_order_relaxed);
        throw InternalError(result.error);
      case ProcPool::Result::Kind::LaneFailure:
        throw InternalError(result.error);
    }
    throw InternalError("dispatch_trial: unknown worker result");
  }
  if (inject::is_signal_model(point.fault.model)) {
    // Never raise a real signal inside the campaign process: with the
    // pool gone this trial cannot run, so it takes the retry → quarantine
    // ladder instead of the in-process fallback.
    throw InternalError(
        "fault model '" + point.fault.canonical() +
        "' needs a live worker pool (process isolation degraded)");
  }
  if (pool != nullptr) {
    // Degraded pool, non-signal model: graceful in-process fallback,
    // recorded in CampaignHealth (results are identical either way).
    isolation_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return run_trial(point, trial, step_budget_);
}

TrialRunner::Attempt Campaign::run_guarded(const InjectionPoint& point,
                                           std::uint64_t trial) {
  Attempt attempt;
  for (std::uint32_t tries = 0;; ++tries) {
    // Attribution prefix for the error: which attempt failed, on which
    // executor worker (quarantine messages must be traceable to a lane).
    const std::string site = "attempt " + std::to_string(tries + 1) + " on " +
                             execution_site() + ": ";
    try {
      const auto forensics = dispatch_trial(point, trial);
      attempt.outcome = forensics.outcome;
      attempt.deterministic_hang = forensics.deterministic_hang;
      attempt.autopsy = forensics.autopsy;
      attempt.ok = true;
      return attempt;
    } catch (const std::exception& e) {
      attempt.error = site + e.what();
    } catch (...) {
      attempt.error = site + "unknown internal error";
    }
    if (tries >= options_.max_trial_retries) {
      attempt.ok = false;
      return attempt;
    }
    ++attempt.retries;
    total_retries_.fetch_add(1, std::memory_order_relaxed);
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& retries = rec.counter("fastfit_trial_retries_total",
                                         "Guarded-trial internal retries");
      retries.add();
    }
    // Exponential backoff: transient failures (OOM pressure, fd
    // exhaustion) need breathing room, not an immediate identical retry.
    const auto backoff = std::min<std::chrono::milliseconds>(
        250ms, std::chrono::milliseconds(5) * (1u << std::min(tries, 6u)));
    std::this_thread::sleep_for(backoff);
  }
}

std::size_t Campaign::parallel_trials() const noexcept {
  return resolve_parallel_trials(options_.max_parallel_trials);
}

std::vector<PointResult> Campaign::measure_impl(
    std::span<const InjectionPoint> points, std::uint32_t trials,
    std::size_t pool) {
  if (!profiled_) throw InternalError("Campaign: profile() not run");
  // The cut table below is written without a lock, so measures on one
  // campaign must not overlap.
  if (measuring_.exchange(true, std::memory_order_acq_rel)) {
    throw InternalError("Campaign: a measure is already running");
  }
  struct MeasuringGuard {
    std::atomic<bool>& flag;
    ~MeasuringGuard() { flag.store(false, std::memory_order_release); }
  } measuring_guard{measuring_};

  tel::ScopedSpan batch_span("measure-batch");
  batch_span.arg("points", std::to_string(points.size()));
  batch_span.arg("trials", std::to_string(trials));
  batch_span.arg("pool", std::to_string(pool));
  batch_span.arg("isolation", to_string(options_.isolation));

  // Complete the cut table before any trial starts: trials read it without
  // a lock. The recording is built on the first batch that has a
  // replayable point. Process isolation has no table: it forks at the cut.
  if (snapshot_cache_) {
    for (const auto& point : points) {
      if (inject::is_replayable(point.fault)) {
        snapshot_cache_->add_cut(point.site_id, point.invocation);
      }
    }
  }

  // Process isolation: fork the lane servers now, from the quietest
  // moment this measure has — before the trial pool spawns threads.
  std::unique_ptr<ProcPool> proc_pool;
  if (options_.isolation == IsolationMode::Process) {
    ProcPool::Options pool_options;
    pool_options.lanes = std::max<std::size_t>(1, pool);
    pool_options.respawn_budget = pool_options.lanes * 2 + 2;
    // Forked servers may have inherited a recorder mutex mid-lock from
    // some other supervisor thread; worker-side telemetry is lost either
    // way (parent-side sinks carry the counters that matter), so turn
    // the recorder off outright in the worker tree.
    pool_options.child_init = [] { tel::Recorder::instance().disable(); };
    proc_pool = std::make_unique<ProcPool>(
        pool_options, [this](const procpool::WorkItem& item) {
          // Runs inside the trial process. Never throws: a contained
          // failure travels back as TrialReply::error and re-enters the
          // supervisor-side retry guard. Unless snapshots are off, the
          // process forks at the cut, so trials of one point share the
          // fault-free prefix run up to the injection.
          procpool::TrialReply reply;
          try {
            InjectionPoint point;
            point.site_id = item.site_id;
            point.rank = item.rank;
            point.invocation = item.invocation;
            point.param = static_cast<mpi::Param>(item.param);
            point.fault = item.fault;
            const auto forensics = execute_trial(
                point, item.trial, item.step_budget, nullptr,
                options_.snapshots == SnapshotMode::Off
                    ? inject::Injector::CutHook{}
                    : procpool::hold_at_cut);
            reply.ok = true;
            reply.outcome = forensics.outcome;
            reply.deterministic_hang = forensics.deterministic_hang;
            reply.autopsy = forensics.autopsy;
          } catch (const std::exception& e) {
            reply.ok = false;
            reply.error = e.what();
          } catch (...) {
            reply.ok = false;
            reply.error = "unknown worker error";
          }
          return reply;
        });
    active_pool_.store(proc_pool.get(), std::memory_order_release);
  }
  struct PoolGuard {
    std::atomic<ProcPool*>& slot;
    ~PoolGuard() { slot.store(nullptr, std::memory_order_release); }
  } pool_guard{active_pool_};

  // The scheduler owns the (point, trial) slot table — replay, concurrent
  // execution, ordered commit. Campaign contributes the engine
  // (TrialRunner) and the observers: the report accumulator, the metrics
  // sink, and (when attached) the journal write-through.
  SchedulerConfig scheduler_config;
  scheduler_config.pool = pool;
  TrialScheduler scheduler(*this, scheduler_config);

  ResultAccumulator accumulator(points);
  TelemetrySink telemetry_sink(options_.extended_outcomes());
  std::optional<JournalSink> journal_sink;
  std::vector<OutcomeSink*> sinks{&accumulator, &telemetry_sink};
  if (journal_) {
    journal_sink.emplace(*journal_, points);
    sinks.push_back(&*journal_sink);
  }
  const auto batch = scheduler.run(points, trials, journal_.get(), sinks);

  // Fold the batch's resilience activity into the campaign-wide health
  // counters.
  replayed_trials_.fetch_add(batch.replayed, std::memory_order_relaxed);
  deterministic_deadlocks_.fetch_add(batch.deterministic_deadlocks,
                                     std::memory_order_relaxed);
  quarantined_points_.fetch_add(batch.quarantined_points,
                                std::memory_order_relaxed);

  return accumulator.take();
}

PointResult Campaign::measure(const InjectionPoint& point,
                              std::uint32_t trials) {
  const InjectionPoint points[1] = {point};
  auto results = measure_impl(
      std::span<const InjectionPoint>(points, 1), trials, /*pool=*/1);
  return std::move(results.front());
}

PointResult Campaign::measure(const InjectionPoint& point) {
  return measure(point, options_.trials_per_point);
}

std::vector<PointResult> Campaign::measure_many(
    std::span<const InjectionPoint> points, std::uint32_t trials) {
  return measure_impl(points, trials, parallel_trials());
}

std::vector<PointResult> Campaign::measure_many(
    std::span<const InjectionPoint> points) {
  return measure_many(points, options_.trials_per_point);
}

}  // namespace fastfit::core
