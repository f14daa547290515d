// Campaign trial throughput: serial loop vs the TrialExecutor at several
// pool sizes. The whole evaluation suite (bench binaries, the ML loop,
// traditional mode) sits on Campaign::measure_many, so trials/sec here is
// the multiplier on everything downstream. Emits
// BENCH_campaign_throughput.json so later changes can track the perf
// trajectory.
//
// Scale knobs (see bench_common.hpp): FASTFIT_BENCH_RANKS defaults to 4
// here — small worlds, where per-trial overhead outside the application
// (executor, journal, telemetry) is most visible.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "apps/lu.hpp"
#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "trace/rank_context.hpp"
#include "core/export.hpp"
#include "core/trial_executor.hpp"
#include "inject/outcome.hpp"
#include "telemetry/recorder.hpp"

namespace {

using fastfit::core::InjectionPoint;
using fastfit::core::PointResult;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

long peak_rss_kb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main() {
  using namespace fastfit;

  // Small-world default (overridable): per-trial overhead dominates.
  ::setenv("FASTFIT_BENCH_RANKS", "4", /*overwrite=*/0);
  const int ranks = bench::bench_ranks();
  const std::uint32_t trials = bench::bench_trials();
  const auto max_points =
      static_cast<std::size_t>(bench::env_u64("FASTFIT_BENCH_POINTS", 10));

  bench::banner("micro_campaign_throughput",
                "(no figure) trials/sec of the campaign loop, serial vs "
                "parallel TrialExecutor",
                "workload EP; identical PointResults at every pool size");

  core::CampaignOptions options;
  options.nranks = ranks;
  options.trials_per_point = trials;
  options.seed = bench::bench_seed();
  // The executor/journal/shard/hang sections measure *those* subsystems;
  // prefix replay would fold its own speedup into every number, so it is
  // pinned off here and gets its own off/auto section below.
  options.snapshots = core::SnapshotMode::Off;
  const auto workload = apps::make_workload("EP");
  const auto driver = bench::profiled_driver(*workload, options);
  auto& campaign = driver->campaign();

  auto points = campaign.enumeration().points;
  if (points.size() > max_points) points.resize(max_points);
  const auto total_trials =
      static_cast<double>(points.size()) * static_cast<double>(trials);

  // Warm-up (untimed): one full pass so first-touch costs — page faults,
  // allocator growth — land here
  // instead of on the serial baseline, which every later section is
  // compared against.
  for (const auto& point : points) (void)campaign.measure(point);

  // Baseline: the plain serial measure() loop.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PointResult> serial;
  for (const auto& point : points) serial.push_back(campaign.measure(point));
  const double serial_sec = seconds_since(t0);
  const double serial_tps = total_trials / serial_sec;
  std::printf("%-28s %8.1f trials/sec  (%.2fs, %zu points x %u trials)\n",
              "serial measure()", serial_tps, serial_sec, points.size(),
              trials);
  // A trial runs all its rank fibers on one lane thread, so the
  // achievable speedup is ~min(pool, cores); on a single-core host the
  // honest parallel path can only break even (no outcome reads a clock,
  // so contention slows trials without changing them).

  // Telemetry overhead: the identical serial batch with the recorder
  // live — trial/world/classify spans, outcome counters, the latency
  // histogram, and per-rank span buffers all active. The contract in
  // docs/observability.md is < 2% throughput cost when enabled (and
  // zero when disabled, asserted by the tests, so the baseline above
  // already is the "off" number).
  bool identical = true;
  auto& recorder = telemetry::Recorder::instance();
  const bool telemetry_was_on = recorder.enabled();
  recorder.enable();
  recorder.reset();
  telemetry::Recorder::bind_thread(telemetry::Track::Main, -1, "bench-main");
  const auto t_tel = std::chrono::steady_clock::now();
  std::vector<PointResult> telemetered;
  for (const auto& point : points) {
    telemetered.push_back(campaign.measure(point));
  }
  const double telemetry_sec = seconds_since(t_tel);
  const double telemetry_tps = total_trials / telemetry_sec;
  const std::size_t events_recorded = recorder.drain_events().size();
  const std::uint64_t events_dropped = recorder.dropped_events();
  recorder.reset();
  if (!telemetry_was_on) recorder.disable();
  const double telemetry_overhead =
      (serial_tps - telemetry_tps) / serial_tps;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (telemetered[i].counts != serial[i].counts) {
      identical = false;
      std::printf("  telemetry mismatch at point %zu\n", i);
    }
  }
  std::printf("%-28s %8.1f trials/sec  (%.2fs, %.1f%% overhead, "
              "%zu events)\n",
              "serial + telemetry", telemetry_tps, telemetry_sec,
              100.0 * telemetry_overhead, events_recorded);

  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> pools{1, 2, 4};
  if (hw > 4) pools.push_back(hw);

  std::ostringstream json;
  json << "{\n  \"bench\": \"campaign_throughput\",\n"
       << "  \"workload\": \"EP\",\n"
       << "  \"ranks\": " << ranks << ",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"trials_per_point\": " << trials << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"serial_trials_per_sec\": " << serial_tps << ",\n"
       << "  \"parallel\": [";

  for (std::size_t p = 0; p < pools.size(); ++p) {
    campaign.set_max_parallel_trials(pools[p]);
    const auto before = campaign.trials_run();
    const auto t1 = std::chrono::steady_clock::now();
    const auto results = campaign.measure_many(points);
    const double sec = seconds_since(t1);
    const double tps = total_trials / sec;
    // Executions beyond the job count are wasted work: trials past a
    // point's first internal failure that ran anyway under the pool (0
    // on a healthy campaign).
    const auto extra_runs =
        campaign.trials_run() - before - static_cast<std::uint64_t>(total_trials);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].counts != serial[i].counts) {
        identical = false;
        std::printf("  mismatch at point %zu (%s %s): serial", i,
                    mpi::to_string(results[i].point.kind),
                    mpi::to_string(results[i].point.param));
        for (auto c : serial[i].counts) std::printf(" %u", c);
        std::printf("  pool=%zu", pools[p]);
        for (auto c : results[i].counts) std::printf(" %u", c);
        std::printf("\n");
      }
    }
    std::printf("%-28s %8.1f trials/sec  (%.2fs, speedup %.2fx, "
                "%llu extra runs)\n",
                ("measure_many(pool=" + std::to_string(pools[p]) + ")")
                    .c_str(),
                tps, sec, tps / serial_tps,
                static_cast<unsigned long long>(extra_runs));
    if (p) json << ",";
    json << "\n    {\"max_parallel_trials\": " << pools[p]
         << ", \"trials_per_sec\": " << tps
         << ", \"speedup\": " << tps / serial_tps
         << ", \"extra_runs\": " << extra_runs << "}";
  }
  // Journal write-through overhead: the same serial batch with a durable
  // trial journal attached (every outcome fsync-batched to disk), then a
  // pure replay pass where every trial is served from the journal instead
  // of executed — the resume-path fast case.
  campaign.set_max_parallel_trials(1);
  const std::string journal_path = "BENCH_campaign_journal.jsonl";
  std::remove(journal_path.c_str());
  campaign.attach_journal(journal_path, core::JournalMode::Create);
  const auto t2 = std::chrono::steady_clock::now();
  const auto journaled = campaign.measure_many(points);
  const double journal_sec = seconds_since(t2);
  const double journal_tps = total_trials / journal_sec;
  const auto t3 = std::chrono::steady_clock::now();
  const auto replayed = campaign.measure_many(points);
  const double replay_sec = seconds_since(t3);
  const double replay_tps = total_trials / replay_sec;
  campaign.detach_journal();
  std::remove(journal_path.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (journaled[i].counts != serial[i].counts ||
        replayed[i].counts != serial[i].counts) {
      identical = false;
      std::printf("  journal mismatch at point %zu\n", i);
    }
  }
  std::printf("%-28s %8.1f trials/sec  (%.2fs, %.1f%% overhead vs "
              "journal-off)\n",
              "serial + journal", journal_tps, journal_sec,
              100.0 * (serial_tps - journal_tps) / serial_tps);
  std::printf("%-28s %8.1f trials/sec  (%.2fs, pure replay)\n",
              "serial + journal replay", replay_tps, replay_sec);

  // Shard scaling: the same batch split into 1/2/4 deterministic shards
  // (the --shard i/N partition), each shard measured on its own, plus
  // the `fastfit merge` reassembly cost — charged separately, since in a
  // real sharded study the shards run on N machines and only the merge
  // is serial. The wall-clock of a sharded study is max(shard) + merge.
  json << "\n  ],\n  \"shard_scaling\": [";
  bool shard_identical = true;
  for (std::size_t si = 0; si < 3; ++si) {
    const std::size_t nshards = std::size_t{1} << si;
    std::vector<std::string> fragments;
    std::vector<double> shard_secs;
    double max_shard_sec = 0.0;
    for (std::size_t index = 1; index <= nshards; ++index) {
      const core::ShardSpec spec{index, nshards};
      core::StudyResult part;
      part.stats = campaign.stats();
      // The bench measures a truncated point set; fragments only need to
      // agree among themselves, so the post-pruning count is the batch.
      part.stats.after_context = points.size();
      part.golden_digest = campaign.golden_digest();
      part.shard = spec;
      std::vector<InjectionPoint> own;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (core::shard_owns(spec, points[i])) {
          part.shard_ordinals.push_back(i);
          own.push_back(points[i]);
        }
      }
      const auto t_shard = std::chrono::steady_clock::now();
      part.measured = campaign.measure_many(own);
      const double sec = seconds_since(t_shard);
      shard_secs.push_back(sec);
      max_shard_sec = std::max(max_shard_sec, sec);
      fragments.push_back(core::to_shard_fragment(part));
    }
    const auto t_merge = std::chrono::steady_clock::now();
    const auto merged = core::merge_fragments(fragments);
    const double merge_sec = seconds_since(t_merge);
    for (std::size_t i = 0; i < merged.measured.size(); ++i) {
      if (merged.measured[i].counts != serial[i].counts) {
        shard_identical = false;
        identical = false;
        std::printf("  shard mismatch at point %zu (%zu shards)\n", i,
                    nshards);
      }
    }
    std::printf("%-28s %8.2fs max shard  (+%.3fs merge, %zu shards)\n",
                ("sharded study (" + std::to_string(nshards) + ")").c_str(),
                max_shard_sec, merge_sec, nshards);
    if (si) json << ",";
    json << "\n    {\"shards\": " << nshards << ", \"shard_seconds\": [";
    for (std::size_t i = 0; i < shard_secs.size(); ++i) {
      if (i) json << ", ";
      json << shard_secs[i];
    }
    json << "], \"max_shard_seconds\": " << max_shard_sec
         << ", \"merge_seconds\": " << merge_sec
         << ", \"merged_identical\": "
         << (shard_identical ? "true" : "false") << "}";
  }

  // Hang-heavy section: time-to-classify INF_LOOP. The section needs
  // points that really hang: a Root/Comm bit flip only deadlocks when it
  // lands on another valid rank or handle (5 of 32 bits for a root in a
  // 32-rank world, almost never in a 4-rank one), so it runs on a wider LU
  // with 32 trials per point and scouts the Root/Comm points, keeping
  // those that classify INF_LOOP. Trial outcomes are a pure function of
  // the seed, so the timed run reproduces the scouted hangs: each deadlock
  // is declared the moment its world goes quiescent, each livelock at its
  // step budget.
  constexpr int hang_ranks = 32;
  const auto max_hang_points = static_cast<std::size_t>(
      bench::env_u64("FASTFIT_BENCH_HANG_POINTS", 3));
  const auto hang_trials = static_cast<std::uint32_t>(
      bench::env_u64("FASTFIT_BENCH_HANG_TRIALS", 32));
  const auto hang_workload = apps::make_workload("LU");

  core::CampaignOptions hang_options = options;
  hang_options.nranks = hang_ranks;
  hang_options.trials_per_point = hang_trials;

  std::vector<InjectionPoint> hang_points;
  {
    const auto scout_driver =
        bench::profiled_driver(*hang_workload, hang_options);
    auto& scout = scout_driver->campaign();
    std::vector<InjectionPoint> candidates;
    for (const auto& point : scout.enumeration().points) {
      if (point.param == mpi::Param::Root || point.param == mpi::Param::Comm) {
        candidates.push_back(point);
      }
    }
    for (const auto& r : scout.measure_many(candidates)) {
      if (hang_points.size() == max_hang_points) break;
      if (r.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)] > 0) {
        hang_points.push_back(r.point);
      }
    }
  }

  double hang_sec = 0.0;
  std::uint64_t hang_inf = 0;
  std::uint64_t deterministic_deadlocks = 0;
  if (!hang_points.empty()) {
    const auto hang_driver =
        bench::profiled_driver(*hang_workload, hang_options);
    auto& hang_campaign = hang_driver->campaign();
    const auto t4 = std::chrono::steady_clock::now();
    for (const auto& r : hang_campaign.measure_many(hang_points)) {
      hang_inf += r.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)];
    }
    hang_sec = seconds_since(t4);
    deterministic_deadlocks = hang_campaign.health().deterministic_deadlocks;
  }
  const double hang_total =
      static_cast<double>(hang_points.size()) * hang_trials;
  const double ms_per_inf =
      hang_inf ? 1000.0 * hang_sec / static_cast<double>(hang_inf) : 0.0;
  // A hang section that classifies nothing measures nothing.
  const bool hang_measured = hang_inf > 0;
  if (hang_measured) {
    std::printf("%-28s %8.2fs  (%llu INF_LOOP of %.0f trials, "
                "%.1f ms/INF_LOOP, %llu proven deadlocks)\n",
                "hang campaign", hang_sec,
                static_cast<unsigned long long>(hang_inf), hang_total,
                ms_per_inf,
                static_cast<unsigned long long>(deterministic_deadlocks));
  } else {
    std::printf("hang section classified no INF_LOOP (%zu hanging points "
                "found on %d-rank LU in %u trials each)\n",
                hang_points.size(), hang_ranks, hang_trials);
  }

  // Prefix-replay snapshots on a wide study (default: 32-rank LU at a
  // size where the computation dominates thread spawn). From-scratch
  // trials pay the whole pre-injection prefix in live rendezvous; with
  // snapshots auto, the recording is built once and every trial clones
  // it, executing only the post-injection suffix. Two point subsets:
  // "mix" strides across the whole enumeration (the study's blend of
  // early and late cuts — early-cut trials still run their suffix live,
  // so Amdahl bounds the blended speedup), and "suffix" takes the
  // End-phase (verification) points whose prefix is the entire
  // computation — the trials the fast path exists for.
  const int snap_ranks =
      static_cast<int>(bench::env_u64("FASTFIT_BENCH_SNAP_RANKS", 32));
  const auto snap_max_points = static_cast<std::size_t>(
      bench::env_u64("FASTFIT_BENCH_SNAP_POINTS", 6));
  const auto snap_trials = static_cast<std::uint32_t>(
      bench::env_u64("FASTFIT_BENCH_SNAP_TRIALS", 8));
  apps::LuConfig snap_lu_config;
  // Small per-rank grid, many iterations: prefix time is rendezvous-
  // dominated (what replay eliminates), not compute-dominated (what it
  // must re-run).
  snap_lu_config.npoints = static_cast<int>(bench::env_u64(
      "FASTFIT_BENCH_SNAP_NPOINTS",
      static_cast<std::uint64_t>(4 * snap_ranks)));
  snap_lu_config.iterations =
      static_cast<int>(bench::env_u64("FASTFIT_BENCH_SNAP_ITERS", 64));
  const apps::MiniLU snap_workload(snap_lu_config);

  core::CampaignOptions snap_options;
  snap_options.nranks = snap_ranks;
  snap_options.trials_per_point = snap_trials;
  snap_options.seed = bench::bench_seed();

  struct SnapSubset {
    const char* name;
    std::vector<InjectionPoint> points{};
    double sec[2] = {0.0, 0.0};
    double tps[2] = {0.0, 0.0};
    std::vector<core::PointResult> results[2] = {};
  };
  SnapSubset snap_subsets[2] = {{"mix"}, {"suffix"}};
  struct SnapMode {
    const char* mode;
    core::SnapshotMode setting;
    core::SnapshotCache::Stats stats{};
    long rss_kb = 0;
  };
  SnapMode snap_modes[2] = {{"off", core::SnapshotMode::Off},
                            {"auto", core::SnapshotMode::Auto}};
  for (std::size_t m = 0; m < 2; ++m) {
    snap_options.snapshots = snap_modes[m].setting;
    const auto snap_driver =
        bench::profiled_driver(snap_workload, snap_options);
    auto& snap_campaign = snap_driver->campaign();
    if (snap_subsets[0].points.empty()) {
      const auto& all = snap_campaign.enumeration().points;
      const std::size_t stride =
          std::max<std::size_t>(1, all.size() / snap_max_points);
      for (std::size_t i = 0;
           i < all.size() && snap_subsets[0].points.size() < snap_max_points;
           i += stride) {
        snap_subsets[0].points.push_back(all[i]);
      }
      for (const auto& point : all) {
        if (point.phase == trace::ExecPhase::End &&
            snap_subsets[1].points.size() < snap_max_points) {
          snap_subsets[1].points.push_back(point);
        }
      }
    }
    for (auto& subset : snap_subsets) {
      const auto t5 = std::chrono::steady_clock::now();
      subset.results[m] = snap_campaign.measure_many(
          std::span<const InjectionPoint>(subset.points.data(),
                                          subset.points.size()),
          snap_trials);
      subset.sec[m] = seconds_since(t5);
      const double total =
          static_cast<double>(subset.points.size()) * snap_trials;
      subset.tps[m] = subset.sec[m] > 0.0 ? total / subset.sec[m] : 0.0;
    }
    snap_modes[m].stats = snap_campaign.snapshot_stats();
    snap_modes[m].rss_kb = peak_rss_kb();
    std::printf("%-28s mix %6.2fs %7.1f t/s | suffix %6.2fs %7.1f t/s  "
                "(%llu clones, %llu fallbacks, rss %ld KiB)\n",
                ("snapshots " + std::string(snap_modes[m].mode) + " (LU, " +
                 std::to_string(snap_ranks) + "r)")
                    .c_str(),
                snap_subsets[0].sec[m], snap_subsets[0].tps[m],
                snap_subsets[1].sec[m], snap_subsets[1].tps[m],
                static_cast<unsigned long long>(snap_modes[m].stats.clones),
                static_cast<unsigned long long>(
                    snap_modes[m].stats.fallbacks),
                snap_modes[m].rss_kb);
  }
  bool snap_identical = true;
  for (auto& subset : snap_subsets) {
    for (std::size_t m = 1; m < 2; ++m) {
      for (std::size_t i = 0; i < subset.points.size(); ++i) {
        if (subset.results[m][i].counts != subset.results[0][i].counts) {
          snap_identical = false;
          identical = false;
          std::printf("  snapshot mismatch: %s point %zu (%s vs off)\n",
                      subset.name, i, snap_modes[m].mode);
        }
      }
    }
  }
  const double snap_speedup_mix =
      snap_subsets[0].sec[1] > 0.0
          ? snap_subsets[0].sec[0] / snap_subsets[0].sec[1]
          : 0.0;
  const double snap_speedup_suffix =
      snap_subsets[1].sec[1] > 0.0
          ? snap_subsets[1].sec[0] / snap_subsets[1].sec[1]
          : 0.0;
  std::printf("snapshot replay speedup: %.1fx study mix, %.1fx "
              "suffix-dominated trials (target >= 10x), counts %s\n",
              snap_speedup_mix, snap_speedup_suffix,
              snap_identical ? "identical" : "DIVERGED");

  json << "\n  ],\n  \"snapshots\": {"
       << "\"workload\": \"LU\", \"ranks\": " << snap_ranks
       << ", \"lu_npoints\": " << snap_lu_config.npoints
       << ", \"lu_iterations\": " << snap_lu_config.iterations
       << ", \"trials_per_point\": " << snap_trials
       << ", \"replay_speedup_mix\": " << snap_speedup_mix
       << ", \"replay_speedup_suffix\": " << snap_speedup_suffix
       << ", \"identical\": " << (snap_identical ? "true" : "false")
       << ",\n    \"modes\": [";
  for (std::size_t m = 0; m < 2; ++m) {
    const auto& run = snap_modes[m];
    const auto& s = run.stats;
    const double lookups =
        static_cast<double>(s.hits) + static_cast<double>(s.snapshot_builds);
    if (m) json << ",";
    json << "\n      {\"mode\": \"" << run.mode << "\"";
    for (const auto& subset : snap_subsets) {
      json << ", \"" << subset.name << "_points\": " << subset.points.size()
           << ", \"" << subset.name << "_seconds\": " << subset.sec[m]
           << ", \"" << subset.name
           << "_trials_per_sec\": " << subset.tps[m];
    }
    json << ", \"recording_builds\": " << s.recording_builds
         << ", \"snapshot_builds\": " << s.snapshot_builds
         << ", \"cache_hits\": " << s.hits
         << ", \"cache_hit_rate\": "
         << (lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0)
         << ", \"clones\": " << s.clones
         << ", \"fallbacks\": " << s.fallbacks
         << ", \"recording_bytes\": " << s.recording_bytes
         << ", \"peak_rss_kb\": " << run.rss_kb << "}";
  }
  json << "\n    ]},\n  \"telemetry\": {"
       << "\"off_trials_per_sec\": " << serial_tps
       << ", \"on_trials_per_sec\": " << telemetry_tps
       << ", \"overhead\": " << telemetry_overhead
       << ", \"events_recorded\": " << events_recorded
       << ", \"events_dropped\": " << events_dropped << "},\n"
       << "  \"journal\": {"
       << "\"off_trials_per_sec\": " << serial_tps
       << ", \"on_trials_per_sec\": " << journal_tps
       << ", \"replay_trials_per_sec\": " << replay_tps
       << ", \"write_through_overhead\": "
       << (serial_tps - journal_tps) / serial_tps << "},\n"
       << "  \"hang_detection\": {"
       << "\"workload\": \"LU\", \"ranks\": " << hang_ranks
       << ", \"points\": " << hang_points.size()
       << ", \"trials_per_point\": " << hang_trials
       << ", \"inf_loops\": " << hang_inf
       << ", \"deterministic_deadlocks\": " << deterministic_deadlocks
       << ", \"seconds\": " << hang_sec
       << ", \"trials_per_sec\": "
       << (hang_sec > 0.0 ? hang_total / hang_sec : 0.0)
       << ", \"ms_per_inf_loop\": " << ms_per_inf << "},\n"
       << "  \"results_identical_to_serial\": "
       << (identical ? "true" : "false") << "\n}\n";

  std::printf("results identical to serial: %s\n", identical ? "yes" : "NO");
  core::write_file("BENCH_campaign_throughput.json", json.str());
  std::printf("wrote BENCH_campaign_throughput.json\n");
  return identical && hang_measured ? 0 : 1;
}
