// Reference-study benchmark.
//
//   refstudy --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --reference-dir <dir> --work-dir <dir> [--write-reference]
//
// Runs one of three reference sensitivity studies through the public
// core::StudyDriver API, repeating it until --seconds have passed, and
// checks every repetition against the correctness gate. With --trace 0 it
// reports the end-to-end metrics (medians over the repetitions); with
// --trace 1 it runs one untraced and one traced study, then times calls
// into each module's public functions to give the per-layer metrics. The
// last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exit code 0 when the gate and the coverage guards pass, 1 when they do
// not, 2 on a usage error. See perfbench/README.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/lu.hpp"
#include "apps/minimd.hpp"
#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "core/study.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/mpi.hpp"
#include "ml/random_forest.hpp"
#include "spans.hpp"
#include "telemetry/recorder.hpp"
#include "trace/rank_context.hpp"

namespace {

using namespace fastfit;
namespace fs = std::filesystem;
using perfbench::Tracer;

/// The campaign seed whose per-point outcome counts are committed under
/// the reference directory for every workload.
constexpr std::uint64_t kDefaultSeed = 1;

/// At least this many studies per timed run, so setup_s and study_s are
/// medians even when one study takes most of --seconds.
constexpr std::size_t kMinReps = 3;

/// setup_s is the median of at least this many cold set-ups per timed run,
/// taking at least kSetupSeconds together; set-ups beyond the studies' own
/// run StudyDriver::profile() alone.
constexpr std::size_t kSetupSamples = 25;
constexpr double kSetupSeconds = 2.0;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadDef {
  std::string name;
  std::string config;  ///< human-readable generator inputs
  /// Campaign seed of every study, when the workload pins it; otherwise
  /// the campaign seed is --seed.
  std::optional<std::uint64_t> pinned_seed;
  int ranks = 0;
  /// Trials per point: the run-length knob (the paper uses 100).
  std::uint32_t trials = 0;
  std::string fault_models;
  std::string passes;
  bool journal = false;
  core::IsolationMode isolation = core::IsolationMode::Thread;
  std::function<std::unique_ptr<apps::Workload>()> make;

  bool ml() const { return passes.find("ml") != std::string::npos; }
};

std::vector<WorkloadDef> workload_defs() {
  std::vector<WorkloadDef> defs;
  // The ML stage visits points in a seed-shuffled order and stops at the
  // accuracy threshold, so the campaign seed decides which points a study
  // measures; at 20 trials/point study time ranged 0.57-3.17 s over seeds
  // 1-12 on a 4-core host. The study's seed is pinned so that every run
  // measures the same work.
  defs.push_back({"md_ml_study", "miniMD (default MdConfig)", kDefaultSeed,
                  32, 20,
                  "single-bit-flip", "semantic,context,ml", true,
                  core::IsolationMode::Thread,
                  [] { return std::make_unique<apps::MiniMD>(); }});
  defs.push_back({"lu_wide", "MiniLU(npoints=512, iterations=64)",
                  std::nullopt, 128, 10,
                  "single-bit-flip", "semantic,context", false,
                  core::IsolationMode::Thread, [] {
                    apps::LuConfig config;
                    config.npoints = 4 * 128;
                    config.iterations = 64;
                    return std::make_unique<apps::MiniLU>(config);
                  }});
  defs.push_back({"lu_faults_isolated", "MiniLU (default LuConfig)",
                  std::nullopt, 64, 40,
                  "message-drop,message-corrupt,rank-death,sigsegv",
                  "semantic,context", false, core::IsolationMode::Process,
                  [] { return std::make_unique<apps::MiniLU>(); }});
  return defs;
}

core::StudyOptions study_options(const WorkloadDef& def, std::uint64_t seed,
                                 const std::string& journal) {
  core::StudyOptions options;
  options.campaign.nranks = def.ranks;
  options.campaign.seed = seed;
  options.campaign.trials_per_point = def.trials;
  options.campaign.fault_models = inject::parse_fault_models(def.fault_models);
  options.campaign.isolation = def.isolation;
  options.campaign.snapshots = core::SnapshotMode::Auto;
  options.campaign.engine = mpi::WorldEngine::Fibers;
  options.campaign.max_parallel_trials = 0;  // auto: nproc lanes on fibers
  options.passes = core::parse_pass_list(def.passes);
  options.use_ml = def.ml();
  options.journal = journal;
  return options;
}

std::size_t lanes() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// One study
// ---------------------------------------------------------------------------

/// Per-point outcome counts of one study, in the order the study produced
/// them, plus the ML stage's predicted labels: what the gate compares.
std::vector<std::string> fingerprint(const core::StudyResult& result) {
  std::vector<std::string> lines;
  for (const auto& r : result.measured) {
    std::string line = "measured " + core::point_key(r.point);
    for (const auto c : r.counts) {
      line += ' ';
      line += std::to_string(c);
    }
    lines.push_back(std::move(line));
  }
  for (const auto& [point, label] : result.predicted) {
    lines.push_back("predicted " + core::point_key(point) + " " +
                    std::to_string(label));
  }
  return lines;
}

std::uint64_t inf_loops(const core::StudyResult& result) {
  std::uint64_t n = 0;
  for (const auto& r : result.measured) {
    n += r.counts[static_cast<std::size_t>(inject::Outcome::InfLoop)];
  }
  return n;
}

struct StudyRun {
  double study_s = 0.0;  ///< StudyDriver construction to StudyResult
  double setup_s = 0.0;  ///< StudyDriver::profile()
  double run_s = 0.0;    ///< StudyDriver::run()
  double peak_rss_mb = 0.0;  ///< of the process, at the end of the study
  core::StudyResult result;
  core::SnapshotCache::Stats snapshot;
  std::uint64_t attempted = 0;  ///< measured points x trials per point
  std::uint64_t completed = 0;  ///< trials that yielded an outcome
  std::unique_ptr<core::StudyDriver> driver;  ///< kept for layer probes
};

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void remove_journal(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".recording", ec);
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

StudyRun run_study(const WorkloadDef& def, const apps::Workload& workload,
                   std::uint64_t seed, const fs::path& work_dir,
                   Tracer& tracer) {
  // Set-up is paid cold, as a CLI user pays it: no golden run memoized by
  // an earlier repetition, no journal or recording left on disk.
  core::GoldenCache::instance().clear();
  const std::string journal =
      def.journal ? (work_dir / (def.name + ".journal")).string() : "";
  remove_journal(journal);

  StudyRun run;
  auto span = tracer.begin("study");
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto s = tracer.begin("study.construct");
    run.driver = std::make_unique<core::StudyDriver>(
        workload, study_options(def, seed, journal));
  }
  const auto t1 = std::chrono::steady_clock::now();
  {
    auto s = tracer.begin("study.profile");
    run.driver->profile();
  }
  const auto t2 = std::chrono::steady_clock::now();
  {
    auto s = tracer.begin("study.run");
    run.result = run.driver->run();
  }
  run.run_s = since(t2);
  run.setup_s = std::chrono::duration<double>(t2 - t1).count();
  run.study_s = since(t0);
  run.peak_rss_mb = peak_rss_mb();
  remove_journal(journal);

  run.snapshot = run.driver->campaign().snapshot_stats();
  for (const auto& r : run.result.measured) {
    run.attempted += def.trials;
    if (r.exec.quarantined) continue;
    for (const auto c : r.counts) run.completed += c;
  }
  return run;
}

// ---------------------------------------------------------------------------
// Correctness gate and coverage guards
// ---------------------------------------------------------------------------

fs::path reference_file(const fs::path& dir, const std::string& workload,
                        std::uint64_t seed) {
  return dir / (workload + ".seed" + std::to_string(seed) + ".txt");
}

std::optional<std::vector<std::string>> read_reference(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Reports the first line where `got` differs from `want`.
bool same_lines(const std::vector<std::string>& want,
                const std::vector<std::string>& got, const std::string& what) {
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < got.size() ? got[i] : "(none)";
    if (w != g) {
      std::printf("GATE FAIL (%s) at entry %zu:\n  expected: %s\n  got:      "
                  "%s\n",
                  what.c_str(), i + 1, w.c_str(), g.c_str());
      return false;
    }
  }
  return true;
}

/// Seed-independent invariants of one study plus, when given, equality
/// with an earlier repetition or the committed reference.
bool gate(const WorkloadDef& def, const StudyRun& run,
          const std::vector<std::string>& got,
          const std::vector<std::string>* first,
          const std::optional<std::vector<std::string>>& reference) {
  bool ok = true;
  std::uint64_t total = 0;
  for (const auto& r : run.result.measured) {
    std::uint64_t sum = 0;
    for (const auto c : r.counts) sum += c;
    total += sum;
    if (sum != def.trials) {
      std::printf("GATE FAIL: point %s has %llu outcomes, expected %u\n",
                  core::point_key(r.point).c_str(),
                  static_cast<unsigned long long>(sum), def.trials);
      ok = false;
    }
  }
  const std::uint64_t want =
      static_cast<std::uint64_t>(run.result.measured.size()) * def.trials;
  if (total != want) {
    std::printf("GATE FAIL: counts sum to %llu, points x trials = %llu\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(want));
    ok = false;
  }
  if (!run.result.health.clean()) {
    std::printf("GATE FAIL: campaign health not clean (%llu quarantined "
                "points, %llu leaked rank threads)\n",
                static_cast<unsigned long long>(
                    run.result.health.quarantined_points),
                static_cast<unsigned long long>(
                    run.result.health.leaked_rank_threads));
    ok = false;
  }
  if (first != nullptr && !same_lines(*first, got, "repetition differs")) {
    ok = false;
  }
  if (reference && !same_lines(*reference, got, "committed reference")) {
    ok = false;
  }
  return ok;
}

/// A workload must keep exercising the layer it was chosen for.
bool coverage_guards(const WorkloadDef& def, const StudyRun& run) {
  const auto& h = run.result.health;
  std::vector<std::string> failures;
  if (def.name == "lu_faults_isolated") {
    if (h.deterministic_deadlocks == 0) {
      failures.push_back("hang.deterministic_deadlocks = 0");
    }
    if (h.worker_deaths == 0) failures.push_back("procpool.worker_deaths = 0");
    if (run.snapshot.clones > 0) failures.push_back("snapshot.clones > 0");
  }
  if (def.name == "lu_wide" && run.snapshot.clones == 0) {
    failures.push_back("snapshot.clones = 0");
  }
  if (def.name == "md_ml_study" && run.result.ml_rounds == 0) {
    failures.push_back("ml.rounds = 0");
  }
  for (const auto& f : failures) {
    std::printf("COVERAGE FAIL (%s): %s\n", def.name.c_str(), f.c_str());
  }
  return failures.empty();
}

/// The gate and the guards applied to every study of one run, with the
/// run's trial accounting: a study that fails counts all its trials as
/// failed.
struct RunGate {
  std::optional<std::vector<std::string>> reference;
  std::vector<std::string> first;  ///< outcomes of the run's first study
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool check(const WorkloadDef& def, const StudyRun& run) {
    const auto lines = fingerprint(run.result);
    const bool ok = gate(def, run, lines, first.empty() ? nullptr : &first,
                         reference) &&
                    coverage_guards(def, run);
    if (first.empty()) first = lines;
    correct = correct && ok;
    attempted += run.attempted;
    failed += ok ? run.attempted - run.completed : run.attempted;
    return ok;
  }
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Timed run (--trace 0): end-to-end metrics
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  fs::path reference_dir = "perfbench/reference";
  fs::path work_dir = ".bench_build/perfbench-work";
  bool write_reference = false;
};

int timed_run(const Options& opt, const WorkloadDef& def,
              const apps::Workload& workload) {
  RunGate checked;
  checked.reference =
      read_reference(reference_file(opt.reference_dir, def.name, opt.seed));
  Tracer off(false);
  std::vector<double> study_s, setup_s, tps;
  // A CLI user runs one study per process, so peak_rss_mb is the peak of
  // the run's first study; later studies start from what earlier ones
  // left resident.
  double first_study_rss_mb = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  while (study_s.size() < kMinReps || since(t0) < opt.seconds) {
    const StudyRun run = run_study(def, workload, opt.seed, opt.work_dir, off);
    const bool ok = checked.check(def, run);
    if (study_s.empty()) first_study_rss_mb = run.peak_rss_mb;
    study_s.push_back(run.study_s);
    setup_s.push_back(run.setup_s);
    tps.push_back(static_cast<double>(run.completed) / run.run_s);
    std::printf("rep %zu: study %.3f s, setup %.3f s, run %.3f s, peak rss "
                "%.1f MiB, %llu trials on %zu points (%zu predicted), %llu "
                "INF_LOOP, %llu watchdog confirmations%s\n",
                study_s.size(), run.study_s, run.setup_s, run.run_s,
                run.peak_rss_mb,
                static_cast<unsigned long long>(run.completed),
                run.result.measured.size(), run.result.predicted.size(),
                static_cast<unsigned long long>(inf_loops(run.result)),
                static_cast<unsigned long long>(
                    run.result.health.watchdog_confirmations),
                ok ? "" : "  [gate failed]");
  }
  double setup_total = 0.0;
  for (const double s : setup_s) setup_total += s;
  while (setup_s.size() < kSetupSamples || setup_total < kSetupSeconds) {
    core::GoldenCache::instance().clear();
    core::StudyDriver driver(workload, study_options(def, opt.seed, ""));
    const auto t = std::chrono::steady_clock::now();
    driver.profile();
    setup_s.push_back(since(t));
    setup_total += setup_s.back();
  }
  const double failed_frac = static_cast<double>(checked.failed) /
                             static_cast<double>(checked.attempted);
  std::printf("%s seed %llu: %zu studies, %zu set-ups, reference %s, "
              "failed_trial_frac %.6f\n",
              def.name.c_str(), static_cast<unsigned long long>(opt.seed),
              study_s.size(), setup_s.size(),
              checked.reference ? "checked" : "absent for this seed",
              failed_frac);
  print_result(checked.correct, checked.attempted, checked.failed,
               {{"study_s", perfbench::median(study_s), "s"},
                {"setup_s", perfbench::median(setup_s), "s"},
                {"trials_per_s", perfbench::median(tps), "trials/s"},
                {"peak_rss_mb", first_study_rss_mb, "MiB"},
                {"completed_trial_frac", 1.0 - failed_frac, "ratio"}});
  return checked.correct ? 0 : 1;
}

int write_reference(const Options& opt, const WorkloadDef& def,
                    const apps::Workload& workload) {
  Tracer off(false);
  const StudyRun run = run_study(def, workload, opt.seed, opt.work_dir, off);
  const auto lines = fingerprint(run.result);
  if (!gate(def, run, lines, nullptr, std::nullopt) ||
      !coverage_guards(def, run)) {
    return 1;
  }
  const fs::path path = reference_file(opt.reference_dir, def.name, opt.seed);
  std::ofstream out(path);
  out << "# " << def.name << " seed " << opt.seed << ", " << def.trials
      << " trials per point. 'measured <point> <outcome counts in "
         "inject::Outcome order>'; 'predicted <point> <ML label>'\n";
  for (const auto& line : lines) out << line << "\n";
  std::printf("wrote %s (%zu lines)\n", path.string().c_str(), lines.size());
  return out ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): per-layer metrics
// ---------------------------------------------------------------------------

/// Every per-layer metric with its module, the end-to-end metric it should
/// move and the workload it should move it on.
struct LayerTag {
  const char* name;
  const char* unit;
  const char* module;
  const char* moves;
  const char* on;
};

constexpr LayerTag kLayers[] = {
    {"apps.job_ms", "ms", "apps", "trials_per_s", "all, mostly md_ml_study"},
    {"minimpi.spawn_us", "us", "minimpi", "trials_per_s", "lu_wide"},
    {"minimpi.barrier_us", "us", "minimpi", "trials_per_s", "lu_wide"},
    {"minimpi.allreduce_us", "us", "minimpi", "trials_per_s", "lu_wide"},
    {"minimpi.bcast_us", "us", "minimpi", "trials_per_s", "lu_wide"},
    {"prune.enumerated", "count", "profile/trace/pruning", "setup_s,study_s",
     "all"},
    {"prune.after_semantic", "count", "profile/trace/pruning",
     "setup_s,study_s", "all"},
    {"prune.after_context", "count", "profile/trace/pruning",
     "setup_s,study_s", "all"},
    {"executor.serial_trials_per_s", "trials/s", "core executor",
     "trials_per_s", "md_ml_study,lu_wide"},
    {"executor.lane_efficiency", "ratio", "core executor", "trials_per_s",
     "md_ml_study,lu_wide"},
    {"campaign.point_p50_ms", "ms", "core scheduler", "trials_per_s",
     "md_ml_study,lu_wide"},
    {"campaign.point_tail_ms", "ms", "core scheduler", "trials_per_s",
     "md_ml_study,lu_wide"},
    {"campaign.point_tail_pct", "percentile", "core scheduler",
     "trials_per_s", "md_ml_study,lu_wide"},
    {"campaign.point_samples", "count", "core scheduler", "trials_per_s",
     "md_ml_study,lu_wide"},
    {"core.trial_retries", "count", "core executor", "failed_trial_frac",
     "md_ml_study,lu_wide"},
    {"core.quarantined_points", "count", "core executor",
     "failed_trial_frac", "md_ml_study,lu_wide"},
    {"snapshot.clones", "count", "core snapshot cache", "trials_per_s",
     "lu_wide (0 on lu_faults_isolated)"},
    {"snapshot.fallbacks", "count", "core snapshot cache", "trials_per_s",
     "lu_wide"},
    {"snapshot.hit_rate", "ratio", "core snapshot cache", "trials_per_s",
     "lu_wide"},
    {"snapshot.recording_bytes", "bytes", "core snapshot cache",
     "peak_rss_mb", "lu_wide"},
    {"snapshot.replay_speedup", "ratio", "core snapshot cache",
     "trials_per_s", "lu_wide"},
    {"snapshot.parity_mismatches", "count", "core snapshot cache",
     "none (correctness)", "all"},
    {"procpool.trial_overhead_ms", "ms", "core procpool", "trials_per_s",
     "lu_faults_isolated"},
    {"procpool.worker_deaths", "count", "core procpool", "trials_per_s",
     "lu_faults_isolated"},
    {"procpool.lease_kills", "count", "core procpool", "trials_per_s",
     "lu_faults_isolated"},
    {"procpool.isolation_fallbacks", "count", "core procpool",
     "trials_per_s", "lu_faults_isolated"},
    {"procpool.parity_mismatches", "count", "core procpool",
     "none (correctness)", "lu_faults_isolated"},
    {"hang.inf_loop_trials", "count", "inject/hang verdict", "trials_per_s",
     "lu_faults_isolated"},
    {"hang.deterministic_deadlocks", "count", "inject/hang verdict",
     "trials_per_s", "lu_faults_isolated"},
    {"hang.watchdog_confirmations", "count", "inject/hang verdict",
     "trials_per_s", "lu_faults_isolated"},
    {"hang.watchdog_recalibrations", "count", "inject/hang verdict",
     "trials_per_s", "lu_faults_isolated"},
    {"journal.write_overhead_frac", "ratio", "core journal", "study_s",
     "md_ml_study"},
    {"journal.replay_trials_per_s", "trials/s", "core journal", "study_s",
     "md_ml_study"},
    {"ml.rounds", "count", "ml", "study_s", "md_ml_study"},
    {"ml.measured_points", "count", "ml", "study_s", "md_ml_study"},
    {"ml.predicted_frac", "ratio", "ml", "study_s", "md_ml_study"},
    {"ml.train_ms", "ms", "ml", "study_s", "md_ml_study"},
    {"ml.predict_us", "us", "ml", "study_s", "md_ml_study"},
    {"telemetry.overhead_frac", "ratio", "telemetry", "trials_per_s", "all"},
    {"telemetry.events_dropped", "count", "telemetry", "trials_per_s", "all"},
    {"trace.overhead_frac", "ratio", "benchmark tracer", "study_s", "all"},
};

/// Measures `points` at `pool` lanes inside a span; returns seconds.
double timed_measure(Tracer& tracer, const char* span, core::Campaign& c,
                     std::span<const core::InjectionPoint> points,
                     std::size_t pool,
                     std::vector<core::PointResult>* out = nullptr) {
  c.set_max_parallel_trials(pool);
  auto s = tracer.begin(span);
  const auto t0 = std::chrono::steady_clock::now();
  auto results = c.measure_many(points);
  const double sec = since(t0);
  if (out != nullptr) *out = std::move(results);
  return sec;
}

/// Points of `got` whose outcome counts differ from the study's, each
/// printed after `label`.
std::size_t mismatches(
    const std::map<std::string, std::vector<std::uint32_t>>& want,
    const std::vector<core::PointResult>& got, const std::string& label) {
  const auto join = [](const std::vector<std::uint32_t>& v) {
    std::string out;
    for (const auto c : v) {
      out += ' ';
      out += std::to_string(c);
    }
    return out;
  };
  std::size_t n = 0;
  for (const auto& r : got) {
    const auto it = want.find(core::point_key(r.point));
    const std::vector<std::uint32_t> counts(r.counts.begin(), r.counts.end());
    if (it == want.end() || it->second == counts) continue;
    std::printf("%s: point %s has outcome counts%s, the study had%s\n",
                label.c_str(), core::point_key(r.point).c_str(),
                join(counts).c_str(), join(it->second).c_str());
    ++n;
  }
  return n;
}

/// World::run micro-calls at `ranks`: median wall seconds of one run.
double world_run_s(Tracer& tracer, const char* span, int ranks,
                   std::uint64_t seed,
                   const std::function<void(mpi::Mpi&)>& body) {
  constexpr int kRuns = 9;
  for (int i = 0; i < kRuns; ++i) {
    mpi::WorldOptions o;
    o.nranks = ranks;
    o.seed = seed;
    o.watchdog = std::chrono::milliseconds(60'000);
    mpi::World world(o);
    auto s = tracer.begin(span);
    const auto result = world.run(body);
    if (!result.clean()) throw InternalError("perfbench: micro-call failed");
  }
  return perfbench::median(perfbench::durations_s(tracer.spans(), span));
}

int traced_run(const Options& opt, const WorkloadDef& def,
               const apps::Workload& workload) {
  RunGate checked;
  checked.reference =
      read_reference(reference_file(opt.reference_dir, def.name, opt.seed));
  std::map<std::string, double> m;

  // Untraced and traced studies, alternated: the difference of their
  // medians is the tracer's overhead. The last traced study's campaign
  // serves the layer probes below.
  constexpr int kStudyPairs = 3;
  Tracer off(false);
  Tracer tracer(true);
  std::vector<double> plain_s, traced_s;
  StudyRun run;
  for (int i = 0; i < 2 * kStudyPairs; ++i) {
    const bool traced = i % 2 == 1;
    run = run_study(def, workload, opt.seed, opt.work_dir,
                    traced ? tracer : off);
    checked.check(def, run);
    (traced ? traced_s : plain_s).push_back(run.study_s);
  }
  const double plain_median = perfbench::median(plain_s);
  m["trace.overhead_frac"] =
      (perfbench::median(traced_s) - plain_median) / plain_median;

  const auto& result = run.result;
  const auto& health = result.health;
  auto& campaign = run.driver->campaign();
  std::map<std::string, std::vector<std::uint32_t>> study_counts;
  for (const auto& r : result.measured) {
    study_counts[core::point_key(r.point)].assign(r.counts.begin(),
                                                  r.counts.end());
  }

  m["prune.enumerated"] = static_cast<double>(result.stats.total_points);
  m["prune.after_semantic"] = static_cast<double>(result.stats.after_semantic);
  m["prune.after_context"] = static_cast<double>(result.stats.after_context);
  m["core.trial_retries"] = static_cast<double>(health.total_retries);
  m["core.quarantined_points"] =
      static_cast<double>(health.quarantined_points);
  m["procpool.worker_deaths"] = static_cast<double>(health.worker_deaths);
  m["procpool.lease_kills"] = static_cast<double>(health.worker_lease_kills);
  m["procpool.isolation_fallbacks"] =
      static_cast<double>(health.isolation_fallbacks);
  m["hang.deterministic_deadlocks"] =
      static_cast<double>(health.deterministic_deadlocks);
  m["hang.watchdog_confirmations"] =
      static_cast<double>(health.watchdog_confirmations);
  m["hang.watchdog_recalibrations"] =
      static_cast<double>(health.watchdog_recalibrations);
  m["hang.inf_loop_trials"] = static_cast<double>(inf_loops(result));
  const auto& snap = run.snapshot;
  m["snapshot.clones"] = static_cast<double>(snap.clones);
  m["snapshot.fallbacks"] = static_cast<double>(snap.fallbacks);
  const double lookups = static_cast<double>(snap.hits + snap.snapshot_builds);
  m["snapshot.hit_rate"] =
      lookups > 0.0 ? static_cast<double>(snap.hits) / lookups : 0.0;
  m["snapshot.recording_bytes"] = static_cast<double>(snap.recording_bytes);
  m["ml.rounds"] = static_cast<double>(result.ml_rounds);
  m["ml.measured_points"] =
      def.ml() ? static_cast<double>(result.measured.size()) : 0.0;
  m["ml.predicted_frac"] = result.ml_reduction;

  // apps: fault-free run_job of the workload's configuration.
  for (int i = 0; i < 5; ++i) {
    mpi::WorldOptions o;
    o.nranks = def.ranks;
    o.seed = opt.seed;
    o.watchdog = std::chrono::milliseconds(60'000);
    trace::ContextRegistry contexts(def.ranks);
    auto s = tracer.begin("apps.run_job");
    const auto job = apps::run_job(workload, o, nullptr, contexts);
    if (!job.world.clean()) throw InternalError("perfbench: golden job failed");
  }
  m["apps.job_ms"] =
      1e3 * perfbench::median(perfbench::durations_s(tracer.spans(),
                                                     "apps.run_job"));

  // minimpi: World::run micro-calls at the workload's rank count. Per-op
  // costs subtract the empty world's spin-up.
  constexpr int kOps = 32;
  const double spawn =
      world_run_s(tracer, "minimpi.spawn", def.ranks, opt.seed,
                  [](mpi::Mpi&) {});
  const double barrier = world_run_s(
      tracer, "minimpi.barrier", def.ranks, opt.seed, [](mpi::Mpi& mpi) {
        for (int i = 0; i < kOps; ++i) mpi.barrier();
      });
  const double allreduce = world_run_s(
      tracer, "minimpi.allreduce", def.ranks, opt.seed, [](mpi::Mpi& mpi) {
        mpi::RegisteredBuffer<double> send(mpi.registry(), 8, 1.0);
        mpi::RegisteredBuffer<double> recv(mpi.registry(), 8);
        for (int i = 0; i < kOps; ++i) {
          mpi.allreduce(send.data(), recv.data(), 8, mpi::kDouble, mpi::kSum);
        }
      });
  const double bcast = world_run_s(
      tracer, "minimpi.bcast", def.ranks, opt.seed, [](mpi::Mpi& mpi) {
        mpi::RegisteredBuffer<double> buf(mpi.registry(), 8, 1.0);
        for (int i = 0; i < kOps; ++i) {
          mpi.bcast(buf.data(), 8, mpi::kDouble, 0);
        }
      });
  m["minimpi.spawn_us"] = 1e6 * spawn;
  m["minimpi.barrier_us"] = 1e6 * std::max(0.0, barrier - spawn) / kOps;
  m["minimpi.allreduce_us"] = 1e6 * std::max(0.0, allreduce - spawn) / kOps;
  m["minimpi.bcast_us"] = 1e6 * std::max(0.0, bcast - spawn) / kOps;

  // Point subset for the campaign probes: every measured point, capped so
  // the probes stay within a few study-lengths.
  campaign.detach_journal();
  std::vector<core::InjectionPoint> subset;
  for (const auto& r : result.measured) subset.push_back(r.point);
  if (subset.size() > 12) subset.resize(12);
  const double subset_trials =
      static_cast<double>(subset.size()) * def.trials;
  bool probes_ok = true;
  // A probe that runs the study's own configuration must reproduce the
  // study's outcomes: measuring must not change results.
  const auto check = [&](const std::vector<core::PointResult>& got,
                         const char* what) {
    if (mismatches(study_counts, got,
                   std::string("GATE FAIL (") + what + ")") > 0) {
      probes_ok = false;
    }
  };
  // A probe that runs another configuration (snapshots off, thread
  // isolation) tests the program's claim that results are identical at
  // every setting. Divergent points are counted in `metric` and printed.
  const auto parity = [&](const std::vector<core::PointResult>& got,
                          const char* metric) {
    m[metric] = static_cast<double>(mismatches(
        study_counts, got, std::string("PARITY DIVERGENCE (") + metric + ")"));
  };

  // Executor: serial per-point times, then every lane.
  std::vector<double> point_ms;
  double serial_tps = 0.0;
  {
    campaign.set_max_parallel_trials(1);
    const auto t0 = std::chrono::steady_clock::now();
    while (point_ms.size() < 20 || point_ms.size() < subset.size()) {
      for (const auto& point : subset) {
        auto s = tracer.begin("campaign.measure");
        const auto t = std::chrono::steady_clock::now();
        const auto r = campaign.measure(point);
        point_ms.push_back(1e3 * since(t));
        check({r}, "serial measure");
      }
      if (since(t0) > 4.0 * run.run_s + 5.0) break;
    }
    double total_ms = 0.0;
    for (const double ms : point_ms) total_ms += ms;
    serial_tps = static_cast<double>(point_ms.size()) * def.trials /
                 (1e-3 * total_ms);
  }

  // Every A/B comparison below alternates its two sides kPasses times so
  // that drift on a shared host lands on both, and compares medians.
  constexpr int kPasses = 3;
  const auto alternate = [&](const std::function<double()>& a,
                             const std::function<double()>& b) {
    std::vector<double> sa, sb;
    for (int i = 0; i < kPasses; ++i) {
      sa.push_back(a());
      sb.push_back(b());
    }
    return std::pair{perfbench::median(sa), perfbench::median(sb)};
  };
  // The lane-parallel pass on the study's own campaign: the baseline.
  std::vector<double> pool_passes;
  const auto baseline = [&] {
    std::vector<core::PointResult> out;
    const double sec = timed_measure(tracer, "campaign.measure_many",
                                     campaign, subset, lanes(), &out);
    check(out, "measure_many");
    pool_passes.push_back(sec);
    return sec;
  };

  // Snapshot replay: the same subset with snapshots off.
  {
    core::GoldenCache::instance().clear();
    auto options = study_options(def, opt.seed, "");
    options.campaign.snapshots = core::SnapshotMode::Off;
    core::StudyDriver scratch(workload, options);
    scratch.profile();
    const auto [on_s, off_s] = alternate(baseline, [&] {
      std::vector<core::PointResult> out;
      const double sec =
          timed_measure(tracer, "campaign.measure_many.snapshots_off",
                        scratch.campaign(), subset, lanes(), &out);
      parity(out, "snapshot.parity_mismatches");
      return sec;
    });
    m["snapshot.replay_speedup"] = off_s / on_s;
  }

  // Process isolation: process vs thread on the non-signal points.
  if (def.isolation == core::IsolationMode::Process) {
    std::vector<core::InjectionPoint> plain_points;
    for (const auto& point : subset) {
      if (!inject::is_signal_model(point.fault.model)) {
        plain_points.push_back(point);
      }
    }
    std::vector<inject::FaultModelSpec> models;
    for (const auto& spec : inject::parse_fault_models(def.fault_models)) {
      if (!inject::is_signal_model(spec.model)) models.push_back(spec);
    }
    core::GoldenCache::instance().clear();
    auto options = study_options(def, opt.seed, "");
    options.campaign.isolation = core::IsolationMode::Thread;
    options.campaign.fault_models = models;
    core::StudyDriver scratch(workload, options);
    scratch.profile();
    const auto [process_s, thread_s] = alternate(
        [&] {
          std::vector<core::PointResult> out;
          const double sec =
              timed_measure(tracer, "campaign.measure_many.process",
                            campaign, plain_points, lanes(), &out);
          check(out, "process isolation");
          return sec;
        },
        [&] {
          std::vector<core::PointResult> out;
          const double sec =
              timed_measure(tracer, "campaign.measure_many.thread",
                            scratch.campaign(), plain_points, lanes(), &out);
          parity(out, "procpool.parity_mismatches");
          return sec;
        });
    m["procpool.trial_overhead_ms"] =
        1e3 * (process_s - thread_s) /
        (static_cast<double>(plain_points.size()) * def.trials);
  }

  // Journal: write-through overhead, then resume passes served from it.
  if (def.journal) {
    const std::string path =
        (opt.work_dir / (def.name + ".probe.journal")).string();
    const auto [plain_s, write_s] = alternate(baseline, [&] {
      remove_journal(path);
      campaign.attach_journal(path, core::JournalMode::Create);
      const double sec = timed_measure(
          tracer, "campaign.measure_many.journal_write", campaign, subset,
          lanes());
      campaign.detach_journal();
      return sec;
    });
    campaign.attach_journal(path, core::JournalMode::Resume);
    std::vector<double> replay_s;
    for (int i = 0; i < kPasses; ++i) {
      std::vector<core::PointResult> out;
      replay_s.push_back(timed_measure(tracer,
                                       "campaign.measure_many.journal_replay",
                                       campaign, subset, lanes(), &out));
      check(out, "journal replay");
    }
    campaign.detach_journal();
    remove_journal(path);
    m["journal.write_overhead_frac"] = (write_s - plain_s) / plain_s;
    m["journal.replay_trials_per_s"] =
        subset_trials / perfbench::median(replay_s);
  }

  // Telemetry: the recorder on against the baseline. Its rank lanes are
  // not told apart across concurrent worlds, so timed runs keep it off.
  {
    auto& recorder = telemetry::Recorder::instance();
    const auto [off_s, on_s] = alternate(baseline, [&] {
      recorder.reset();
      recorder.enable();
      telemetry::Recorder::bind_thread(telemetry::Track::Main, -1,
                                       "perfbench-main");
      std::vector<core::PointResult> out;
      const double sec =
          timed_measure(tracer, "campaign.measure_many.telemetry", campaign,
                        subset, lanes(), &out);
      recorder.disable();
      m["telemetry.events_dropped"] +=
          static_cast<double>(recorder.dropped_events());
      (void)recorder.drain_events();
      recorder.reset();
      check(out, "telemetry on");
      return sec;
    });
    m["telemetry.overhead_frac"] = (on_s - off_s) / off_s;
  }

  m["executor.serial_trials_per_s"] = serial_tps;
  m["executor.lane_efficiency"] =
      (subset_trials / perfbench::median(pool_passes)) /
      (static_cast<double>(lanes()) * serial_tps);
  m["campaign.point_p50_ms"] = perfbench::median(point_ms);
  m["campaign.point_samples"] = static_cast<double>(point_ms.size());
  if (const auto tail = perfbench::tail_percentile(point_ms)) {
    m["campaign.point_tail_ms"] = tail->value;
    m["campaign.point_tail_pct"] = tail->percentile;
  }

  // ML: train on the study's measured points, predict the rest.
  if (def.ml()) {
    const core::MlLoopConfig ml;
    ml::Dataset data(core::label_count(ml.mode, ml.thresholds));
    for (const auto& r : result.measured) {
      data.add(r.point.features(),
               core::label_of(r, ml.mode, ml.thresholds));
    }
    std::optional<ml::RandomForest> forest;
    for (int i = 0; i < 3; ++i) {
      auto s = tracer.begin("ml.train");
      forest = ml::RandomForest::train(data, ml.forest);
    }
    m["ml.train_ms"] = 1e3 * perfbench::median(
                                 perfbench::durations_s(tracer.spans(),
                                                        "ml.train"));
    std::size_t predictions = 0;
    std::size_t sink = 0;
    {
      auto s = tracer.begin("ml.predict");
      for (int pass = 0; pass < 10; ++pass) {
        for (const auto& [point, label] : result.predicted) {
          sink += forest->predict(point.features());
          ++predictions;
        }
      }
    }
    if (predictions > 0) {
      m["ml.predict_us"] =
          1e6 * perfbench::durations_s(tracer.spans(), "ml.predict").back() /
          static_cast<double>(predictions);
    }
    std::printf("ml probe: %zu predictions (checksum %zu)\n", predictions,
                sink);
  }

  const bool correct = checked.correct && probes_ok;

  // Spans are written out once the run ends.
  const fs::path spans_path =
      opt.work_dir / (def.name + ".seed" + std::to_string(opt.seed) +
                      ".spans.json");
  std::ofstream(spans_path) << tracer.to_json();

  std::vector<Metric> metrics;
  std::printf("%-30s %16s %-10s %-22s %-16s %s\n", "metric", "value", "unit",
              "module", "moves", "on workload");
  for (const auto& tag : kLayers) {
    const auto it = m.find(tag.name);
    const double value = it == m.end() ? 0.0 : it->second;
    std::printf("%-30s %16.6g %-10s %-22s %-16s %s\n", tag.name, value,
                tag.unit, tag.module, tag.moves, tag.on);
    metrics.push_back({tag.name, value, tag.unit});
  }
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              spans_path.string().c_str());
  print_result(correct, checked.attempted, checked.failed, metrics);
  return correct ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "refstudy: %s\nusage: refstudy --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference-dir DIR] "
               "[--work-dir DIR] [--write-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      opt.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value != "0";
    } else if (flag == "--reference-dir") {
      opt.reference_dir = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto defs = workload_defs();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == opt.workload;
  });
  if (def == defs.end()) return usage("unknown --workload");
  fs::create_directories(opt.work_dir);
  if (def->pinned_seed) {
    std::printf("%s pins its campaign seed to %llu (--seed %llu unused)\n",
                def->name.c_str(),
                static_cast<unsigned long long>(*def->pinned_seed),
                static_cast<unsigned long long>(opt.seed));
    opt.seed = *def->pinned_seed;
  }

  const auto workload = def->make();
  std::printf("workload %s: %s, %d ranks, %u trials/point, faults %s, passes "
              "%s, isolation %s, snapshots auto, journal %s, seed %llu, %zu "
              "lanes\n",
              def->name.c_str(), def->config.c_str(), def->ranks, def->trials,
              def->fault_models.c_str(), def->passes.c_str(),
              core::to_string(def->isolation), def->journal ? "on" : "off",
              static_cast<unsigned long long>(opt.seed), lanes());
  try {
    if (opt.write_reference) return write_reference(opt, *def, *workload);
    return opt.trace ? traced_run(opt, *def, *workload)
                     : timed_run(opt, *def, *workload);
  } catch (const std::exception& e) {
    std::printf("refstudy: %s\n", e.what());
    return 1;
  }
}
