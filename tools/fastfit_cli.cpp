// fastfit — the command-line front end of the tool.
//
//   fastfit list
//       Bundled workloads, prediction models, fault models.
//
//   fastfit profile <workload> [--ranks N] [--save FILE]
//       Phase 1 only: golden + profiling run, the mpiP-style
//       communication report, and the pruning statistics. --save persists
//       the enumeration (profiling is a one-time cost; Sec IV-B).
//
//   fastfit study <workload> [--ranks N] [--trials T] [--threshold X]
//                 [--fault-models LIST] [--repair on|off] [--no-ml]
//                 [--csv FILE] [--json FILE] [--resume] [--fragment FILE]
//                 [+ the study knobs listed by --help]
//       --fault-models takes comma-separated model[@trigger[=param]]
//       specs (see `fastfit list` and docs/fault_models.md); --repair
//       enables ULFM-style shrink-and-continue after fail-stop death.
//       The full three-phase sensitivity study, with optional CSV/JSON
//       export of the results. Every study knob exists twice — as a
//       --flag and as a FASTFIT_* environment variable — generated from
//       the single table in support/config (config_knobs()); flags win.
//       --journal records every completed trial in a durable journal;
//       --resume continues a killed campaign from it, bit-identically
//       (docs/resilience.md). --passes selects and orders the pruning
//       chain (docs/pipeline.md); --shard i/N runs one deterministic
//       shard of the study and --fragment persists its result for
//       `fastfit merge`. Telemetry sinks are described in
//       docs/observability.md. Independent of telemetry, every study
//       prints the per-outcome trial totals and the campaign health
//       table on stderr.
//
//   fastfit merge [--json FILE] [--csv FILE] [--metrics-out FILE]
//                 FRAGMENT...
//       Merges the --fragment files of a complete sharded study back
//       into one report, bit-identical to the unsharded run (same JSON,
//       same trial counters; docs/pipeline.md). Validates that the
//       fragments belong to one campaign and tile it exactly.
//
//   fastfit p2p <workload> [--ranks N] [--trials T] [--points K]
//                [--fault-models LIST]
//       The point-to-point extension study (Sec VIII future work):
//       pruning statistics and per-parameter response distributions for
//       the workload's send/recv calls. Only parameter-mutation fault
//       models apply; anything else is rejected at parse time with the
//       supported families listed.
//
// Exit codes: 0 clean success, 2 study completed but unhealthy —
// quarantined points (results are partial for those points), 1 fatal
// (usage or execution error).

#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "core/export.hpp"
#include "inject/fault_model.hpp"
#include "core/fastfit.hpp"
#include "core/p2p_study.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/shard.hpp"
#include "ml/classifier.hpp"
#include "profile/queries.hpp"
#include "stats/levels.hpp"
#include "support/config.hpp"
#include "support/format.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/progress_meter.hpp"
#include "telemetry/recorder.hpp"

using namespace fastfit;

namespace {

/// The full usage text. The study-knob section is rendered from
/// config_knobs() — the same table from_environment() reads — so the
/// flag and environment-variable views cannot drift apart.
std::string usage_text() {
  std::string text =
      "usage:\n"
      "  fastfit list\n"
      "  fastfit profile <workload> [--ranks N] [--save FILE]\n"
      "                  [--passes LIST]\n"
      "  fastfit study <workload> [--ranks N] [--trials T]\n"
      "                [--threshold X] [--fault-models LIST]\n"
      "                [--repair on|off] [--no-ml]\n"
      "                [--csv FILE] [--json FILE] [--resume]\n"
      "                [--fragment FILE] [study knobs below]\n"
      "  fastfit merge [--json FILE] [--csv FILE] [--metrics-out FILE]\n"
      "                FRAGMENT...\n"
      "  fastfit p2p <workload> [--ranks N] [--trials T] [--points K]\n"
      "              [--fault-models LIST]  (parameter models only)\n"
      "\n"
      "study knobs (each --flag has an environment-variable alias;\n"
      "flags win):\n";
  for (const auto& knob : config_knobs()) {
    std::string left = "  ";
    if (knob.flag[0] != '\0') {
      left += "--";
      left += knob.flag;
      if (knob.arg[0] != '\0') {
        left += ' ';
        left += knob.arg;
      }
      left += "  (";
      left += knob.env;
      left += ')';
    } else {
      // Table II variables are environment-only, like the original tool.
      left += knob.env;
      if (knob.arg[0] != '\0') {
        left += '=';
        left += knob.arg;
      }
      left += "  (env only)";
    }
    constexpr std::size_t kHelpColumn = 48;
    if (left.size() < kHelpColumn) {
      left.resize(kHelpColumn, ' ');
    } else {
      left += ' ';
    }
    text += left;
    text += knob.help;
    text += '\n';
  }
  return text;
}

int usage() {
  std::fprintf(stderr, "%s", usage_text().c_str());
  return 1;
}

/// Whether `command` accepts --`key`: its own flags, plus every study knob
/// for study. An unknown flag (a typo, or one that was removed) is
/// reported instead of silently ignored.
bool known_flag(const std::string& command, const std::string& key) {
  std::set<std::string> flags;
  if (command == "profile") {
    flags = {"ranks", "save", "passes"};
  } else if (command == "p2p") {
    flags = {"ranks", "trials", "points", "fault-model", "fault-models"};
  } else if (command == "merge") {
    flags = {"json", "csv", "metrics-out"};
  } else {
    flags = {"ranks", "trials", "threshold", "fault-model", "fault-models",
             "repair", "no-ml", "csv", "json", "resume", "fragment"};
    for (const auto& knob : config_knobs()) {
      if (knob.flag[0] != '\0') flags.insert(knob.flag);
    }
  }
  if (flags.count(key) > 0) return true;
  std::fprintf(stderr, "error: unknown flag for %s: --%s\n", command.c_str(),
               key.c_str());
  return false;
}

/// Minimal flag parser: --key value pairs plus boolean switches. Only the
/// flags `command` accepts are allowed.
struct Args {
  std::map<std::string, std::string> values;
  bool parse(int argc, char** argv, int first, const std::string& command) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) return false;
      key = key.substr(2);
      if (!known_flag(command, key)) return false;
      if (key == "no-ml" || key == "resume" || key == "progress") {
        values[key] = "1";
      } else {
        if (i + 1 >= argc) return false;
        values[key] = argv[++i];
      }
    }
    return true;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return values.count(key) > 0; }
};

/// The whole of --`key`'s value (or `fallback`) as a number in [lo, hi].
/// A value with trailing characters, or out of range, is a ConfigError
/// rather than the prefix std::atoi or std::atof would read.
template <class T>
T number_flag(const Args& args, const std::string& key,
              const std::string& fallback, T lo, T hi) {
  const std::string text = args.get(key, fallback);
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    std::ostringstream range;
    range << '[' << lo << ", " << hi << ']';
    throw ConfigError("--" + key + ": expected a number in " + range.str() +
                      ", got '" + text + "'");
  }
  return value;
}

int ranks_flag(const Args& args) {
  return number_flag(args, "ranks", "16", 1,
                     std::numeric_limits<int>::max());
}

/// --repair on|off (also accepts the knob table's 0|1).
bool parse_repair(const std::string& value) {
  if (value == "on" || value == "1") return true;
  if (value == "off" || value == "0") return false;
  throw ConfigError("--repair: expected on|off, got '" + value + "'");
}

int cmd_list() {
  std::printf("workloads:      %s\n",
              join(apps::workload_names(), ", ").c_str());
  std::printf("models:         %s\n",
              join(ml::classifier_names(), ", ").c_str());
  std::string fault_models;
  for (std::size_t m = 0; m < inject::kNumFaultModels; ++m) {
    if (m) fault_models += ", ";
    fault_models += to_string(static_cast<inject::FaultModel>(m));
  }
  std::printf("fault models:   %s\n", fault_models.c_str());
  std::string triggers;
  for (std::size_t t = 0; t < inject::kNumFaultTriggers; ++t) {
    if (t) triggers += ", ";
    triggers += to_string(static_cast<inject::FaultTrigger>(t));
  }
  std::printf("fault triggers: %s  (spec: model[@trigger[=param]])\n",
              triggers.c_str());
  return 0;
}

/// Resolves the pruning-pass chain from --passes / FASTFIT_PASSES
/// (flag wins). Empty result = the default chain.
std::vector<std::string> resolve_passes(const Args& args,
                                        const InjectionConfig& env) {
  std::string passes = env.passes;
  if (args.has("passes")) passes = args.get("passes", "");
  if (passes.empty()) return {};
  return core::parse_pass_list(passes);
}

int cmd_profile(const std::string& workload_name, const Args& args) {
  const auto workload = apps::make_workload(workload_name);
  core::StudyOptions options;
  options.campaign.nranks = ranks_flag(args);
  options.use_ml = false;
  options.passes = resolve_passes(args, InjectionConfig::from_environment());
  core::StudyDriver driver(*workload, std::move(options));
  driver.profile();
  auto& campaign = driver.campaign();

  std::printf("%s\n", profile::mpip_report(campaign.profiler()).c_str());
  const auto& s = campaign.stats();
  std::printf("equivalence classes: %zu of %d ranks\n",
              s.equivalence_classes, s.nranks);
  std::printf("injection points:    %llu total -> %llu after semantic "
              "pruning (%s) -> %llu after context pruning (%s)\n",
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str());
  if (args.has("save")) {
    core::write_file(args.get("save", ""),
                     core::to_text(campaign.enumeration()));
    std::printf("saved enumeration to %s\n", args.get("save", "").c_str());
  }
  return 0;
}

/// The study knobs as one InjectionConfig: the CLI's defaults, replaced by
/// any knob variable that is set, replaced in turn by the knob's --flag.
/// One parser (InjectionConfig::from_map) validates all three.
InjectionConfig study_config(const Args& args) {
  std::map<std::string, std::string> kv = {{"NUM_INJ", "12"},
                                           {"FASTFIT_SEED", "258398418711"}};
  for (const auto& knob : config_knobs()) {
    if (const char* value = std::getenv(knob.env)) kv[knob.env] = value;
    if (knob.flag[0] != '\0' && args.has(knob.flag)) {
      kv[knob.env] = args.get(knob.flag, "");
    }
  }
  if (args.has("trials")) kv["NUM_INJ"] = args.get("trials", "");
  // --fault-model is the single-model spelling of --fault-models.
  if (args.has("fault-model") && !args.has("fault-models")) {
    kv["FASTFIT_FAULT_MODELS"] = args.get("fault-model", "");
  }
  if (args.has("repair")) {
    kv["FASTFIT_REPAIR"] = parse_repair(args.get("repair", "")) ? "1" : "0";
  }
  return InjectionConfig::from_map(kv);
}

int cmd_study(const std::string& workload_name, const Args& args) {
  const auto workload = apps::make_workload(workload_name);
  const auto cfg = study_config(args);
  // The Table II target ids pick the one hand-driven point of
  // examples/quickstart; a study enumerates its own points, so a set id
  // is refused rather than ignored.
  const std::pair<const char*, bool> targets[] = {
      {"INV_ID", cfg.inv_id.has_value()},
      {"RANK_ID", cfg.rank_id.has_value()},
      {"PARAM_ID", cfg.param_id.has_value()}};
  for (const auto& [key, set] : targets) {
    if (set) {
      throw ConfigError(std::string(key) +
                        ": selects a single point (examples/quickstart); "
                        "fastfit study enumerates its own points");
    }
  }
  // The paper's CALL_ID is no knob at all (a call site is a hashed
  // site_id), so the knob table never reads it; refuse it all the same.
  if (std::getenv("CALL_ID") != nullptr) {
    throw ConfigError(
        "CALL_ID: removed key (a call site is named by its hashed site_id); "
        "fastfit study enumerates its own points");
  }
  if (cfg.num_inj > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("--trials: " + std::to_string(cfg.num_inj) +
                      " exceeds the per-point trial limit");
  }
  core::FastFitOptions options;
  options.campaign.nranks = ranks_flag(args);
  options.campaign.trials_per_point =
      static_cast<std::uint32_t>(cfg.num_inj);
  options.campaign.seed = cfg.seed;
  options.campaign.max_parallel_trials =
      static_cast<std::size_t>(cfg.parallel_trials);
  options.use_ml = !args.has("no-ml");
  options.ml.accuracy_threshold =
      number_flag(args, "threshold", "0.65", 0.0, 1.0);

  // Fault-model axis: empty = the default exact-point single bit flip
  // (pre-v2 behaviour, byte for byte).
  if (!cfg.fault_models.empty()) {
    options.campaign.fault_models =
        inject::parse_fault_models(cfg.fault_models);
  }
  options.campaign.repair = cfg.repair;
  // Trial isolation backend: thread (default, in-process) or process
  // (fork-server workers — required for the real-signal fault models,
  // which Campaign enforces at construction).
  options.campaign.isolation = core::parse_isolation_mode(cfg.isolation);
  options.campaign.snapshots = core::parse_snapshot_mode(cfg.snapshots);

  options.journal = cfg.journal;
  options.campaign.max_trial_retries =
      static_cast<std::uint32_t>(cfg.max_trial_retries);
  options.resume = args.has("resume");
  if (options.resume && options.journal.empty()) {
    throw ConfigError("--resume requires --journal (or FASTFIT_JOURNAL)");
  }

  // Pipeline selection: the pruning chain and the deterministic shard.
  if (!cfg.passes.empty()) options.passes = core::parse_pass_list(cfg.passes);
  if (!cfg.shard.empty()) options.campaign.shard = core::parse_shard(cfg.shard);
  if (options.campaign.shard.sharded() && options.use_ml &&
      options.passes.empty()) {
    // A sharded study needs a static point set; rather than erroring on
    // the CLI's use_ml default, drop the ML stage the way --no-ml would.
    // An explicit "--passes ...,ml" together with --shard still errors.
    std::fprintf(stderr,
                 "note: --shard implies --no-ml (the ML stage resolves "
                 "points adaptively)\n");
    options.use_ml = false;
  }

  // Telemetry sinks: any sink enables the recorder (it is off — and free —
  // otherwise).
  const std::string& trace_out = cfg.trace_out;
  const std::string& metrics_out = cfg.metrics_out;
  const bool telemetry_on = cfg.telemetry_requested();
  auto& recorder = telemetry::Recorder::instance();
  std::unique_ptr<telemetry::ProgressMeter> meter;
  if (telemetry_on) {
    recorder.enable();
    telemetry::Recorder::bind_thread(telemetry::Track::Main, -1,
                                     "campaign-main");
    if (cfg.progress || (cfg.metrics_interval_ms > 0 && !metrics_out.empty())) {
      telemetry::ProgressMeter::Options meter_opts;
      meter_opts.live_line = cfg.progress;
      meter_opts.metrics_path = metrics_out;
      meter_opts.metrics_interval =
          std::chrono::milliseconds(cfg.metrics_interval_ms);
      meter = std::make_unique<telemetry::ProgressMeter>(meter_opts);
    }
  }

  core::FastFit study(*workload, options);
  const auto result = study.run();
  if (meter) meter->stop();

  const auto& s = result.stats;
  std::printf("pruning: %llu -> %llu (%s) -> %llu (%s); ML predicted %s; "
              "total reduction %s\n\n",
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str(),
              percent(result.ml_reduction).c_str(),
              percent(result.total_reduction()).c_str());

  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto kind : core::kinds_present(result.measured)) {
    rows.emplace_back(mpi::to_string(kind),
                      core::outcome_distribution(result.measured, kind));
  }
  rows.emplace_back("ALL", core::outcome_distribution(result.measured));
  std::printf("%s\n",
              core::render_outcome_table(rows, result.extended_outcomes)
                  .c_str());
  std::printf("%s", core::render_health(result.health).c_str());

  // Always-on stderr report: outcome totals + health, telemetry or not —
  // a campaign's counts must never be only an exit code.
  std::fprintf(stderr, "%s%s",
               core::render_outcome_totals(result.measured).c_str(),
               core::render_health(result.health).c_str());

  if (telemetry_on) {
    if (!trace_out.empty()) {
      const auto trace = telemetry::to_chrome_trace(
          recorder.drain_events(), recorder.bound_threads());
      if (telemetry::write_text_file(trace_out, trace)) {
        std::printf("wrote %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "error: failed to write trace: %s\n",
                     trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      const auto snapshot = recorder.metrics();
      const bool json = metrics_out.size() >= 5 &&
                        metrics_out.rfind(".json") == metrics_out.size() - 5;
      const auto text = json ? telemetry::to_metrics_json(snapshot)
                             : telemetry::to_prometheus(snapshot);
      if (telemetry::write_text_file(metrics_out, text)) {
        std::printf("wrote %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "error: failed to write metrics: %s\n",
                     metrics_out.c_str());
      }
    }
  }

  if (args.has("csv")) {
    core::write_file(args.get("csv", ""),
                     core::to_csv(result.measured, result.extended_outcomes));
    std::printf("wrote %s\n", args.get("csv", "").c_str());
  }
  if (args.has("json")) {
    core::write_file(args.get("json", ""), core::to_json(result));
    std::printf("wrote %s\n", args.get("json", "").c_str());
  }
  if (args.has("fragment")) {
    core::write_file(args.get("fragment", ""),
                     core::to_shard_fragment(result));
    std::printf("wrote %s\n", args.get("fragment", "").c_str());
  }
  return result.health.clean() ? 0 : 2;
}

/// Reads a whole file, throwing ConfigError on I/O failure (the merge
/// counterpart of core::write_file).
std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read fragment: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw ConfigError("error reading fragment: " + path);
  }
  return buffer.str();
}

int cmd_merge(int argc, char** argv) {
  // Fragment paths are positional; Args only understands --key value
  // pairs, so parse the mix by hand.
  Args args;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc || !known_flag("merge", arg.substr(2))) {
        return usage();
      }
      args.values[arg.substr(2)] = argv[++i];
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "error: merge needs at least one fragment file\n");
    return usage();
  }

  std::vector<std::string> fragments;
  fragments.reserve(paths.size());
  for (const auto& path : paths) fragments.push_back(read_text_file(path));
  const auto result = core::merge_fragments(fragments);

  const auto& s = result.stats;
  std::printf("merged %zu fragments: %llu -> %llu (%s) -> %llu (%s), "
              "%zu measured points\n\n",
              fragments.size(),
              static_cast<unsigned long long>(s.total_points),
              static_cast<unsigned long long>(s.after_semantic),
              percent(s.semantic_reduction()).c_str(),
              static_cast<unsigned long long>(s.after_context),
              percent(s.context_reduction()).c_str(),
              result.measured.size());
  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto kind : core::kinds_present(result.measured)) {
    rows.emplace_back(mpi::to_string(kind),
                      core::outcome_distribution(result.measured, kind));
  }
  rows.emplace_back("ALL", core::outcome_distribution(result.measured));
  std::printf("%s\n",
              core::render_outcome_table(rows, result.extended_outcomes)
                  .c_str());
  std::printf("%s", core::render_health(result.health).c_str());

  if (args.has("json")) {
    core::write_file(args.get("json", ""), core::to_json(result));
    std::printf("wrote %s\n", args.get("json", "").c_str());
  }
  if (args.has("csv")) {
    core::write_file(args.get("csv", ""),
                     core::to_csv(result.measured, result.extended_outcomes));
    std::printf("wrote %s\n", args.get("csv", "").c_str());
  }
  if (args.has("metrics-out")) {
    // Synthesize the trial counters a single-process run would have
    // reported, so merged metrics diff cleanly against an unsharded
    // run's snapshot. Same names, help, and labels as TelemetrySink.
    const std::string metrics_out = args.get("metrics-out", "");
    auto& recorder = telemetry::Recorder::instance();
    recorder.enable();
    std::array<std::uint64_t, inject::kNumOutcomes> totals{};
    for (const auto& point : result.measured) {
      for (std::size_t o = 0; o < inject::kNumOutcomes; ++o) {
        totals[o] += point.counts[o];
      }
    }
    for (std::size_t o = 0;
         o < inject::active_outcomes(result.extended_outcomes); ++o) {
      const std::string labels =
          "outcome=\"" +
          std::string(inject::to_string(static_cast<inject::Outcome>(o))) +
          '"';
      recorder
          .counter("fastfit_trials_total",
                   "Trial outcomes recorded (incl. journal replays)", labels)
          .add(totals[o]);
    }
    if (result.health.replayed_trials > 0) {
      recorder
          .counter("fastfit_trials_replayed_total",
                   "Trials served from the journal")
          .add(result.health.replayed_trials);
    }
    if (result.health.quarantined_points > 0) {
      recorder
          .counter("fastfit_quarantined_points_total",
                   "Points the trial guard gave up on")
          .add(result.health.quarantined_points);
    }
    const auto snapshot = recorder.metrics();
    const bool json = metrics_out.size() >= 5 &&
                      metrics_out.rfind(".json") == metrics_out.size() - 5;
    const auto text = json ? telemetry::to_metrics_json(snapshot)
                           : telemetry::to_prometheus(snapshot);
    if (telemetry::write_text_file(metrics_out, text)) {
      std::printf("wrote %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write metrics: %s\n",
                   metrics_out.c_str());
    }
  }
  return result.health.clean() ? 0 : 2;
}

int cmd_p2p(const std::string& workload_name, const Args& args) {
  const auto workload = apps::make_workload(workload_name);
  core::StudyOptions options;
  options.campaign.nranks = ranks_flag(args);
  const auto trials = number_flag<std::uint32_t>(
      args, "trials", "8", 1, std::numeric_limits<std::uint32_t>::max());
  options.campaign.trials_per_point = trials;
  options.use_ml = false;

  // Fail fast on the fault-model axis: the p2p injector only has
  // parameter manifestations, so reject anything else here at parse
  // time — with the supported families spelled out — instead of letting
  // measure_p2p throw mid-study after the profiling run.
  const auto env = InjectionConfig::from_environment();
  std::string fault_models = env.fault_models;
  if (args.has("fault-model")) fault_models = args.get("fault-model", "");
  if (args.has("fault-models")) fault_models = args.get("fault-models", "");
  if (!fault_models.empty()) {
    const auto specs = inject::parse_fault_models(fault_models);
    for (const auto& spec : specs) {
      if (!inject::is_parameter_model(spec.model)) {
        throw ConfigError(
            "p2p: fault model '" + spec.canonical() +
            "' has no point-to-point parameter manifestation; supported "
            "families: " +
            inject::parameter_fault_model_names());
      }
    }
    options.campaign.fault_models = specs;
  }

  core::StudyDriver driver(*workload, std::move(options));
  driver.profile();
  auto& campaign = driver.campaign();

  const auto e = core::enumerate_p2p_points(campaign.profiler());
  std::printf("p2p exploration space: %llu -> %llu (semantic) -> %llu "
              "(context)\n",
              static_cast<unsigned long long>(e.stats.total_points),
              static_cast<unsigned long long>(e.stats.after_semantic),
              static_cast<unsigned long long>(e.stats.after_context));
  if (e.points.empty()) {
    std::printf("%s uses no point-to-point communication\n",
                workload_name.c_str());
    return 0;
  }
  auto points = e.points;
  const auto cap = number_flag<std::size_t>(
      args, "points", "60", 0, std::numeric_limits<std::size_t>::max());
  if (points.size() > cap) points.resize(cap);
  std::vector<core::P2pPointResult> results;
  for (const auto& point : points) {
    results.push_back(core::measure_p2p(campaign, point, trials));
  }
  std::vector<std::pair<std::string,
                        std::array<double, inject::kNumOutcomes>>>
      rows;
  for (auto param : {mpi::P2pParam::Buffer, mpi::P2pParam::Count,
                     mpi::P2pParam::Datatype, mpi::P2pParam::Peer,
                     mpi::P2pParam::Tag}) {
    rows.emplace_back(
        to_string(param),
        core::p2p_outcome_distribution(results, std::nullopt, param));
  }
  std::printf("%s", core::render_outcome_table(rows).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "-h" || command == "help") {
      std::printf("%s", usage_text().c_str());
      return 0;
    }
    if (command == "list") return cmd_list();
    if (command == "merge") return cmd_merge(argc, argv);
    if (command == "profile" || command == "study" || command == "p2p") {
      if (argc < 3) return usage();
      Args args;
      if (!args.parse(argc, argv, 3, command)) return usage();
      if (command == "profile") return cmd_profile(argv[2], args);
      if (command == "p2p") return cmd_p2p(argv[2], args);
      return cmd_study(argv[2], args);
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Internal failures inside trials are retried and quarantined by the
    // campaign itself (exit 2 via cmd_study); anything that escapes to
    // here is fatal.
    std::fprintf(stderr, "execution failed: %s\n", e.what());
    return 1;
  }
}
