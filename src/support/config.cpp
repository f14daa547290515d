#include "support/config.hpp"

#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace fastfit {
namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& value,
                        std::uint64_t max_value) {
  if (value.empty()) throw ConfigError(key + ": empty value");
  std::uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      throw ConfigError(key + ": not a non-negative integer: '" + value + "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw ConfigError(key + ": value overflows: '" + value + "'");
    }
    out = out * 10 + digit;
  }
  if (out > max_value) {
    throw ConfigError(key + ": value " + value + " exceeds limit " +
                      std::to_string(max_value));
  }
  return out;
}

// The single source of truth for knob names: from_environment() reads
// these variables, the CLI renders this table into --help. Adding a knob
// here makes it visible in both places at once.
constexpr ConfigKnob kKnobs[] = {
    {"NUM_INJ", "", "N", "trials per injection point (paper Table II)"},
    {"INV_ID", "", "ID",
     "target invocation id (Table II; quickstart only, study refuses it)"},
    {"RANK_ID", "", "ID",
     "target rank id (Table II; quickstart only, study refuses it)"},
    {"PARAM_ID", "", "ID",
     "target parameter id (Table II; quickstart only, study refuses it)"},
    {"FASTFIT_SEED", "seed", "S", "campaign master seed"},
    {"FASTFIT_PARALLEL_TRIALS", "parallel-trials", "P",
     "max concurrent trials (0 = auto, 1 = serial)"},
    {"FASTFIT_JOURNAL", "journal", "FILE",
     "durable trial journal (continue with --resume)"},
    {"FASTFIT_MAX_TRIAL_RETRIES", "max-trial-retries", "R",
     "internal-failure retries before a point is quarantined"},
    {"FASTFIT_SHARD", "shard", "i/N",
     "run deterministic shard i of N (merge with 'fastfit merge')"},
    {"FASTFIT_PASSES", "passes", "LIST",
     "pruning chain, comma-separated (semantic,context[,ml])"},
    {"FASTFIT_FAULT_MODELS", "fault-models", "LIST",
     "fault models, comma-separated model[@trigger[=param]] specs"},
    {"FASTFIT_REPAIR", "repair", "0|1",
     "ULFM-style shrink-and-continue after rank death (default off)"},
    {"FASTFIT_ISOLATION", "isolation", "thread|process",
     "trial backend: in-process threads or fork-server workers"},
    {"FASTFIT_SNAPSHOTS", "snapshots", "off|auto",
     "skip the fault-free prefix: replay it (thread) or fork at the cut "
     "(process) (default auto)"},
    {"FASTFIT_TRACE", "trace-out", "FILE",
     "Chrome trace-event JSON of the trial lifecycle"},
    {"FASTFIT_METRICS", "metrics-out", "FILE",
     "metrics snapshot (.json = JSON, else Prometheus text)"},
    {"FASTFIT_PROGRESS", "progress", "",
     "live one-line progress report on stderr"},
    {"FASTFIT_METRICS_INTERVAL_MS", "metrics-interval-ms", "MS",
     "periodic metrics re-export (0 = only at campaign end)"},
};

}  // namespace

std::span<const ConfigKnob> config_knobs() { return kKnobs; }

InjectionConfig InjectionConfig::from_map(
    const std::map<std::string, std::string>& kv) {
  InjectionConfig cfg;
  for (const auto& [key, value] : kv) {
    if (key == "NUM_INJ") {
      cfg.num_inj = parse_u64(key, value,
                              std::numeric_limits<std::uint64_t>::max());
      if (cfg.num_inj == 0) throw ConfigError("NUM_INJ: must be positive");
    } else if (key == "INV_ID") {
      // The paper allots 3 decimal digits to INV_ID.
      cfg.inv_id = static_cast<std::uint32_t>(parse_u64(key, value, 999));
    } else if (key == "RANK_ID") {
      cfg.rank_id = static_cast<std::uint32_t>(
          parse_u64(key, value, std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "PARAM_ID") {
      cfg.param_id = static_cast<std::uint8_t>(parse_u64(key, value, 9));
    } else if (key == "FASTFIT_SEED") {
      cfg.seed = parse_u64(key, value,
                           std::numeric_limits<std::uint64_t>::max());
    } else if (key == "FASTFIT_PARALLEL_TRIALS") {
      // Generous ceiling: campaigns beyond a few thousand concurrent
      // Worlds are a configuration mistake, not a machine.
      cfg.parallel_trials = parse_u64(key, value, 4096);
    } else if (key == "FASTFIT_JOURNAL") {
      if (value.empty()) throw ConfigError("FASTFIT_JOURNAL: empty path");
      cfg.journal = value;
    } else if (key == "FASTFIT_MAX_TRIAL_RETRIES") {
      cfg.max_trial_retries = parse_u64(key, value, 100);
    } else if (key == "FASTFIT_TRACE") {
      if (value.empty()) throw ConfigError("FASTFIT_TRACE: empty path");
      cfg.trace_out = value;
    } else if (key == "FASTFIT_METRICS") {
      if (value.empty()) throw ConfigError("FASTFIT_METRICS: empty path");
      cfg.metrics_out = value;
    } else if (key == "FASTFIT_PROGRESS") {
      cfg.progress = parse_u64(key, value, 1) != 0;
    } else if (key == "FASTFIT_METRICS_INTERVAL_MS") {
      // One hour ceiling: longer intervals mean "at campaign end", which
      // is what 0 already requests.
      cfg.metrics_interval_ms = parse_u64(key, value, 3'600'000);
    } else if (key == "FASTFIT_SHARD") {
      if (value.empty()) throw ConfigError("FASTFIT_SHARD: empty value");
      cfg.shard = value;
    } else if (key == "FASTFIT_PASSES") {
      if (value.empty()) throw ConfigError("FASTFIT_PASSES: empty value");
      cfg.passes = value;
    } else if (key == "FASTFIT_FAULT_MODELS") {
      if (value.empty()) throw ConfigError("FASTFIT_FAULT_MODELS: empty value");
      cfg.fault_models = value;
    } else if (key == "FASTFIT_REPAIR") {
      cfg.repair = parse_u64(key, value, 1) != 0;
    } else if (key == "FASTFIT_ISOLATION") {
      if (value != "thread" && value != "process") {
        throw ConfigError(
            "FASTFIT_ISOLATION: must be one of thread|process, got '" +
            value + "'");
      }
      cfg.isolation = value;
    } else if (key == "FASTFIT_SNAPSHOTS") {
      if (value != "off" && value != "auto") {
        throw ConfigError(
            "FASTFIT_SNAPSHOTS: must be one of off|auto, got '" + value +
            "'" +
            (value == "on" ? " ('on' was removed: 'auto' reruns a diverged "
                             "trial from scratch)"
                           : ""));
      }
      cfg.snapshots = value;
    } else {
      throw ConfigError("unknown configuration key: " + key);
    }
  }
  return cfg;
}

InjectionConfig InjectionConfig::from_environment() {
  std::map<std::string, std::string> kv;
  for (const auto& knob : config_knobs()) {
    if (const char* value = std::getenv(knob.env)) kv.emplace(knob.env, value);
  }
  return from_map(kv);
}

std::map<std::string, std::string> InjectionConfig::to_map() const {
  std::map<std::string, std::string> kv;
  kv["NUM_INJ"] = std::to_string(num_inj);
  if (inv_id) kv["INV_ID"] = std::to_string(*inv_id);
  if (rank_id) kv["RANK_ID"] = std::to_string(*rank_id);
  if (param_id) kv["PARAM_ID"] = std::to_string(*param_id);
  kv["FASTFIT_SEED"] = std::to_string(seed);
  if (parallel_trials != 0) {
    kv["FASTFIT_PARALLEL_TRIALS"] = std::to_string(parallel_trials);
  }
  if (!journal.empty()) kv["FASTFIT_JOURNAL"] = journal;
  if (max_trial_retries != 2) {
    kv["FASTFIT_MAX_TRIAL_RETRIES"] = std::to_string(max_trial_retries);
  }
  if (!trace_out.empty()) kv["FASTFIT_TRACE"] = trace_out;
  if (!metrics_out.empty()) kv["FASTFIT_METRICS"] = metrics_out;
  if (progress) kv["FASTFIT_PROGRESS"] = "1";
  if (metrics_interval_ms != 0) {
    kv["FASTFIT_METRICS_INTERVAL_MS"] = std::to_string(metrics_interval_ms);
  }
  if (!shard.empty()) kv["FASTFIT_SHARD"] = shard;
  if (!passes.empty()) kv["FASTFIT_PASSES"] = passes;
  if (!fault_models.empty()) kv["FASTFIT_FAULT_MODELS"] = fault_models;
  if (repair) kv["FASTFIT_REPAIR"] = "1";
  if (isolation != "thread") kv["FASTFIT_ISOLATION"] = isolation;
  if (snapshots != "auto") kv["FASTFIT_SNAPSHOTS"] = snapshots;
  return kv;
}

}  // namespace fastfit
