#include "support/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "support/error.hpp"

namespace fastfit {
namespace {

TEST(Config, Defaults) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_EQ(cfg.num_inj, 100u);
  EXPECT_FALSE(cfg.inv_id.has_value());
  EXPECT_FALSE(cfg.rank_id.has_value());
  EXPECT_FALSE(cfg.param_id.has_value());
}

TEST(Config, ParsesAllTableTwoVariables) {
  const auto cfg = InjectionConfig::from_map({{"NUM_INJ", "250"},
                                              {"INV_ID", "17"},
                                              {"RANK_ID", "31"},
                                              {"PARAM_ID", "4"},
                                              {"FASTFIT_SEED", "99"}});
  EXPECT_EQ(cfg.num_inj, 250u);
  EXPECT_EQ(cfg.inv_id, 17u);
  EXPECT_EQ(cfg.rank_id, 31u);
  EXPECT_EQ(cfg.param_id, 4);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(Config, RejectsUnknownKey) {
  EXPECT_THROW(InjectionConfig::from_map({{"BOGUS", "1"}}), ConfigError);
}

TEST(Config, RejectsNonNumeric) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "ten"}}), ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", ""}}), ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "-5"}}), ConfigError);
}

TEST(Config, RejectsZeroTrials) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "0"}}), ConfigError);
}

TEST(Config, EnforcesTableTwoFieldWidths) {
  // The paper allots 3 decimal digits to INV_ID and 1 to PARAM_ID.
  EXPECT_NO_THROW(InjectionConfig::from_map({{"INV_ID", "999"}}));
  EXPECT_THROW(InjectionConfig::from_map({{"INV_ID", "1000"}}), ConfigError);
  // CALL_ID is not a knob: a call site is named by its hashed site_id,
  // which no 3-digit id can address.
  EXPECT_THROW(InjectionConfig::from_map({{"CALL_ID", "7"}}), ConfigError);
  EXPECT_NO_THROW(InjectionConfig::from_map({{"PARAM_ID", "9"}}));
  EXPECT_THROW(InjectionConfig::from_map({{"PARAM_ID", "10"}}), ConfigError);
}

TEST(Config, RejectsOverflow) {
  EXPECT_THROW(InjectionConfig::from_map({{"NUM_INJ", "99999999999999999999"}}),
               ConfigError);
}

TEST(Config, RoundTripsThroughMap) {
  auto cfg = InjectionConfig::from_map(
      {{"NUM_INJ", "50"}, {"RANK_ID", "7"}, {"PARAM_ID", "2"}});
  const auto cfg2 = InjectionConfig::from_map(cfg.to_map());
  EXPECT_EQ(cfg2.num_inj, 50u);
  EXPECT_EQ(cfg2.rank_id, 7u);
  EXPECT_EQ(cfg2.param_id, 2);
  EXPECT_FALSE(cfg2.inv_id.has_value());
}

TEST(Config, ParallelTrialsDefaultsToAuto) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_EQ(cfg.parallel_trials, 0u);  // 0 = auto-sized pool
}

TEST(Config, ParsesAndValidatesParallelTrials) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "4"}});
  EXPECT_EQ(cfg.parallel_trials, 4u);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "-1"}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "two"}}),
               ConfigError);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "5000"}}),
      ConfigError);
}

TEST(Config, ParallelTrialsRoundTripsThroughMap) {
  auto cfg = InjectionConfig::from_map({{"FASTFIT_PARALLEL_TRIALS", "8"}});
  const auto cfg2 = InjectionConfig::from_map(cfg.to_map());
  EXPECT_EQ(cfg2.parallel_trials, 8u);
  // The auto default is not emitted, keeping Table II maps minimal.
  EXPECT_EQ(InjectionConfig{}.to_map().count("FASTFIT_PARALLEL_TRIALS"), 0u);
}

TEST(Config, ResilienceKnobDefaults) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_TRUE(cfg.journal.empty());       // no journal unless asked for
  EXPECT_EQ(cfg.max_trial_retries, 2u);
}

TEST(Config, ParsesJournalPath) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_JOURNAL", "/tmp/run.jsonl"}});
  EXPECT_EQ(cfg.journal, "/tmp/run.jsonl");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_JOURNAL", ""}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesMaxTrialRetries) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "0"}});
  EXPECT_EQ(cfg.max_trial_retries, 0u);  // 0 = quarantine on first failure
  EXPECT_EQ(InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "100"}})
                .max_trial_retries,
            100u);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "101"}}),
      ConfigError);
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_MAX_TRIAL_RETRIES", "many"}}),
      ConfigError);
}

TEST(Config, ResilienceKnobsRoundTripThroughMap) {
  auto cfg = InjectionConfig::from_map({{"FASTFIT_JOURNAL", "j.jsonl"},
                                        {"FASTFIT_MAX_TRIAL_RETRIES", "5"}});
  const auto cfg2 = InjectionConfig::from_map(cfg.to_map());
  EXPECT_EQ(cfg2.journal, "j.jsonl");
  EXPECT_EQ(cfg2.max_trial_retries, 5u);
  // Defaults are not emitted, matching the FASTFIT_PARALLEL_TRIALS pattern.
  const auto defaults = InjectionConfig{}.to_map();
  EXPECT_EQ(defaults.count("FASTFIT_JOURNAL"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_MAX_TRIAL_RETRIES"), 0u);
}

TEST(Config, ResilienceKnobsReadFromEnvironment) {
  ::setenv("FASTFIT_JOURNAL", "/tmp/env.jsonl", 1);
  ::setenv("FASTFIT_MAX_TRIAL_RETRIES", "7", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.journal, "/tmp/env.jsonl");
  EXPECT_EQ(cfg.max_trial_retries, 7u);
  ::unsetenv("FASTFIT_JOURNAL");
  ::unsetenv("FASTFIT_MAX_TRIAL_RETRIES");
}

// Hang verdicts count logical steps, so the wall-clock watchdog's knobs are
// gone: deadlock detection is always on and there is no escalation to tune.
// The four tests below keep the names of the knobs' old tests and check that
// a stale setting fails loudly instead of being silently ignored.

TEST(Config, HangDetectionKnobDefaultsOnAndParses) {
  for (const char* value : {"0", "1", "2", "on"}) {
    try {
      InjectionConfig::from_map({{"FASTFIT_HANG_DETECTION", value}});
      ADD_FAILURE() << "FASTFIT_HANG_DETECTION=" << value << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("FASTFIT_HANG_DETECTION"),
                std::string::npos)
          << e.what();
    }
  }
  for (const auto& knob : config_knobs()) {
    EXPECT_STRNE(knob.env, "FASTFIT_HANG_DETECTION");
    EXPECT_STRNE(knob.flag, "hang-detection");
  }
}

TEST(Config, ParsesAndValidatesWatchdogEscalation) {
  for (const char* value : {"8", "1", "0", "65"}) {
    try {
      InjectionConfig::from_map({{"FASTFIT_WATCHDOG_ESCALATION", value}});
      ADD_FAILURE() << "FASTFIT_WATCHDOG_ESCALATION=" << value
                    << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("FASTFIT_WATCHDOG_ESCALATION"),
                std::string::npos)
          << e.what();
    }
  }
  for (const auto& knob : config_knobs()) {
    EXPECT_STRNE(knob.env, "FASTFIT_WATCHDOG_ESCALATION");
    EXPECT_STRNE(knob.flag, "watchdog-escalation");
  }
}

TEST(Config, TeardownKnobsRoundTripThroughMap) {
  // to_map() emits neither removed key, so a map written by this build
  // always parses again.
  const auto cfg = InjectionConfig::from_map(
      {{"FASTFIT_MAX_TRIAL_RETRIES", "5"}, {"FASTFIT_REPAIR", "1"}});
  const auto kv = cfg.to_map();
  EXPECT_EQ(kv.count("FASTFIT_HANG_DETECTION"), 0u);
  EXPECT_EQ(kv.count("FASTFIT_WATCHDOG_ESCALATION"), 0u);
  EXPECT_EQ(InjectionConfig::from_map(kv).to_map(), kv);
  const auto defaults = InjectionConfig{}.to_map();
  EXPECT_EQ(defaults.count("FASTFIT_HANG_DETECTION"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_WATCHDOG_ESCALATION"), 0u);
}

TEST(Config, TeardownKnobsReadFromEnvironment) {
  // from_environment() reads only the knob table, so the removed variables
  // left in a shell's environment change nothing.
  ::setenv("FASTFIT_HANG_DETECTION", "0", 1);
  ::setenv("FASTFIT_WATCHDOG_ESCALATION", "0", 1);
  const auto cfg = InjectionConfig::from_environment();
  ::unsetenv("FASTFIT_HANG_DETECTION");
  ::unsetenv("FASTFIT_WATCHDOG_ESCALATION");
  EXPECT_EQ(cfg.to_map(), InjectionConfig::from_environment().to_map());
}

TEST(Config, TelemetryKnobDefaultsAreOff) {
  const auto cfg = InjectionConfig::from_map({});
  EXPECT_TRUE(cfg.trace_out.empty());
  EXPECT_TRUE(cfg.metrics_out.empty());
  EXPECT_FALSE(cfg.progress);
  EXPECT_EQ(cfg.metrics_interval_ms, 0u);
  EXPECT_FALSE(cfg.telemetry_requested());
}

TEST(Config, ParsesTelemetryPathsAndRejectsEmpty) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_TRACE", "trace.json"},
                                 {"FASTFIT_METRICS", "metrics.prom"}});
  EXPECT_EQ(cfg.trace_out, "trace.json");
  EXPECT_EQ(cfg.metrics_out, "metrics.prom");
  EXPECT_TRUE(cfg.telemetry_requested());
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_TRACE", ""}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_METRICS", ""}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesProgressFlag) {
  EXPECT_TRUE(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "1"}}).progress);
  EXPECT_FALSE(
      InjectionConfig::from_map({{"FASTFIT_PROGRESS", "0"}}).progress);
  EXPECT_TRUE(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "1"}})
                  .telemetry_requested());
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "2"}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PROGRESS", "yes"}}),
               ConfigError);
}

TEST(Config, ParsesAndValidatesMetricsInterval) {
  EXPECT_EQ(InjectionConfig::from_map({{"FASTFIT_METRICS_INTERVAL_MS", "500"}})
                .metrics_interval_ms,
            500u);
  // Beyond one hour means "at campaign end", which 0 already requests.
  EXPECT_THROW(
      InjectionConfig::from_map({{"FASTFIT_METRICS_INTERVAL_MS", "3600001"}}),
      ConfigError);
}

TEST(Config, TelemetryKnobsRoundTripThroughMap) {
  auto cfg = InjectionConfig::from_map(
      {{"FASTFIT_TRACE", "t.json"},
       {"FASTFIT_METRICS", "m.prom"},
       {"FASTFIT_PROGRESS", "1"},
       {"FASTFIT_METRICS_INTERVAL_MS", "250"}});
  const auto cfg2 = InjectionConfig::from_map(cfg.to_map());
  EXPECT_EQ(cfg2.trace_out, "t.json");
  EXPECT_EQ(cfg2.metrics_out, "m.prom");
  EXPECT_TRUE(cfg2.progress);
  EXPECT_EQ(cfg2.metrics_interval_ms, 250u);
  const auto defaults = InjectionConfig{}.to_map();
  EXPECT_EQ(defaults.count("FASTFIT_TRACE"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_METRICS"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_PROGRESS"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_METRICS_INTERVAL_MS"), 0u);
}

TEST(Config, TelemetryKnobsReadFromEnvironment) {
  ::setenv("FASTFIT_TRACE", "/tmp/env-trace.json", 1);
  ::setenv("FASTFIT_PROGRESS", "1", 1);
  ::setenv("FASTFIT_METRICS_INTERVAL_MS", "100", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.trace_out, "/tmp/env-trace.json");
  EXPECT_TRUE(cfg.progress);
  EXPECT_EQ(cfg.metrics_interval_ms, 100u);
  ::unsetenv("FASTFIT_TRACE");
  ::unsetenv("FASTFIT_PROGRESS");
  ::unsetenv("FASTFIT_METRICS_INTERVAL_MS");
}

TEST(Config, FromEnvironmentReadsTableTwoNames) {
  ::setenv("NUM_INJ", "33", 1);
  ::setenv("RANK_ID", "5", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.num_inj, 33u);
  EXPECT_EQ(cfg.rank_id, 5u);
  ::unsetenv("NUM_INJ");
  ::unsetenv("RANK_ID");
}

TEST(Config, KnobTableIsCompleteAndConsistent) {
  // Every knob the table advertises must be a key from_map accepts: the
  // table drives both from_environment() and the CLI's --help, so an
  // entry from_map rejects would be a documented lie.
  const std::map<std::string, std::string> sample_values = {
      {"NUM_INJ", "10"},
      {"INV_ID", "1"},
      {"RANK_ID", "1"},
      {"PARAM_ID", "1"},
      {"FASTFIT_SEED", "1"},
      {"FASTFIT_PARALLEL_TRIALS", "1"},
      {"FASTFIT_JOURNAL", "j.jsonl"},
      {"FASTFIT_MAX_TRIAL_RETRIES", "1"},
      {"FASTFIT_SHARD", "1/2"},
      {"FASTFIT_PASSES", "semantic,context"},
      {"FASTFIT_TRACE", "t.json"},
      {"FASTFIT_METRICS", "m.prom"},
      {"FASTFIT_PROGRESS", "1"},
      {"FASTFIT_METRICS_INTERVAL_MS", "100"},
      {"FASTFIT_SNAPSHOTS", "auto"},
      {"FASTFIT_FAULT_MODELS", "single-bit-flip,rank-death"},
      {"FASTFIT_REPAIR", "1"},
      {"FASTFIT_ISOLATION", "process"},
  };
  std::set<std::string> envs;
  std::set<std::string> flags;
  for (const auto& knob : config_knobs()) {
    EXPECT_TRUE(envs.insert(knob.env).second)
        << "duplicate env " << knob.env;
    if (knob.flag[0] != '\0') {
      EXPECT_TRUE(flags.insert(knob.flag).second)
          << "duplicate flag " << knob.flag;
    }
    EXPECT_NE(knob.help[0], '\0') << knob.env << " has no help text";
    const auto sample = sample_values.find(knob.env);
    ASSERT_NE(sample, sample_values.end())
        << "knob " << knob.env << " missing from this test's sample table "
        << "(new knob? add a sample value here)";
    EXPECT_NO_THROW(InjectionConfig::from_map({*sample})) << knob.env;
  }
  // And the reverse: every key from_map accepts is in the table.
  for (const auto& [env, value] : sample_values) {
    EXPECT_TRUE(envs.count(env)) << env << " accepted but not in the table";
  }
}

TEST(Config, IsolationKnobValidates) {
  const auto cfg =
      InjectionConfig::from_map({{"FASTFIT_ISOLATION", "process"}});
  EXPECT_EQ(cfg.isolation, "process");
  EXPECT_EQ(InjectionConfig{}.isolation, "thread");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_ISOLATION", "fork"}}),
               ConfigError);
  // Non-default round-trips through to_map; the default is omitted so
  // pre-existing serialized configs stay byte-identical.
  EXPECT_TRUE(cfg.to_map().count("FASTFIT_ISOLATION"));
  EXPECT_FALSE(InjectionConfig{}.to_map().count("FASTFIT_ISOLATION"));
}

TEST(Config, SnapshotKnobsValidate) {
  const auto cfg = InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "off"}});
  EXPECT_EQ(cfg.snapshots, "off");
  EXPECT_EQ(InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "auto"}}).snapshots,
            "auto");
  EXPECT_EQ(InjectionConfig{}.snapshots, "auto");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "maybe"}}),
               ConfigError);
  // Non-default values round-trip through to_map; defaults are omitted.
  EXPECT_TRUE(cfg.to_map().count("FASTFIT_SNAPSHOTS"));
  EXPECT_FALSE(InjectionConfig{}.to_map().count("FASTFIT_SNAPSHOTS"));
}

TEST(Config, RemovedSnapshotCacheKnobIsRejected) {
  // The cut table holds one entry per injected (site, invocation) and has
  // no budget, and a diverged replay always reruns its trial from
  // scratch: the cache budget and the "on" mode fail loudly instead of
  // being silently ignored.
  try {
    InjectionConfig::from_map({{"FASTFIT_SNAPSHOT_CACHE_MB", "64"}});
    ADD_FAILURE() << "FASTFIT_SNAPSHOT_CACHE_MB was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("FASTFIT_SNAPSHOT_CACHE_MB"),
              std::string::npos)
        << e.what();
  }
  try {
    InjectionConfig::from_map({{"FASTFIT_SNAPSHOTS", "on"}});
    ADD_FAILURE() << "FASTFIT_SNAPSHOTS=on was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'on' was removed"),
              std::string::npos)
        << e.what();
  }
  for (const auto& knob : config_knobs()) {
    EXPECT_STRNE(knob.env, "FASTFIT_SNAPSHOT_CACHE_MB");
    EXPECT_STRNE(knob.flag, "snapshot-cache-mb");
  }
}

TEST(Config, RemovedSnapshotRecordingKnobIsRejected) {
  // The prefix-replay recording lives in memory only, so a stale durable
  // recording path fails loudly instead of being silently ignored.
  try {
    InjectionConfig::from_map({{"FASTFIT_SNAPSHOT_RECORDING", "lu.recording"}});
    ADD_FAILURE() << "FASTFIT_SNAPSHOT_RECORDING was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("FASTFIT_SNAPSHOT_RECORDING"),
              std::string::npos)
        << e.what();
  }
  for (const auto& knob : config_knobs()) {
    EXPECT_STRNE(knob.env, "FASTFIT_SNAPSHOT_RECORDING");
    EXPECT_STRNE(knob.flag, "snapshot-recording");
  }
}

TEST(Config, FaultModelKnobsValidate) {
  const auto cfg = InjectionConfig::from_map({
      {"FASTFIT_FAULT_MODELS", "rank-death@nth=2,message-drop"},
      {"FASTFIT_REPAIR", "1"},
  });
  // Raw text: inject::parse_fault_models owns the grammar.
  EXPECT_EQ(cfg.fault_models, "rank-death@nth=2,message-drop");
  EXPECT_TRUE(cfg.repair);
  EXPECT_EQ(InjectionConfig{}.fault_models, "");
  EXPECT_FALSE(InjectionConfig{}.repair);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_FAULT_MODELS", ""}}),
               ConfigError);
  EXPECT_TRUE(cfg.to_map().count("FASTFIT_FAULT_MODELS"));
  EXPECT_TRUE(cfg.to_map().count("FASTFIT_REPAIR"));
  EXPECT_FALSE(InjectionConfig{}.to_map().count("FASTFIT_FAULT_MODELS"));
  EXPECT_FALSE(InjectionConfig{}.to_map().count("FASTFIT_REPAIR"));
}

TEST(Config, ShardAndPassesAreStoredRaw) {
  // Raw text here; core/shard.hpp and core/pipeline.hpp own the
  // semantics (and the CLI parses through them).
  const auto cfg = InjectionConfig::from_map(
      {{"FASTFIT_SHARD", "2/4"}, {"FASTFIT_PASSES", "context,semantic"}});
  EXPECT_EQ(cfg.shard, "2/4");
  EXPECT_EQ(cfg.passes, "context,semantic");
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_SHARD", ""}}),
               ConfigError);
  EXPECT_THROW(InjectionConfig::from_map({{"FASTFIT_PASSES", ""}}),
               ConfigError);
}

TEST(Config, ShardAndPassesRoundTripThroughMap) {
  auto cfg = InjectionConfig::from_map(
      {{"FASTFIT_SHARD", "1/8"}, {"FASTFIT_PASSES", "semantic"}});
  const auto cfg2 = InjectionConfig::from_map(cfg.to_map());
  EXPECT_EQ(cfg2.shard, "1/8");
  EXPECT_EQ(cfg2.passes, "semantic");
  const auto defaults = InjectionConfig{}.to_map();
  EXPECT_EQ(defaults.count("FASTFIT_SHARD"), 0u);
  EXPECT_EQ(defaults.count("FASTFIT_PASSES"), 0u);
}

TEST(Config, ShardAndPassesReadFromEnvironment) {
  ::setenv("FASTFIT_SHARD", "3/4", 1);
  ::setenv("FASTFIT_PASSES", "semantic,context", 1);
  const auto cfg = InjectionConfig::from_environment();
  EXPECT_EQ(cfg.shard, "3/4");
  EXPECT_EQ(cfg.passes, "semantic,context");
  ::unsetenv("FASTFIT_SHARD");
  ::unsetenv("FASTFIT_PASSES");
}

}  // namespace
}  // namespace fastfit
