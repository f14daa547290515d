// Telemetry exporters: Chrome trace-event JSON well-formedness (parsed
// back with a real JSON parser), Prometheus text exposition format, and
// the JSON metrics snapshot.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "json_check.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/recorder.hpp"
#include "temp_file.hpp"

namespace fastfit::telemetry {
namespace {

using testjson::Node;

Event make_span(const char* name, std::int64_t start, std::int64_t dur,
                Track track, int index, std::string args = {}) {
  Event event;
  event.name = name;
  event.start_us = start;
  event.dur_us = dur;
  event.track = track;
  event.index = index;
  event.args = std::move(args);
  return event;
}

class ExportersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = Recorder::instance();
    rec.enable();
    rec.reset();
  }
  void TearDown() override {
    auto& rec = Recorder::instance();
    rec.reset();
    rec.disable();
  }
};

TEST(TraceTid, LanesMapToStableDisjointTids) {
  EXPECT_EQ(trace_tid(Track::Main, -1), 1);
  EXPECT_EQ(trace_tid(Track::Executor, 0), 100);
  EXPECT_EQ(trace_tid(Track::Executor, 7), 107);
  EXPECT_EQ(trace_tid(Track::Rank, 31), 1031);
  EXPECT_EQ(trace_tid(Track::Monitor, 0), 3000);
  EXPECT_EQ(trace_tid(Track::MlLoop, -1), 4000);
  EXPECT_EQ(trace_tid(Track::Journal, 0), 4500);
}

TEST(TracePid, RankLanesOfEachExecutorWorkerGetTheirOwnProcess) {
  auto rank = make_span("rank-main", 0, 10, Track::Rank, 3);
  EXPECT_EQ(trace_pid(rank), 1);  // a world run outside the pool
  rank.world_lane = 0;
  EXPECT_EQ(trace_pid(rank), 2);
  rank.world_lane = 5;
  EXPECT_EQ(trace_pid(rank), 7);
  auto trial = make_span("trial", 0, 10, Track::Executor, 5);
  trial.world_lane = 5;  // only rank events move to a world process
  EXPECT_EQ(trace_pid(trial), 1);
}

TEST_F(ExportersTest, ConcurrentWorldsRenderRankLanesInSeparateProcesses) {
  // The same rank of two worlds that overlap in time on two executor
  // workers: each must get its own named (pid, tid) lane.
  std::vector<Event> events;
  for (int lane = 0; lane < 2; ++lane) {
    events.push_back(make_span("rank-main", 10 + lane * 5, 40, Track::Rank, 2));
    events.back().world_lane = lane;
  }
  const std::string trace = to_chrome_trace(events, {});
  bool ok = false;
  std::string error;
  const Node root = testjson::parse_or_die(trace, &ok, &error);
  ASSERT_TRUE(ok) << error;
  std::set<std::pair<int, int>> named, used;
  std::set<int> named_processes;
  for (const auto& item : root.at("traceEvents").array) {
    const int pid = static_cast<int>(item.at("pid").number);
    const int tid = static_cast<int>(item.at("tid").number);
    if (item.at("ph").string == "M") {
      if (item.at("name").string == "thread_name") named.insert({pid, tid});
      if (item.at("name").string == "process_name") {
        named_processes.insert(pid);
      }
      continue;
    }
    used.insert({pid, tid});
  }
  const std::set<std::pair<int, int>> want{{2, 1002}, {3, 1002}};
  EXPECT_EQ(used, want);
  for (const auto& lane : used) {
    EXPECT_TRUE(named.count(lane)) << lane.first << "/" << lane.second;
    EXPECT_TRUE(named_processes.count(lane.first)) << lane.first;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST_F(ExportersTest, ChromeTraceIsWellFormedAndCoversAllTracks) {
  // Events across five tracks, one with args needing escaping.
  std::vector<Event> events;
  events.push_back(make_span("trial", 10, 50, Track::Executor, 0,
                             "point=\"bcast\"; trial=1"));
  events.push_back(make_span("rank-main", 12, 40, Track::Rank, 2));
  events.push_back(make_span("journal-fsync", 70, 5, Track::Journal, 0));
  events.push_back(make_span("ml-round", 80, 100, Track::MlLoop, 0));
  events.push_back(make_span("step-budget-exhausted", 95, -1, Track::Monitor,
                             0));  // instant

  std::vector<ThreadInfo> threads;
  threads.push_back({Track::Main, -1, "campaign-main"});
  threads.push_back({Track::Executor, 0, "executor-0"});

  const std::string trace = to_chrome_trace(events, threads);
  bool ok = false;
  std::string error;
  const Node root = testjson::parse_or_die(trace, &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& items = root.at("traceEvents").array;

  std::set<int> named_tids;        // tids with thread_name metadata
  std::set<int> event_tids;       // tids carrying X/i events
  int complete = 0, instants = 0, metadata = 0;
  for (const auto& item : items) {
    ASSERT_EQ(item.kind, Node::Kind::Object);
    ASSERT_TRUE(item.has("ph"));
    const std::string ph = item.at("ph").string;
    const int tid = static_cast<int>(item.at("tid").number);
    if (ph == "M") {
      ++metadata;
      if (item.at("name").string == "thread_name") named_tids.insert(tid);
      continue;
    }
    event_tids.insert(tid);
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(item.has("ts"));
      EXPECT_TRUE(item.has("dur"));
      EXPECT_GE(item.at("dur").number, 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(item.at("s").string, "t");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(complete, 4);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(metadata, 2);  // process_name + thread_names + sort indexes

  // Every event lane has a thread_name entry — including lanes that were
  // never explicitly bound (rank/journal/ml/monitor come from events).
  for (const int tid : event_tids) {
    EXPECT_TRUE(named_tids.count(tid)) << "unnamed lane tid " << tid;
  }
  // The acceptance bar: at least 4 distinct track types render.
  std::set<std::string> track_types;
  for (const auto& event : events) {
    track_types.insert(to_string(event.track));
  }
  EXPECT_GE(track_types.size(), 4u);
  EXPECT_GE(event_tids.size(), 5u);

  // The escaped args round-trip through a real JSON parse.
  bool found_args = false;
  for (const auto& item : items) {
    if (item.at("ph").string == "X" && item.at("name").string == "trial") {
      ASSERT_TRUE(item.has("args"));
      EXPECT_EQ(item.at("args").at("detail").string,
                "point=\"bcast\"; trial=1");
      found_args = true;
    }
  }
  EXPECT_TRUE(found_args);
}

TEST_F(ExportersTest, ChromeTraceOfLiveRecorderParses) {
  auto& rec = Recorder::instance();
  Recorder::bind_thread(Track::Main, -1, "campaign-main");
  {
    ScopedSpan span("measure-batch");
    span.arg("points", "3");
    rec.instant("teardown-escalated", Track::Monitor, 0, "straggler=2");
  }
  const std::string trace =
      to_chrome_trace(rec.drain_events(), rec.bound_threads());
  bool ok = false;
  std::string error;
  (void)testjson::parse_or_die(trace, &ok, &error);
  EXPECT_TRUE(ok) << error;
}

// Validates the Prometheus text exposition grammar line by line:
// comments are HELP/TYPE with a known family, samples are
// `name[{labels}] value` with a parseable value.
void check_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string help_family, type_family;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "HELP") {
        help_family = family;
      } else {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        // TYPE immediately follows HELP for the same family.
        EXPECT_EQ(family, help_family) << line;
        type_family = family;
      }
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(series.empty()) << line;
    ASSERT_FALSE(value.empty()) << line;
    // The series name (up to `{`) must extend the current family name
    // (histogram samples append _bucket/_sum/_count).
    const std::string name = series.substr(0, series.find('{'));
    EXPECT_EQ(name.rfind(type_family, 0), 0u)
        << "sample " << name << " outside family " << type_family;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << "bad value: " << line;
    // Balanced label braces when present.
    const auto open = series.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
}

TEST_F(ExportersTest, PrometheusExpositionIsWellFormed) {
  auto& rec = Recorder::instance();
  rec.counter("fastfit_trials_total", "Trial outcomes", "outcome=\"SUCCESS\"")
      .add(5);
  rec.counter("fastfit_trials_total", "Trial outcomes", "outcome=\"SEG_FAULT\"")
      .add(2);
  rec.counter("fastfit_journal_flushes_total", "Journal flushes").add();
  rec.gauge("fastfit_snapshot_cache_bytes", "Snapshot cache bytes").set(1);
  auto& lat = rec.latency("fastfit_trial_seconds", "Trial latency");
  lat.observe_us(100.0);
  lat.observe_us(2e6);

  const std::string text = to_prometheus(rec.metrics());
  check_prometheus(text);

  // One HELP/TYPE pair per family even with several series.
  std::size_t help_count = 0, at = 0;
  while ((at = text.find("# HELP fastfit_trials_total", at)) !=
         std::string::npos) {
    ++help_count;
    ++at;
  }
  EXPECT_EQ(help_count, 1u);
  EXPECT_NE(text.find("fastfit_trials_total{outcome=\"SUCCESS\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trials_total{outcome=\"SEG_FAULT\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_snapshot_cache_bytes 1"), std::string::npos);
  // Histogram: le buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("fastfit_trial_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trial_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fastfit_trial_seconds_count 2"), std::string::npos);
  // The drop counter always closes the exposition.
  EXPECT_NE(text.find("fastfit_telemetry_dropped_events_total 0"),
            std::string::npos);
}

TEST_F(ExportersTest, MetricsJsonParsesAndMatchesRegistry) {
  auto& rec = Recorder::instance();
  rec.counter("fastfit_trials_total", "h", "outcome=\"WRONG_ANS\"").add(7);
  rec.gauge("fastfit_snapshot_cache_bytes", "h").set(2);
  rec.latency("fastfit_trial_seconds", "h").observe_us(50.0);

  const std::string text = to_metrics_json(rec.metrics());
  bool ok = false;
  std::string error;
  const Node root = testjson::parse_or_die(text, &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_TRUE(root.has("counters"));
  ASSERT_TRUE(root.has("gauges"));
  ASSERT_TRUE(root.has("histograms"));
  ASSERT_TRUE(root.has("dropped_events"));

  bool found = false;
  for (const auto& c : root.at("counters").array) {
    if (c.at("name").string == "fastfit_trials_total" &&
        c.at("labels").string == "outcome=\"WRONG_ANS\"") {
      EXPECT_EQ(c.at("value").number, 7.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  for (const auto& h : root.at("histograms").array) {
    if (h.at("name").string != "fastfit_trial_seconds") continue;
    EXPECT_EQ(h.at("count").number, 1.0);
    EXPECT_FALSE(h.at("buckets").array.empty());
  }
}

TEST_F(ExportersTest, WriteTextFileRoundTripsAndFailsCleanly) {
  const testing_support::TempFile path("telemetry_out.txt");
  EXPECT_TRUE(write_text_file(path, "hello\n"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const auto n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello\n");
  EXPECT_FALSE(write_text_file("/nonexistent-dir/x/y", "boom"));
}

}  // namespace
}  // namespace fastfit::telemetry
