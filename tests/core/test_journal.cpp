// TrialJournal: durable trial records, header validation, torn-line
// recovery — the journal half of the kill-and-resume contract (the
// campaign half lives in test_resilience.cpp).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/journal.hpp"
#include "support/error.hpp"
#include "temp_file.hpp"

namespace fastfit::core {
namespace {

JournalHeader header() {
  JournalHeader h;
  h.workload = "LU";
  h.seed = 77;
  h.nranks = 8;
  h.trials_per_point = 6;
  h.fault_model = "single-bit-flip";
  h.algorithms = "0/0";
  h.golden_digest = 0xfeedfaceULL;
  return h;
}

testing_support::TempFile temp_path(const std::string& name) {
  return testing_support::TempFile("journal_" + name);
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

TEST(TrialJournal, CreateRefusesExistingFile) {
  const auto path = temp_path("create_refuses");
  auto journal = TrialJournal::create(path, header());
  ASSERT_NE(journal, nullptr);
  journal.reset();
  EXPECT_THROW(TrialJournal::create(path, header()), ConfigError);
}

TEST(TrialJournal, PointKeyIsStable) {
  InjectionPoint p;
  p.site_id = 3;
  p.rank = 1;
  p.invocation = 7;
  p.param = mpi::Param::Count;
  const auto key = point_key(p);
  EXPECT_EQ(key, point_key(p));
  p.invocation = 8;
  EXPECT_NE(key, point_key(p));
}

TEST(TrialJournal, ResumeReplaysTrialsLabelsAndQuarantines) {
  const auto path = temp_path("resume_replays");
  {
    auto journal = TrialJournal::create(path, header());
    journal->record_trial("k0", 0, inject::Outcome::Success);
    journal->record_trial("k0", 1, inject::Outcome::MpiErr);
    journal->record_trial("k1", 0, inject::Outcome::WrongAns);
    journal->check_or_record_label("k0", 2);
    journal->record_quarantine("k2", 3, "synthetic flake");
    // No explicit flush: the destructor must persist the tail.
  }
  auto journal = TrialJournal::resume(path, header());
  EXPECT_EQ(journal->loaded_trials(), 3u);
  EXPECT_EQ(journal->lookup("k0", 0), inject::Outcome::Success);
  EXPECT_EQ(journal->lookup("k0", 1), inject::Outcome::MpiErr);
  EXPECT_EQ(journal->lookup("k1", 0), inject::Outcome::WrongAns);
  EXPECT_EQ(journal->lookup("k1", 1), std::nullopt);
  EXPECT_EQ(journal->lookup("k9", 0), std::nullopt);
  EXPECT_EQ(journal->label("k0"), 2u);
  EXPECT_EQ(journal->label("k1"), std::nullopt);
  const auto quarantine = journal->quarantine("k2");
  ASSERT_TRUE(quarantine.has_value());
  EXPECT_EQ(quarantine->retries, 3u);
  EXPECT_EQ(quarantine->error, "synthetic flake");
}

TEST(TrialJournal, DutyCycleSpecRoundTripsThroughPointKey) {
  // Non-default fault specs join the point key as their canonical string;
  // the intermittent duty-cycle form must survive the journal round trip
  // like every other trigger.
  InjectionPoint p;
  p.site_id = 3;
  p.rank = 1;
  p.invocation = 7;
  p.param = mpi::Param::Count;
  p.fault = inject::FaultModelSpec::parse("stuck-at-one@duty=1/4");
  const auto key = point_key(p);
  EXPECT_NE(key.find("stuck-at-one@duty=1/4"), std::string::npos);
  EXPECT_EQ(inject::FaultModelSpec::parse("stuck-at-one@duty=1/4"), p.fault);

  const auto path = temp_path("duty_roundtrip");
  {
    auto journal = TrialJournal::create(path, header());
    journal->record_trial(key, 0, inject::Outcome::WrongAns, false, "",
                          p.fault.canonical());
  }
  auto journal = TrialJournal::resume(path, header());
  EXPECT_EQ(journal->lookup(key, 0), inject::Outcome::WrongAns);
}

TEST(TrialJournal, RecordTrialIsIdempotent) {
  const auto path = temp_path("idempotent");
  {
    auto journal = TrialJournal::create(path, header());
    journal->record_trial("k0", 0, inject::Outcome::Success);
    journal->record_trial("k0", 0, inject::Outcome::Success);
  }
  auto journal = TrialJournal::resume(path, header());
  EXPECT_EQ(journal->loaded_trials(), 1u);
}

TEST(TrialJournal, ResumeRejectsChangedIdentity) {
  const auto path = temp_path("identity");
  TrialJournal::create(path, header()).reset();

  auto changed = header();
  changed.seed = 78;
  EXPECT_THROW(TrialJournal::resume(path, changed), ConfigError);
  changed = header();
  changed.golden_digest = 1;
  EXPECT_THROW(TrialJournal::resume(path, changed), ConfigError);
  changed = header();
  changed.workload = "MG";
  EXPECT_THROW(TrialJournal::resume(path, changed), ConfigError);
  changed = header();
  changed.nranks = 4;
  EXPECT_THROW(TrialJournal::resume(path, changed), ConfigError);
  changed = header();
  changed.fault_model = "stuck-high";
  EXPECT_THROW(TrialJournal::resume(path, changed), ConfigError);
  // The unchanged header still resumes.
  EXPECT_NE(TrialJournal::resume(path, header()), nullptr);
}

TEST(TrialJournal, ResumeTruncatesTornFinalLine) {
  const auto path = temp_path("torn");
  {
    auto journal = TrialJournal::create(path, header());
    journal->record_trial("k0", 0, inject::Outcome::Success);
    journal->record_trial("k0", 1, inject::Outcome::SegFault);
  }
  // Simulate a SIGKILL mid-write: a final line without its newline.
  append_raw(path, "{\"t\":\"trial\",\"p\":\"k0\",\"i\":2,");
  auto journal = TrialJournal::resume(path, header());
  EXPECT_EQ(journal->loaded_trials(), 2u);
  EXPECT_EQ(journal->lookup("k0", 2), std::nullopt);
  // The torn bytes are gone: appending and resuming again stays parseable.
  journal->record_trial("k0", 2, inject::Outcome::InfLoop);
  journal.reset();
  auto again = TrialJournal::resume(path, header());
  EXPECT_EQ(again->loaded_trials(), 3u);
  EXPECT_EQ(again->lookup("k0", 2), inject::Outcome::InfLoop);
}

TEST(TrialJournal, ResumeRejectsCorruptMidFileLine) {
  const auto path = temp_path("corrupt");
  TrialJournal::create(path, header()).reset();
  append_raw(path, "this is not json\n");
  EXPECT_THROW(TrialJournal::resume(path, header()), ConfigError);
}

TEST(TrialJournal, ResumeOfMissingFileDegradesToCreate) {
  const auto path = temp_path("missing");
  auto journal = TrialJournal::resume(path, header());
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->loaded_trials(), 0u);
  journal->record_trial("k0", 0, inject::Outcome::Success);
  journal.reset();
  EXPECT_EQ(TrialJournal::resume(path, header())->loaded_trials(), 1u);
}

TEST(TrialJournal, LabelCheckpointDetectsDivergence) {
  const auto path = temp_path("label_divergence");
  {
    auto journal = TrialJournal::create(path, header());
    journal->check_or_record_label("k0", 2);
    journal->check_or_record_label("k0", 2);  // same label: fine
    EXPECT_THROW(journal->check_or_record_label("k0", 3), ConfigError);
  }
  auto journal = TrialJournal::resume(path, header());
  journal->check_or_record_label("k0", 2);
  EXPECT_THROW(journal->check_or_record_label("k0", 1), ConfigError);
}

TEST(TrialJournal, HeaderSurvivesEscapableStrings) {
  const auto path = temp_path("escapes");
  auto h = header();
  h.workload = "we\"ird\\name\twith\nnewline";
  TrialJournal::create(path, h).reset();
  EXPECT_NE(TrialJournal::resume(path, h), nullptr);
  EXPECT_THROW(TrialJournal::resume(path, header()), ConfigError);
}

}  // namespace
}  // namespace fastfit::core
