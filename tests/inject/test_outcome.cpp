// Outcome classification: all six Table-I responses, plus the World::run
// capture paths (bad_alloc → SEG_FAULT, length_error → SEG_FAULT) that
// turn resource-exhaustion crashes into contained, classifiable events.

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>

#include "inject/outcome.hpp"
#include "minimpi/mpi.hpp"
#include "minimpi/world.hpp"

namespace fastfit::inject {
namespace {

mpi::WorldResult event_result(mpi::EventType type) {
  mpi::WorldResult result;
  result.event = mpi::CapturedEvent{type, 0, "synthetic", std::nullopt};
  return result;
}

TEST(Classify, CleanMatchingDigestIsSuccess) {
  EXPECT_EQ(classify(mpi::WorldResult{}, 42, 42), Outcome::Success);
}

TEST(Classify, CleanDivergedDigestIsWrongAns) {
  EXPECT_EQ(classify(mpi::WorldResult{}, 41, 42), Outcome::WrongAns);
}

TEST(Classify, AppDetectedEvent) {
  EXPECT_EQ(classify(event_result(mpi::EventType::AppDetected), 42, 42),
            Outcome::AppDetected);
}

TEST(Classify, MpiErrEvent) {
  EXPECT_EQ(classify(event_result(mpi::EventType::MpiErr), 42, 42),
            Outcome::MpiErr);
}

TEST(Classify, SegFaultEvent) {
  EXPECT_EQ(classify(event_result(mpi::EventType::SegFault), 42, 42),
            Outcome::SegFault);
}

TEST(Classify, TimeoutEventIsInfLoop) {
  EXPECT_EQ(classify(event_result(mpi::EventType::Timeout), 42, 42),
            Outcome::InfLoop);
}

TEST(Classify, EventWinsOverDigestComparison) {
  // A faulted run's digest is meaningless; the event decides.
  EXPECT_EQ(classify(event_result(mpi::EventType::MpiErr), 41, 42),
            Outcome::MpiErr);
}

mpi::WorldOptions two_ranks() {
  mpi::WorldOptions opts;
  opts.nranks = 2;
  return opts;
}

TEST(WorldCapture, BadAllocBecomesSegFault) {
  // A corrupted size that exhausts memory is indistinguishable from a
  // crash on a real cluster (the OOM killer): World::run must contain it
  // as a SegFault event, never let it escape the trial.
  mpi::World world(two_ranks());
  const auto result = world.run([](mpi::Mpi& mpi) {
    if (mpi.rank() == 0) throw std::bad_alloc();
  });
  ASSERT_TRUE(result.event.has_value());
  EXPECT_EQ(result.event->type, mpi::EventType::SegFault);
  EXPECT_THAT(result.event->message,
              ::testing::HasSubstr("allocation failure (OOM kill)"));
  EXPECT_EQ(classify(result, 0, 42), Outcome::SegFault);
}

TEST(WorldCapture, LengthErrorBecomesSegFault) {
  // vector::resize with an absurd (bit-flipped) count throws length_error
  // before allocating; same containment as bad_alloc.
  mpi::World world(two_ranks());
  const auto result = world.run([](mpi::Mpi& mpi) {
    if (mpi.rank() == 1) throw std::length_error("absurd resize");
  });
  ASSERT_TRUE(result.event.has_value());
  EXPECT_EQ(result.event->type, mpi::EventType::SegFault);
  EXPECT_THAT(result.event->message,
              ::testing::HasSubstr("absurd allocation request"));
  EXPECT_EQ(result.event->rank, 1);
  EXPECT_EQ(classify(result, 0, 42), Outcome::SegFault);
}

TEST(WorldCapture, InternalErrorIsRethrownToTheCaller) {
  // Non-fault exceptions are library bugs or machine trouble: World::run
  // rethrows them (the campaign's trial guard retries/quarantines above).
  mpi::World world(two_ranks());
  EXPECT_THROW(world.run([](mpi::Mpi& mpi) {
                 if (mpi.rank() == 0) {
                   throw std::runtime_error("internal flake");
                 }
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace fastfit::inject
