#include "minimpi/mailbox.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "minimpi/fiber.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

Message make_msg(int source, std::uint64_t tag, std::size_t bytes = 0) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload.resize(bytes);
  return m;
}

// Mailbox::receive parks the calling rank fiber, so every receive here runs
// as the single fiber of a scheduler. Its idle handler is `on_idle` when
// given; otherwise it polls the inbox for a wake from another thread (a
// delivery or a poison). A world never polls: its idle handler proves the
// deadlock instead.
Message receive(Mailbox& box, int source, std::uint64_t tag,
                const std::function<void()>& on_idle = nullptr) {
  FiberScheduler sched(1);
  struct WakerScope {
    Mailbox& box;
    ~WakerScope() { box.set_fiber_waker(nullptr, -1); }
  } scope{box};
  box.set_fiber_waker(&sched, 0);
  Message out;
  sched.run([&](int) { out = box.receive(source, tag); },
            on_idle ? on_idle : [&sched] {
              sched.drain_inbox();
              if (!sched.has_ready()) std::this_thread::sleep_for(100us);
            });
  return out;
}

TEST(Mailbox, DeliverThenReceive) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(3, 42, 16));
  const auto m = receive(box, 3, 42);
  EXPECT_EQ(m.source, 3);
  EXPECT_EQ(m.tag, 42u);
  EXPECT_EQ(m.payload.size(), 16u);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, MatchingIsBySourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(1, 10));
  box.deliver(make_msg(2, 10));
  box.deliver(make_msg(1, 20));
  const auto m = receive(box, 1, 20);
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 20u);
  EXPECT_EQ(box.pending(), 2u);  // non-matching stay queued
}

TEST(Mailbox, FifoAmongSameSourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(1, 5, 1));
  box.deliver(make_msg(1, 5, 2));
  EXPECT_EQ(receive(box, 1, 5).payload.size(), 1u);
  EXPECT_EQ(receive(box, 1, 5).payload.size(), 2u);
}

TEST(Mailbox, UnmatchedWaitParksUntilWoken) {
  // A message that never comes parks the fiber; only a wake (here a
  // poison, as a world's deadlock verdict delivers) ends the wait.
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(0, 2));  // same source, other tag: no match
  int idles = 0;
  EXPECT_THROW(receive(box, 0, 1,
                       [&] {
                         ++idles;
                         poison.poison();
                         box.wake();
                       }),
               WorldAborted);
  EXPECT_EQ(idles, 1);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, CrossThreadDelivery) {
  PoisonState poison;
  Mailbox box(poison);
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    box.deliver(make_msg(7, 99, 8));
  });
  const auto m = receive(box, 7, 99);
  EXPECT_EQ(m.source, 7);
  producer.join();
}

TEST(Mailbox, PoisonWakesWaiterWithWorldAborted) {
  PoisonState poison;
  Mailbox box(poison);
  std::thread killer([&] {
    std::this_thread::sleep_for(10ms);
    poison.poison();
    box.wake();
  });
  EXPECT_THROW(receive(box, 0, 1), WorldAborted);
  killer.join();
}

TEST(Mailbox, PoisonedBeforeWaitThrowsImmediately) {
  PoisonState poison;
  poison.poison();
  Mailbox box(poison);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(receive(box, 0, 1), WorldAborted);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1000ms);
}

TEST(Mailbox, ReceiveOutsideAFiberIsAnInternalError) {
  PoisonState poison;
  Mailbox box(poison);
  box.deliver(make_msg(1, 1));
  EXPECT_THROW(box.receive(1, 1), InternalError);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, HasMatchIsExactOnSourceAndTag) {
  PoisonState poison;
  Mailbox box(poison);
  EXPECT_FALSE(box.has_match(1, 10));
  box.deliver(make_msg(1, 10));
  EXPECT_TRUE(box.has_match(1, 10));
  EXPECT_FALSE(box.has_match(1, 11));
  EXPECT_FALSE(box.has_match(2, 10));
  (void)receive(box, 1, 10);
  EXPECT_FALSE(box.has_match(1, 10));
}

TEST(Mailbox, WakeCannotSlipBetweenPoisonCheckAndWait) {
  // Regression stress for the lost-wakeup race: a wake that lands between
  // the waiter's poison check and its park must not be lost (the
  // scheduler latches it), or the waiter would park for good. The waiter
  // must observe the poison promptly on every iteration. Run under TSan
  // in CI.
  for (int i = 0; i < 200; ++i) {
    PoisonState poison;
    Mailbox box(poison);
    const auto start = std::chrono::steady_clock::now();
    std::thread waiter([&] {
      EXPECT_THROW(receive(box, 0, 1), WorldAborted);
    });
    poison.poison();
    box.wake();
    waiter.join();
    // A missed wake would park the waiter until the test times out.
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
  }
}

}  // namespace
}  // namespace fastfit::mpi
