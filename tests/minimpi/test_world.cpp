#include "minimpi/world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <source_location>
#include <string>
#include <thread>

#include "minimpi/mpi.hpp"
#include "support/rng.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions small_world(int n) {
  WorldOptions opts;
  opts.nranks = n;
  opts.watchdog = 2000ms;
  return opts;
}

TEST(World, RunsEveryRankExactlyOnce) {
  World world(small_world(8));
  std::atomic<int> visits{0};
  std::atomic<std::uint32_t> rank_mask{0};
  const auto result = world.run([&](Mpi& mpi) {
    visits.fetch_add(1);
    rank_mask.fetch_or(1u << mpi.world_rank());
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(visits.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xFFu);
}

TEST(World, RanksAndSizes) {
  World world(small_world(5));
  world.run([&](Mpi& mpi) {
    EXPECT_EQ(mpi.size(), 5);
    EXPECT_EQ(mpi.rank(), mpi.world_rank());
  });
}

TEST(World, RejectsInvalidRankCount) {
  WorldOptions opts;
  opts.nranks = 0;
  EXPECT_THROW(World w(opts), ConfigError);
}

TEST(World, SingleUse) {
  World world(small_world(2));
  world.run([](Mpi&) {});
  EXPECT_THROW(world.run([](Mpi&) {}), InternalError);
}

TEST(World, AppErrorCapturedAsAppDetected) {
  World world(small_world(4));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 2) throw AppError("checksum mismatch");
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 2);
  EXPECT_NE(result.event->message.find("checksum"), std::string::npos);
}

TEST(World, MpiErrorCapturedWithCode) {
  World world(small_world(2));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) {
      throw MpiError(MpiErrc::InvalidDatatype, "corrupted");
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  ASSERT_TRUE(result.event->mpi_code.has_value());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidDatatype);
}

TEST(World, SegFaultCaptured) {
  World world(small_world(2));
  const auto result = world.run([&](Mpi& mpi) {
    int unregistered = 0;
    if (mpi.world_rank() == 1) {
      mpi.registry().check(&unregistered, sizeof(int));
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::SegFault);
}

TEST(World, PoisonUnblocksPeersWaitingOnCollective) {
  // Rank 0 dies before the barrier; everyone else is released promptly
  // with the initiating event (not a timeout) reported.
  WorldOptions opts = small_world(4);
  opts.watchdog = 10000ms;  // a hang here would stall the test visibly
  World world(opts);
  const auto start = std::chrono::steady_clock::now();
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) throw AppError("early death");
    mpi.barrier();
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
}

TEST(World, TimeoutCapturedAsInfLoop) {
  WorldOptions opts = small_world(2);
  opts.watchdog = 50ms;
  World world(opts);
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) mpi.barrier();  // rank 1 never joins
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(World, FirstEventWins) {
  World world(small_world(4));
  const auto result = world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 3) throw AppError("first");
    // Other ranks fail later (after a barrier attempt that aborts).
    mpi.barrier();
    throw MpiError(MpiErrc::Internal, "should never initiate");
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::AppDetected);
  EXPECT_EQ(result.event->rank, 3);
}

TEST(World, InternalErrorPropagatesToCaller) {
  World world(small_world(2));
  EXPECT_THROW(world.run([&](Mpi& mpi) {
    if (mpi.world_rank() == 0) throw InternalError("library bug");
  }),
               InternalError);
}

TEST(World, CheckDeadlineThrowsPastWatchdog) {
  WorldOptions opts = small_world(1);
  opts.watchdog = 1ms;
  World world(opts);
  const auto result = world.run([&](Mpi& mpi) {
    std::this_thread::sleep_for(20ms);
    mpi.check_deadline();
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(World, CommWorldGroupIsEveryone) {
  World world(small_world(6));
  const auto& group = world.group_of(kCommWorld);
  ASSERT_EQ(group.size(), 6u);
  for (int r = 0; r < 6; ++r) EXPECT_EQ(group[static_cast<std::size_t>(r)], r);
  EXPECT_EQ(world.comm_rank_of(kCommWorld, 4), 4);
}

TEST(World, InvalidCommHandleRejected) {
  World world(small_world(2));
  EXPECT_THROW(world.group_of(static_cast<Comm>(0x1234u)), MpiError);
  EXPECT_THROW(world.group_of(make_comm(57)), MpiError);
}

TEST(World, RegisterCommIdempotentOnKey) {
  World world(small_world(4));
  const Comm a = world.register_comm("sub", {0, 2});
  const Comm b = world.register_comm("sub", {0, 2});
  EXPECT_EQ(a, b);
  EXPECT_EQ(world.comm_rank_of(a, 2), 1);
  EXPECT_EQ(world.comm_rank_of(a, 1), -1);
}

TEST(World, RegisterCommInconsistentGroupIsCommError) {
  World world(small_world(4));
  world.register_comm("sub", {0, 2});
  EXPECT_THROW(world.register_comm("sub", {0, 3}), MpiError);
}

// Records the site id rank 0 sees for each kind of call.
class SiteIdProbe final : public ToolHooks {
 public:
  void on_enter(CollectiveCall& call, Mpi& mpi) override {
    if (mpi.world_rank() == 0) collective = call.site_id;
  }
  void on_exit(const CollectiveCall&, Mpi&) override {}
  void on_p2p(P2pCall& call, Mpi& mpi) override {
    if (mpi.world_rank() == 0) p2p = call.site_id;
  }
  std::uint32_t collective = 0;
  std::uint32_t p2p = 0;
};

TEST(World, SiteIdsHashTheLegacyKeyText) {
  // Site ids are stored in prefix recordings, journals and the golden
  // fixtures, so they must stay FNV-1a of exactly these key strings.
  SiteIdProbe probe;
  World world(small_world(2));
  world.set_tools(&probe);
  std::source_location barrier_site;
  std::source_location send_site;
  const auto result = world.run([&](Mpi& mpi) {
    const auto here = std::source_location::current();
    mpi.barrier(kCommWorld, here);
    RegisteredBuffer<std::int32_t> value(mpi.registry(), 1, 7);
    const auto send_here = std::source_location::current();
    if (mpi.world_rank() == 0) {
      mpi.send(value.data(), 1, kInt32, 1, 5, kCommWorld, send_here);
      barrier_site = here;
      send_site = send_here;
    } else {
      mpi.recv(value.data(), 1, kInt32, 0, 5);
    }
  });
  ASSERT_TRUE(result.clean());
  const std::string barrier_key =
      std::string(barrier_site.file_name()) + ":" +
      std::to_string(barrier_site.line()) + ":" +
      std::to_string(static_cast<int>(CollectiveKind::Barrier));
  const std::string send_key =
      std::string(send_site.file_name()) + ":" +
      std::to_string(send_site.line()) + ":p2p:" +
      std::to_string(static_cast<int>(P2pKind::Send));
  EXPECT_EQ(probe.collective, static_cast<std::uint32_t>(fnv1a(barrier_key)));
  EXPECT_EQ(probe.p2p, static_cast<std::uint32_t>(fnv1a(send_key)));
}

TEST(World, ForeignThreadWakesAndDeliveriesRaceRunAndTeardown) {
  // A world is confined to the thread that runs it; another thread may
  // only kill a rank, wake a mailbox or deliver to one. Here a second
  // thread does all three continuously, from before the ranks start until
  // after run() has returned, with the kill landing at a different moment
  // in each iteration. Every world must end promptly, either clean (the
  // kill came too late) or with the killed rank's death. Run under TSan in
  // CI.
  for (int i = 0; i < 200; ++i) {
    WorldOptions opts = small_world(4);
    opts.watchdog = 10000ms;
    opts.hang_detection = i % 2 == 0;
    World world(opts);
    std::atomic<bool> finished{false};
    const auto start = std::chrono::steady_clock::now();
    std::thread poker([&world, &finished, i] {
      const auto stray = [](int n) {
        Message message;
        message.source = 3;
        message.tag = 0xdead0000u + static_cast<std::uint64_t>(n);
        message.payload.resize(8);
        return message;
      };
      int n = 0;
      do {
        world.mailbox(n % 4).deliver(stray(n));
        world.mailbox((n + 1) % 4).wake();
        if (n == i % 64) world.kill_rank(3);
        ++n;
      } while (!finished.load());
      // After teardown every entry must be harmless.
      world.kill_rank(2);
      world.mailbox(1).wake();
      world.mailbox(0).deliver(stray(n));
    });
    const auto result = world.run([](Mpi& mpi) {
      for (int k = 0; k < 20; ++k) {
        mpi.barrier();
        mpi.check_deadline();
      }
    });
    finished.store(true);
    poker.join();
    if (!result.clean()) {
      EXPECT_EQ(result.event->type, EventType::RankDead) << "iteration " << i;
      EXPECT_EQ(result.event->rank, 3) << "iteration " << i;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms)
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace fastfit::mpi
