// Nonblocking point-to-point semantics.

#include <gtest/gtest.h>

#include "minimpi/mpi.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

TEST(Nonblocking, PostComputeWaitOverlap) {
  World world(opts(2));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) {
      for (std::size_t i = 0; i < 4; ++i) buf[i] = 1.0 + static_cast<double>(i);
      auto req = mpi.isend(buf.data(), 4, kDouble, 1, 9);
      EXPECT_FALSE(req.pending());
      mpi.wait(req);  // idempotent on a complete request
    } else {
      auto req = mpi.irecv(buf.data(), 4, kDouble, 0, 9);
      EXPECT_TRUE(req.pending());
      // "compute" before completing the receive
      double acc = 0.0;
      for (int i = 0; i < 1000; ++i) acc += i * 0.5;
      EXPECT_GT(acc, 0.0);
      mpi.wait(req);
      EXPECT_FALSE(req.pending());
      for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_DOUBLE_EQ(buf[i], 1.0 + static_cast<double>(i));
      }
    }
  }).clean());
}

TEST(Nonblocking, MultipleOutstandingReceivesWaitall) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    if (mpi.rank() == 0) {
      std::vector<Mpi::Request> requests;
      RegisteredBuffer<std::int32_t> values(mpi.registry(), 3, -1);
      for (int src = 1; src < 4; ++src) {
        requests.push_back(mpi.irecv(values.data() + (src - 1), 1, kInt32,
                                     src, 5));
      }
      mpi.waitall(requests);
      for (int src = 1; src < 4; ++src) {
        ASSERT_EQ(values[static_cast<std::size_t>(src - 1)], src * 11);
      }
    } else {
      RegisteredBuffer<std::int32_t> v(mpi.registry(), 1, mpi.rank() * 11);
      mpi.send(v.data(), 1, kInt32, 0, 5);
    }
  }).clean());
}

TEST(Nonblocking, IrecvValidatesAtPostTime) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    if (mpi.rank() == 0) {
      (void)mpi.irecv(buf.data(), -1, kDouble, 1, 0);
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidCount);
}

TEST(Nonblocking, WaitOnStarvedReceiveTimesOut) {
  WorldOptions o = opts(2);
  World world(o);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    if (mpi.rank() == 0) {
      auto req = mpi.irecv(buf.data(), 1, kDouble, 1, 7);
      mpi.wait(req);  // rank 1 never sends
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(Nonblocking, TruncationDetectedAtWait) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), 4, kDouble, 1, 3);
    } else {
      auto req = mpi.irecv(buf.data(), 1, kDouble, 0, 3);  // posted smaller
      mpi.wait(req);
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::Truncate);
}

TEST(Nonblocking, InterposedLikeBlockingP2p) {
  // The p2p hook must see irecv posts with their parameters.
  class Recorder : public ToolHooks {
   public:
    void on_enter(CollectiveCall&, Mpi&) override {}
    void on_exit(const CollectiveCall&, Mpi&) override {}
    void on_p2p(P2pCall& call, Mpi&) override {
      if (call.kind == P2pKind::Recv) recv_posts.fetch_add(1);
      if (call.kind == P2pKind::Send) send_posts.fetch_add(1);
    }
    std::atomic<int> recv_posts{0};
    std::atomic<int> send_posts{0};
  } recorder;
  World world(opts(2));
  world.set_tools(&recorder);
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> v(mpi.registry(), 1, 5);
    if (mpi.rank() == 0) {
      auto req = mpi.isend(v.data(), 1, kInt32, 1, 1);
      mpi.wait(req);
    } else {
      auto req = mpi.irecv(v.data(), 1, kInt32, 0, 1);
      mpi.wait(req);
    }
  }).clean());
  EXPECT_EQ(recorder.recv_posts.load(), 1);
  EXPECT_EQ(recorder.send_posts.load(), 1);
}

}  // namespace
}  // namespace fastfit::mpi
