// Point-to-point semantics: validation, matching, truncation, and the
// interleavings the collectives are built on.

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

TEST(P2p, NegativeCountRejected) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) mpi.send(buf.data(), -1, kDouble, 1, 0);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidCount);
}

TEST(P2p, NegativeTagRejected) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) mpi.send(buf.data(), 4, kDouble, 1, -3);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidTag);
}

TEST(P2p, InvalidDatatypeRejected) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), 4, static_cast<Datatype>(0xBEEF), 1, 0);
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidDatatype);
}

TEST(P2p, DestinationOutOfRangeRejected) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4);
    if (mpi.rank() == 0) mpi.send(buf.data(), 4, kDouble, 7, 0);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidRank);
}

TEST(P2p, OversizedMessageIsTruncateError) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 8);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), 8, kDouble, 1, 5);
    } else {
      mpi.recv(buf.data(), 4, kDouble, 0, 5);  // posted smaller
    }
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::Truncate);
}

TEST(P2p, ShorterMessageCompletesPartially) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> buf(mpi.registry(), 4, -1);
    if (mpi.rank() == 0) {
      buf[0] = 42;
      mpi.send(buf.data(), 1, kInt32, 1, 5);
    } else {
      mpi.recv(buf.data(), 4, kInt32, 0, 5);
      EXPECT_EQ(buf[0], 42);
      EXPECT_EQ(buf[1], -1);  // untouched
    }
  });
  EXPECT_TRUE(result.clean());
}

TEST(P2p, UnregisteredSendBufferSegfaults) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    double stack_buf[4] = {};
    if (mpi.rank() == 0) mpi.send(stack_buf, 4, kDouble, 1, 0);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::SegFault);
}

TEST(P2p, TagsSeparateStreams) {
  World world(opts(2));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> a(mpi.registry(), 1);
    RegisteredBuffer<std::int32_t> b(mpi.registry(), 1);
    if (mpi.rank() == 0) {
      a[0] = 1;
      b[0] = 2;
      mpi.send(a.data(), 1, kInt32, 1, 10);
      mpi.send(b.data(), 1, kInt32, 1, 20);
    } else {
      // Receive in reverse tag order: matching must be by tag, not FIFO.
      mpi.recv(b.data(), 1, kInt32, 0, 20);
      mpi.recv(a.data(), 1, kInt32, 0, 10);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
  }).clean());
}

TEST(P2p, ManyMessagesStayOrderedPerTag) {
  World world(opts(2));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> v(mpi.registry(), 1);
    if (mpi.rank() == 0) {
      for (std::int32_t i = 0; i < 64; ++i) {
        v[0] = i;
        mpi.send(v.data(), 1, kInt32, 1, 7);
      }
    } else {
      for (std::int32_t i = 0; i < 64; ++i) {
        mpi.recv(v.data(), 1, kInt32, 0, 7);
        ASSERT_EQ(v[0], i);
      }
    }
  }).clean());
}

TEST(P2p, RingPassAroundAllRanks) {
  World world(opts(8));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const int me = mpi.rank();
    RegisteredBuffer<std::int64_t> token(mpi.registry(), 1, 0);
    if (me == 0) {
      token[0] = 1;
      mpi.send(token.data(), 1, kInt64, 1, 3);
      mpi.recv(token.data(), 1, kInt64, n - 1, 3);
      EXPECT_EQ(token[0], static_cast<std::int64_t>(n));
    } else {
      mpi.recv(token.data(), 1, kInt64, me - 1, 3);
      token[0] += 1;
      mpi.send(token.data(), 1, kInt64, (me + 1) % n, 3);
    }
  }).clean());
}

TEST(P2p, MissingSenderTimesOut) {
  World world(opts(2));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1);
    if (mpi.rank() == 1) mpi.recv(buf.data(), 1, kDouble, 0, 9);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

}  // namespace
}  // namespace fastfit::mpi
