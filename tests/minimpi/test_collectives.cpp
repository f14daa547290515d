// Fault-free correctness of every MiniMPI collective: the substrate must
// be a correct MPI before it can be a credible fault-injection target.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "minimpi/mpi.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

TEST(Collectives, BarrierCompletesCleanly) {
  World world(opts(7));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    for (int i = 0; i < 3; ++i) mpi.barrier();
  }).clean());
}

TEST(Collectives, BcastFromRankZero) {
  World world(opts(6));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 16);
    if (mpi.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = 3.5 * static_cast<double>(i);
      }
    }
    mpi.bcast(buf.data(), 16, kDouble, 0);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      ASSERT_DOUBLE_EQ(buf[i], 3.5 * static_cast<double>(i))
          << "rank " << mpi.rank();
    }
  });
  EXPECT_TRUE(result.clean());
}

TEST(Collectives, BcastFromEveryRoot) {
  World world(opts(5));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    for (std::int32_t root = 0; root < mpi.size(); ++root) {
      RegisteredBuffer<std::int32_t> buf(mpi.registry(), 4);
      if (mpi.rank() == root) {
        for (std::size_t i = 0; i < 4; ++i) buf[i] = root * 100 + static_cast<std::int32_t>(i);
      }
      mpi.bcast(buf.data(), 4, kInt32, root);
      for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_EQ(buf[i], root * 100 + static_cast<std::int32_t>(i));
      }
    }
  }).clean());
}

TEST(Collectives, ReduceSumToEveryRoot) {
  World world(opts(6));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    for (std::int32_t root = 0; root < n; ++root) {
      RegisteredBuffer<std::int64_t> send(mpi.registry(), 3);
      RegisteredBuffer<std::int64_t> recv(mpi.registry(), 3);
      for (std::size_t i = 0; i < 3; ++i) {
        send[i] = mpi.rank() + 1 + static_cast<std::int64_t>(100 * i);
      }
      mpi.reduce(send.data(), recv.data(), 3, kInt64, kSum, root);
      if (mpi.rank() == root) {
        const std::int64_t ranksum = static_cast<std::int64_t>(n) * (n + 1) / 2;
        for (std::size_t i = 0; i < 3; ++i) {
          ASSERT_EQ(recv[i], ranksum + static_cast<std::int64_t>(100 * i * n));
        }
      }
    }
  }).clean());
}

TEST(Collectives, ReduceMaxAndMin) {
  World world(opts(8));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> send(mpi.registry(), 1);
    RegisteredBuffer<std::int32_t> hi(mpi.registry(), 1);
    RegisteredBuffer<std::int32_t> lo(mpi.registry(), 1);
    send[0] = (mpi.rank() * 37) % 11;
    mpi.reduce(send.data(), hi.data(), 1, kInt32, kMax, 0);
    mpi.reduce(send.data(), lo.data(), 1, kInt32, kMin, 0);
    if (mpi.rank() == 0) {
      // max/min of (r*37) % 11 over r in 0..7 = {0,4,8,1,5,9,2,6}.
      EXPECT_EQ(hi[0], 9);
      EXPECT_EQ(lo[0], 0);
    }
  }).clean());
}

TEST(Collectives, AllreduceSumDouble) {
  World world(opts(9));  // non-power-of-two exercises the folding path
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<double> send(mpi.registry(), 5);
    RegisteredBuffer<double> recv(mpi.registry(), 5);
    for (std::size_t i = 0; i < 5; ++i) {
      send[i] = mpi.rank() + static_cast<double>(i);
    }
    mpi.allreduce(send.data(), recv.data(), 5, kDouble, kSum);
    const double ranksum = n * (n - 1) / 2.0;
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_DOUBLE_EQ(recv[i], ranksum + static_cast<double>(i) * n);
    }
  }).clean());
}

TEST(Collectives, AllreduceLogicalAndDetectsDissent) {
  World world(opts(6));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const std::int32_t ok = mpi.rank() == 3 ? 0 : 1;
    const std::int32_t all_ok = mpi.allreduce_value(ok, kLand);
    EXPECT_EQ(all_ok, 0);
    const std::int32_t any = mpi.allreduce_value(ok, kLor);
    EXPECT_EQ(any, 1);
  }).clean());
}

TEST(Collectives, ScatterGatherRoundTrip) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const std::int32_t root = 1;
    RegisteredBuffer<std::int32_t> all(mpi.registry(),
                                       static_cast<std::size_t>(4 * n));
    RegisteredBuffer<std::int32_t> mine(mpi.registry(), 4);
    if (mpi.rank() == root) {
      std::iota(all.begin(), all.end(), 1000);
    }
    mpi.scatter(all.data(), 4, kInt32, mine.data(), 4, kInt32, root);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(mine[i], 1000 + mpi.rank() * 4 + static_cast<std::int32_t>(i));
    }
    // Transform and gather back.
    for (std::size_t i = 0; i < 4; ++i) mine[i] += 5;
    RegisteredBuffer<std::int32_t> back(mpi.registry(),
                                        static_cast<std::size_t>(4 * n));
    mpi.gather(mine.data(), 4, kInt32, back.data(), 4, kInt32, root);
    if (mpi.rank() == root) {
      for (std::size_t i = 0; i < back.size(); ++i) {
        ASSERT_EQ(back[i], 1005 + static_cast<std::int32_t>(i));
      }
    }
  }).clean());
}

TEST(Collectives, AllgatherSharesEveryContribution) {
  World world(opts(5));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<std::int32_t> send(mpi.registry(), 2);
    RegisteredBuffer<std::int32_t> recv(mpi.registry(),
                                        static_cast<std::size_t>(2 * n));
    send[0] = mpi.rank() * 10;
    send[1] = mpi.rank() * 10 + 1;
    mpi.allgather(send.data(), 2, kInt32, recv.data(), 2, kInt32);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r)], r * 10);
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
    }
  }).clean());
}

TEST(Collectives, AlltoallTransposesBlocks) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(n));
    RegisteredBuffer<std::int32_t> recv(mpi.registry(),
                                        static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)] = mpi.rank() * 100 + d;
    }
    mpi.alltoall(send.data(), 1, kInt32, recv.data(), 1, kInt32);
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)], s * 100 + mpi.rank());
    }
  }).clean());
}

TEST(Collectives, AlltoallvWithRaggedBlocks) {
  World world(opts(3));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const int me = mpi.rank();
    // Rank r sends (d+1) elements to rank d, value 100*r + d.
    std::vector<std::int32_t> scounts, sdispls, rcounts, rdispls;
    std::int32_t soff = 0, roff = 0;
    for (int d = 0; d < n; ++d) {
      scounts.push_back(d + 1);
      sdispls.push_back(soff);
      soff += d + 1;
      rcounts.push_back(me + 1);
      rdispls.push_back(roff);
      roff += me + 1;
    }
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(soff));
    RegisteredBuffer<std::int32_t> recv(mpi.registry(),
                                        static_cast<std::size_t>(roff), -1);
    for (int d = 0; d < n; ++d) {
      for (int k = 0; k < scounts[static_cast<std::size_t>(d)]; ++k) {
        send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(d)] + k)] =
            100 * me + d;
      }
    }
    mpi.alltoallv(send.data(), scounts, sdispls, kInt32, recv.data(), rcounts,
                  rdispls, kInt32);
    for (int s = 0; s < n; ++s) {
      for (int k = 0; k < me + 1; ++k) {
        ASSERT_EQ(recv[static_cast<std::size_t>(
                      rdispls[static_cast<std::size_t>(s)] + k)],
                  100 * s + me);
      }
    }
  }).clean());
}

TEST(Collectives, ScattervGathervRoundTrip) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const int me = mpi.rank();
    const std::int32_t root = 2;
    std::vector<std::int32_t> counts, displs;
    std::int32_t off = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(off);
      off += r + 1;
    }
    RegisteredBuffer<std::int32_t> all(mpi.registry(),
                                       static_cast<std::size_t>(off));
    RegisteredBuffer<std::int32_t> mine(mpi.registry(),
                                        static_cast<std::size_t>(me + 1));
    if (me == root) std::iota(all.begin(), all.end(), 0);
    mpi.scatterv(all.data(), counts, displs, kInt32, mine.data(), me + 1,
                 kInt32, root);
    for (int k = 0; k <= me; ++k) {
      ASSERT_EQ(mine[static_cast<std::size_t>(k)],
                displs[static_cast<std::size_t>(me)] + k);
    }
    RegisteredBuffer<std::int32_t> back(mpi.registry(),
                                        static_cast<std::size_t>(off), -7);
    mpi.gatherv(mine.data(), me + 1, kInt32, back.data(), counts, displs,
                kInt32, root);
    if (me == root) {
      for (std::int32_t i = 0; i < off; ++i) {
        ASSERT_EQ(back[static_cast<std::size_t>(i)], i);
      }
    }
  }).clean());
}

TEST(Collectives, AllgathervRaggedBlocks) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const int me = mpi.rank();
    std::vector<std::int32_t> counts, displs;
    std::int32_t off = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(off);
      off += r + 1;
    }
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(me + 1));
    RegisteredBuffer<std::int32_t> recv(mpi.registry(),
                                        static_cast<std::size_t>(off));
    for (int k = 0; k <= me; ++k) send[static_cast<std::size_t>(k)] = me * 10 + k;
    mpi.allgatherv(send.data(), me + 1, kInt32, recv.data(), counts, displs,
                   kInt32);
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k <= r; ++k) {
        ASSERT_EQ(recv[static_cast<std::size_t>(
                      displs[static_cast<std::size_t>(r)] + k)],
                  r * 10 + k);
      }
    }
  }).clean());
}

TEST(Collectives, ReduceScatterBlock) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(2 * n));
    RegisteredBuffer<std::int32_t> recv(mpi.registry(), 2);
    for (int i = 0; i < 2 * n; ++i) {
      send[static_cast<std::size_t>(i)] = mpi.rank() + i;
    }
    mpi.reduce_scatter_block(send.data(), recv.data(), 2, kInt32, kSum);
    const std::int32_t ranksum = n * (n - 1) / 2;
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(recv[static_cast<std::size_t>(k)],
                ranksum + n * (2 * mpi.rank() + k));
    }
  }).clean());
}

TEST(Collectives, ScanInclusivePrefix) {
  World world(opts(6));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> send(mpi.registry(), 1);
    RegisteredBuffer<std::int32_t> recv(mpi.registry(), 1);
    send[0] = mpi.rank() + 1;
    mpi.scan(send.data(), recv.data(), 1, kInt32, kSum);
    const int r = mpi.rank();
    ASSERT_EQ(recv[0], (r + 1) * (r + 2) / 2);
  }).clean());
}

TEST(Collectives, SendRecvPointToPoint) {
  World world(opts(2));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 8);
    if (mpi.rank() == 0) {
      for (std::size_t i = 0; i < 8; ++i) buf[i] = 2.0 * static_cast<double>(i);
      mpi.send(buf.data(), 8, kDouble, 1, 77);
    } else {
      mpi.recv(buf.data(), 8, kDouble, 0, 77);
      for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_DOUBLE_EQ(buf[i], 2.0 * static_cast<double>(i));
      }
    }
  }).clean());
}

TEST(Collectives, CommSplitEvenOdd) {
  World world(opts(8));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int me = mpi.rank();
    const Comm half = mpi.comm_split(kCommWorld, me % 2, me);
    EXPECT_EQ(mpi.size(half), 4);
    EXPECT_EQ(mpi.rank(half), me / 2);
    // Collectives on the subcommunicator stay inside it.
    const std::int32_t sum = mpi.allreduce_value<std::int32_t>(me, kSum, half);
    const std::int32_t expect = (me % 2 == 0) ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7;
    EXPECT_EQ(sum, expect);
  }).clean());
}

TEST(Collectives, CommDupIsDisjointTrafficSpace) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const Comm dup = mpi.comm_dup(kCommWorld);
    EXPECT_NE(dup, kCommWorld);
    EXPECT_EQ(mpi.size(dup), 4);
    EXPECT_EQ(mpi.rank(dup), mpi.rank());
    // Interleave collectives on both communicators.
    const auto a = mpi.allreduce_value<std::int32_t>(1, kSum, dup);
    const auto b = mpi.allreduce_value<std::int32_t>(2, kSum, kCommWorld);
    EXPECT_EQ(a, 4);
    EXPECT_EQ(b, 8);
  }).clean());
}

TEST(Collectives, ZeroCountCollectivesAreNoOpsButSynchronize) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1, 42.0);
    mpi.bcast(buf.data(), 0, kDouble, 0);
    mpi.allreduce(buf.data(), buf.data(), 0, kDouble, kSum);
    EXPECT_DOUBLE_EQ(buf[0], 42.0);
  }).clean());
}

TEST(Collectives, ManyBackToBackCollectivesKeepSequenceDiscipline) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    for (std::int32_t i = 0; i < 50; ++i) {
      const auto v = mpi.allreduce_value<std::int32_t>(i, kMax);
      ASSERT_EQ(v, i);
    }
  }).clean());
}

}  // namespace
}  // namespace fastfit::mpi
