// Property sweeps: collective correctness must hold across rank counts,
// message sizes, datatypes, and roots — including the awkward shapes
// (n = 1, non-powers-of-two, zero-length payloads).

#include <gtest/gtest.h>

#include <numeric>

#include "minimpi/mpi.hpp"
#include "support/rng.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

class CollectiveSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int nranks() const { return std::get<0>(GetParam()); }
  int count() const { return std::get<1>(GetParam()); }
};

TEST_P(CollectiveSweep, AllreduceSumMatchesClosedForm) {
  World world(opts(nranks()));
  const int c = count();
  EXPECT_TRUE(world.run([c](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<std::int64_t> send(mpi.registry(),
                                        static_cast<std::size_t>(c));
    RegisteredBuffer<std::int64_t> recv(mpi.registry(),
                                        static_cast<std::size_t>(c));
    for (int i = 0; i < c; ++i) {
      send[static_cast<std::size_t>(i)] = mpi.rank() * 1000 + i;
    }
    mpi.allreduce(send.data(), recv.data(), c, kInt64, kSum);
    const std::int64_t ranksum = static_cast<std::int64_t>(n) * (n - 1) / 2;
    for (int i = 0; i < c; ++i) {
      ASSERT_EQ(recv[static_cast<std::size_t>(i)],
                ranksum * 1000 + static_cast<std::int64_t>(i) * n);
    }
  }).clean());
}

TEST_P(CollectiveSweep, BcastDeliversIdenticalBytesEverywhere) {
  World world(opts(nranks()));
  const int c = count();
  EXPECT_TRUE(world.run([c](Mpi& mpi) {
    const std::int32_t root = mpi.size() / 2;
    RegisteredBuffer<std::uint64_t> buf(mpi.registry(),
                                        static_cast<std::size_t>(c));
    if (mpi.rank() == root) {
      RngStream rng(2024, "payload");
      for (int i = 0; i < c; ++i) {
        buf[static_cast<std::size_t>(i)] = rng.uniform_u64(0, ~0ULL);
      }
    }
    mpi.bcast(buf.data(), c, kUint64, root);
    RngStream rng(2024, "payload");
    for (int i = 0; i < c; ++i) {
      ASSERT_EQ(buf[static_cast<std::size_t>(i)], rng.uniform_u64(0, ~0ULL));
    }
  }).clean());
}

TEST_P(CollectiveSweep, AllgatherEqualsGatherPlusBcast) {
  World world(opts(nranks()));
  const int c = count();
  EXPECT_TRUE(world.run([c](Mpi& mpi) {
    const int n = mpi.size();
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(c));
    RegisteredBuffer<std::int32_t> via_allgather(
        mpi.registry(), static_cast<std::size_t>(c * n));
    RegisteredBuffer<std::int32_t> via_two_step(
        mpi.registry(), static_cast<std::size_t>(c * n));
    for (int i = 0; i < c; ++i) {
      send[static_cast<std::size_t>(i)] = mpi.rank() * 7 + i;
    }
    mpi.allgather(send.data(), c, kInt32, via_allgather.data(), c, kInt32);
    mpi.gather(send.data(), c, kInt32, via_two_step.data(), c, kInt32, 0);
    mpi.bcast(via_two_step.data(), c * n, kInt32, 0);
    for (std::size_t i = 0; i < via_allgather.size(); ++i) {
      ASSERT_EQ(via_allgather[i], via_two_step[i]);
    }
  }).clean());
}

INSTANTIATE_TEST_SUITE_P(
    RanksByCount, CollectiveSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 16),
                       ::testing::Values(0, 1, 17, 256)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

class DatatypeSweep : public ::testing::TestWithParam<Datatype> {};

TEST_P(DatatypeSweep, AllreduceMaxIdempotentOnEqualInputs) {
  // max(x, x, ..., x) == x for every datatype: exercises the typed
  // reduction dispatch over the whole datatype table.
  World world(opts(4));
  const Datatype dtype = GetParam();
  EXPECT_TRUE(world.run([dtype](Mpi& mpi) {
    const std::size_t esize = datatype_size(dtype);
    RegisteredBuffer<std::byte> send(mpi.registry(), 8 * esize);
    RegisteredBuffer<std::byte> recv(mpi.registry(), 8 * esize);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = static_cast<std::byte>((i * 13 + 1) % 120);  // valid for all types
    }
    mpi.allreduce(send.data(), recv.data(), 8, dtype, kMax);
    for (std::size_t i = 0; i < send.size(); ++i) {
      ASSERT_EQ(recv[i], send[i]);
    }
  }).clean());
}

INSTANTIATE_TEST_SUITE_P(AllDatatypes, DatatypeSweep,
                         ::testing::Values(kChar, kByte, kInt32, kUint32,
                                           kInt64, kUint64, kFloat, kDouble),
                         [](const auto& info) {
                           return std::string(
                               datatype_name(info.param).substr(4));
                         });

class RootSweep : public ::testing::TestWithParam<int> {};

TEST_P(RootSweep, ReduceAndBcastAgreeWithAllreduce) {
  World world(opts(8));
  const std::int32_t root = GetParam();
  EXPECT_TRUE(world.run([root](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 4);
    RegisteredBuffer<double> combined(mpi.registry(), 4);
    RegisteredBuffer<double> reference(mpi.registry(), 4);
    for (std::size_t i = 0; i < 4; ++i) {
      send[i] = (mpi.rank() + 1) * 0.25 + static_cast<double>(i);
    }
    mpi.reduce(send.data(), combined.data(), 4, kDouble, kSum, root);
    mpi.bcast(combined.data(), 4, kDouble, root);
    mpi.allreduce(send.data(), reference.data(), 4, kDouble, kSum);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_NEAR(combined[i], reference[i], 1e-9);
    }
  }).clean());
}

INSTANTIATE_TEST_SUITE_P(EveryRoot, RootSweep, ::testing::Range(0, 8));

TEST(CollectiveProperties, ScanOfLastRankEqualsAllreduce) {
  World world(opts(7));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int64_t> send(mpi.registry(), 2);
    RegisteredBuffer<std::int64_t> prefix(mpi.registry(), 2);
    send[0] = mpi.rank() * 3 + 1;
    send[1] = mpi.rank();
    mpi.scan(send.data(), prefix.data(), 2, kInt64, kSum);
    RegisteredBuffer<std::int64_t> total(mpi.registry(), 2);
    mpi.allreduce(send.data(), total.data(), 2, kInt64, kSum);
    if (mpi.rank() == mpi.size() - 1) {
      EXPECT_EQ(prefix[0], total[0]);
      EXPECT_EQ(prefix[1], total[1]);
    }
  }).clean());
}

TEST(CollectiveProperties, ReduceScatterBlockEqualsAllreduceSlice) {
  World world(opts(6));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int n = mpi.size();
    const int block = 3;
    RegisteredBuffer<std::int32_t> send(mpi.registry(),
                                        static_cast<std::size_t>(block * n));
    for (int i = 0; i < block * n; ++i) {
      send[static_cast<std::size_t>(i)] = mpi.rank() * i + 1;
    }
    RegisteredBuffer<std::int32_t> mine(mpi.registry(),
                                        static_cast<std::size_t>(block));
    mpi.reduce_scatter_block(send.data(), mine.data(), block, kInt32, kSum);
    RegisteredBuffer<std::int32_t> full(mpi.registry(),
                                        static_cast<std::size_t>(block * n));
    mpi.allreduce(send.data(), full.data(), block * n, kInt32, kSum);
    for (int k = 0; k < block; ++k) {
      ASSERT_EQ(mine[static_cast<std::size_t>(k)],
                full[static_cast<std::size_t>(mpi.rank() * block + k)]);
    }
  }).clean());
}

}  // namespace
}  // namespace fastfit::mpi
