// Communicator management property sweeps.

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

class SplitSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int nranks() const { return std::get<0>(GetParam()); }
  int colors() const { return std::get<1>(GetParam()); }
};

TEST_P(SplitSweep, PartitionIsConsistent) {
  World world(opts(nranks()));
  const int ncolors = colors();
  EXPECT_TRUE(world.run([ncolors](Mpi& mpi) {
    const int me = mpi.rank();
    const int n = mpi.size();
    const Comm sub = mpi.comm_split(kCommWorld, me % ncolors, me);
    // Expected group size: ranks with my color.
    int expected = 0;
    for (int r = 0; r < n; ++r) {
      if (r % ncolors == me % ncolors) ++expected;
    }
    ASSERT_EQ(mpi.size(sub), expected);
    ASSERT_EQ(mpi.rank(sub), me / ncolors);
    // A collective on the subcommunicator touches exactly its members.
    const std::int32_t sum = mpi.allreduce_value<std::int32_t>(me, kSum, sub);
    std::int32_t expect_sum = 0;
    for (int r = me % ncolors; r < n; r += ncolors) expect_sum += r;
    ASSERT_EQ(sum, expect_sum);
  }).clean());
}

INSTANTIATE_TEST_SUITE_P(
    RanksByColors, SplitSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 12),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CommSplit, KeyControlsOrdering) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int me = mpi.rank();
    // All one color, keys reversed: rank order flips.
    const Comm sub = mpi.comm_split(kCommWorld, 0, -me);
    EXPECT_EQ(mpi.rank(sub), mpi.size() - 1 - me);
  }).clean());
}

TEST(CommSplit, NestedSplits) {
  World world(opts(8));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const int me = mpi.rank();
    const Comm half = mpi.comm_split(kCommWorld, me / 4, me);
    const Comm quarter = mpi.comm_split(half, mpi.rank(half) / 2, me);
    EXPECT_EQ(mpi.size(half), 4);
    EXPECT_EQ(mpi.size(quarter), 2);
    const auto v = mpi.allreduce_value<std::int32_t>(1, kSum, quarter);
    EXPECT_EQ(v, 2);
  }).clean());
}

TEST(CommSplit, RepeatedSplitsProduceDistinctCommunicators) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const Comm a = mpi.comm_split(kCommWorld, 0, mpi.rank());
    const Comm b = mpi.comm_split(kCommWorld, 0, mpi.rank());
    EXPECT_NE(a, b);  // distinct traffic spaces even with equal groups
    // Interleaved collectives on both stay separated.
    const auto va = mpi.allreduce_value<std::int32_t>(1, kSum, a);
    const auto vb = mpi.allreduce_value<std::int32_t>(2, kSum, b);
    EXPECT_EQ(va, 4);
    EXPECT_EQ(vb, 8);
  }).clean());
}

TEST(CommSplit, CollectiveOnParentStillWorksAfterSplit) {
  World world(opts(6));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    const Comm sub = mpi.comm_split(kCommWorld, mpi.rank() % 2, mpi.rank());
    (void)sub;
    const auto v = mpi.allreduce_value<std::int32_t>(1, kSum);
    EXPECT_EQ(v, 6);
  }).clean());
}

TEST(CommSplit, SingletonCommunicators) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    // Every rank its own color: communicators of size 1.
    const Comm solo = mpi.comm_split(kCommWorld, mpi.rank(), 0);
    EXPECT_EQ(mpi.size(solo), 1);
    EXPECT_EQ(mpi.rank(solo), 0);
    const auto v = mpi.allreduce_value<std::int32_t>(7, kSum, solo);
    EXPECT_EQ(v, 7);
    mpi.barrier(solo);
  }).clean());
}

}  // namespace
}  // namespace fastfit::mpi
