// Alternative collective algorithms: functional equivalence to the
// defaults in fault-free runs, and the algorithm-specific fault
// behaviours that motivate the ablation.

#include <gtest/gtest.h>

#include "minimpi/mpi.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n, CollectiveAlgorithms algorithms) {
  WorldOptions o;
  o.nranks = n;
  o.algorithms = algorithms;
  return o;
}

CollectiveAlgorithms chain_and_reduce_bcast() {
  CollectiveAlgorithms a;
  a.bcast = CollectiveAlgorithms::Bcast::Chain;
  a.allreduce = CollectiveAlgorithms::Allreduce::ReduceBcast;
  return a;
}

class VariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(VariantSweep, ChainBcastDeliversFromEveryRoot) {
  World world(opts(GetParam(), chain_and_reduce_bcast()));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    for (std::int32_t root = 0; root < mpi.size(); ++root) {
      RegisteredBuffer<std::int32_t> buf(mpi.registry(), 3);
      if (mpi.rank() == root) {
        for (std::size_t i = 0; i < 3; ++i) {
          buf[i] = root * 10 + static_cast<std::int32_t>(i);
        }
      }
      mpi.bcast(buf.data(), 3, kInt32, root);
      for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(buf[i], root * 10 + static_cast<std::int32_t>(i));
      }
    }
  }).clean());
}

TEST_P(VariantSweep, ReduceBcastAllreduceMatchesDefault) {
  const int n = GetParam();
  std::vector<double> via_default;
  std::vector<double> via_variant;
  for (bool variant : {false, true}) {
    CollectiveAlgorithms algorithms;
    if (variant) algorithms = chain_and_reduce_bcast();
    World world(opts(n, algorithms));
    auto& sink = variant ? via_variant : via_default;
    sink.assign(static_cast<std::size_t>(n), 0.0);
    EXPECT_TRUE(world.run([&sink](Mpi& mpi) {
      RegisteredBuffer<double> send(mpi.registry(), 4);
      RegisteredBuffer<double> recv(mpi.registry(), 4);
      for (std::size_t i = 0; i < 4; ++i) {
        send[i] = mpi.rank() * 1.5 + static_cast<double>(i);
      }
      mpi.allreduce(send.data(), recv.data(), 4, kDouble, kSum);
      sink[static_cast<std::size_t>(mpi.rank())] = recv[0] + recv[3];
    }).clean());
  }
  EXPECT_EQ(via_default, via_variant);
}

INSTANTIATE_TEST_SUITE_P(Ranks, VariantSweep, ::testing::Values(1, 2, 5, 8, 12));

TEST(CollVariants, ChainBcastZeroCount) {
  World world(opts(4, chain_and_reduce_bcast()));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1, 7.0);
    mpi.bcast(buf.data(), 0, kDouble, 0);
    EXPECT_DOUBLE_EQ(buf[0], 7.0);
  }).clean());
}

TEST(CollVariants, ChainBreakStallsDownstreamOnly) {
  // Chain-specific fault behaviour: if a middle rank believes a different
  // root, its receive direction flips and the pipeline breaks there.
  class RootFlip : public ToolHooks {
   public:
    void on_enter(CollectiveCall& call, Mpi& mpi) override {
      if (mpi.world_rank() == 2 && call.kind == CollectiveKind::Bcast &&
          !fired_.exchange(true)) {
        call.root = 2;  // believes itself the root: never receives
      }
    }
    void on_exit(const CollectiveCall&, Mpi&) override {}

   private:
    std::atomic<bool> fired_{false};
  } hooks;

  CollectiveAlgorithms algorithms;
  algorithms.bcast = CollectiveAlgorithms::Bcast::Chain;
  World world(opts(6, algorithms));
  world.set_tools(&hooks);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 2,
                                 mpi.rank() == 0 ? 9.0 : 0.0);
    mpi.bcast(buf.data(), 2, kDouble, 0);
  });
  // Rank 2 skips its receive and forwards stale data; ranks 3..5 get the
  // wrong payload but nobody deadlocks (rank 2 still forwards), OR if the
  // forward direction also diverges the job hangs. Either way: not clean
  // with correct data — the run must end with SUCCESS-but-wrong-data
  // (clean world, wrong buffer) or a timeout.
  if (!result.clean()) {
    EXPECT_EQ(result.event->type, EventType::Timeout);
  }
}

TEST(CollVariants, MixedAlgorithmsInteroperateWithOtherCollectives) {
  World world(opts(6, chain_and_reduce_bcast()));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    // bcast -> allreduce -> barrier -> allgather pipeline, variant algos.
    const double seedv = mpi.bcast_value(mpi.rank() == 0 ? 2.5 : 0.0, 0);
    const double total = mpi.allreduce_value(seedv, kSum);
    EXPECT_DOUBLE_EQ(total, 2.5 * 6);
    mpi.barrier();
    RegisteredBuffer<std::int32_t> mine(mpi.registry(), 1, mpi.rank());
    RegisteredBuffer<std::int32_t> all(mpi.registry(), 6);
    mpi.allgather(mine.data(), 1, kInt32, all.data(), 1, kInt32);
    for (int r = 0; r < 6; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)], r);
    }
  }).clean());
}

}  // namespace
}  // namespace fastfit::mpi
