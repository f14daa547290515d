// Emergent fault behaviour: corrupting a collective parameter through the
// tool-hook chain must produce the failure class the paper's taxonomy
// expects — without any failure-specific code in the collectives
// themselves. These tests install a minimal corrupting hook directly; the
// full injector (src/inject) builds on the same mechanism.

#include <gtest/gtest.h>

#include "minimpi/mpi.hpp"
#include "support/bitops.hpp"

namespace fastfit::mpi {
namespace {

using namespace std::chrono_literals;

WorldOptions opts(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

/// Applies a user-supplied mutation to the first collective call on a
/// chosen rank, then stands down.
class OneShotCorruptor : public ToolHooks {
 public:
  OneShotCorruptor(int rank, std::function<void(CollectiveCall&)> mutate)
      : rank_(rank), mutate_(std::move(mutate)) {}

  void on_enter(CollectiveCall& call, Mpi& mpi) override {
    if (mpi.world_rank() == rank_ && !done_.exchange(true)) {
      mutate_(call);
    }
  }
  void on_exit(const CollectiveCall&, Mpi&) override {}

 private:
  int rank_;
  std::function<void(CollectiveCall&)> mutate_;
  std::atomic<bool> done_{false};
};

WorldResult run_allreduce_with(World& world, ToolHooks& hooks) {
  world.set_tools(&hooks);
  return world.run([](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 8, 1.0);
    RegisteredBuffer<double> recv(mpi.registry(), 8);
    mpi.allreduce(send.data(), recv.data(), 8, kDouble, kSum);
  });
}

TEST(FaultyCollectives, InvalidDatatypeHandleIsMpiErr) {
  World world(opts(4));
  OneShotCorruptor hooks(2, [](CollectiveCall& call) {
    call.datatype = static_cast<Datatype>(
        with_flipped_bit(raw(call.datatype), 25));  // breaks the magic tag
  });
  const auto result = run_allreduce_with(world, hooks);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidDatatype);
  EXPECT_EQ(result.event->rank, 2);
}

TEST(FaultyCollectives, NegativeCountIsMpiErr) {
  World world(opts(4));
  OneShotCorruptor hooks(1, [](CollectiveCall& call) {
    call.count = with_flipped_bit(call.count, 31);  // sign bit
  });
  const auto result = run_allreduce_with(world, hooks);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidCount);
}

TEST(FaultyCollectives, HugeCountIsSimulatedSegFault) {
  World world(opts(4));
  OneShotCorruptor hooks(0, [](CollectiveCall& call) {
    call.count = with_flipped_bit(call.count, 20);  // 8 -> ~1M elements
  });
  const auto result = run_allreduce_with(world, hooks);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::SegFault);
  EXPECT_EQ(result.event->rank, 0);
}

TEST(FaultyCollectives, InvalidOpHandleIsMpiErr) {
  World world(opts(4));
  OneShotCorruptor hooks(3, [](CollectiveCall& call) {
    call.op = static_cast<Op>(with_flipped_bit(raw(call.op), 24));
  });
  const auto result = run_allreduce_with(world, hooks);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidOp);
}

TEST(FaultyCollectives, DifferentValidOpSilentlyCorruptsResult) {
  // SUM -> PROD on one rank: no error anywhere, wrong numbers — the
  // WRONG_ANS precursor the trial runner detects by checksum.
  World world(opts(4));
  OneShotCorruptor hooks(1, [](CollectiveCall& call) { call.op = kProd; });
  world.set_tools(&hooks);
  double observed = 0.0;
  const auto result = world.run([&observed](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 1, 2.0);
    RegisteredBuffer<double> recv(mpi.registry(), 1);
    mpi.allreduce(send.data(), recv.data(), 1, kDouble, kSum);
    if (mpi.world_rank() == 1) observed = recv[0];
  });
  EXPECT_TRUE(result.clean());
  EXPECT_NE(observed, 8.0);  // 2+2+2+2; rank 1 combined with products
}

TEST(FaultyCollectives, InvalidCommHandleIsMpiErr) {
  World world(opts(4));
  OneShotCorruptor hooks(2, [](CollectiveCall& call) {
    call.comm = static_cast<Comm>(with_flipped_bit(raw(call.comm), 27));
  });
  const auto result = run_allreduce_with(world, hooks);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidComm);
}

TEST(FaultyCollectives, RootOutOfRangeIsMpiErr) {
  World world(opts(4));
  OneShotCorruptor hooks(1, [](CollectiveCall& call) {
    call.root = with_flipped_bit(call.root, 10);  // 0 -> 1024
  });
  world.set_tools(&hooks);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
    mpi.bcast(buf.data(), 4, kDouble, 0);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, MpiErrc::InvalidRoot);
}

TEST(FaultyCollectives, DivergentValidRootHangsTheJob) {
  // Rank 3 believes the bcast is rooted at 1; everyone else at 0. In rank
  // 3's tree its parent is rank 1, which (being a leaf of the true tree)
  // never sends to it: the receive goes unmatched, the world proves the
  // deadlock — the paper's INF_LOOP response.
  World world(opts(4));
  OneShotCorruptor hooks(3, [](CollectiveCall& call) { call.root = 1; });
  world.set_tools(&hooks);
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 4, 1.0);
    mpi.bcast(buf.data(), 4, kDouble, 0);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::Timeout);
}

TEST(FaultyCollectives, DivergentValidRootCanAlsoCorruptSilently) {
  // Rank 1 believing *itself* the root skips its receive and keeps stale
  // data: the job completes but rank 1's buffer is wrong — the other
  // manifestation of a root fault (WRONG_ANS rather than INF_LOOP).
  World world(opts(4));
  OneShotCorruptor hooks(1, [](CollectiveCall& call) { call.root = 1; });
  world.set_tools(&hooks);
  std::atomic<double> rank1_value{0.0};
  const auto result = world.run([&rank1_value](Mpi& mpi) {
    RegisteredBuffer<double> buf(mpi.registry(), 1,
                                 mpi.rank() == 0 ? 7.0 : -1.0);
    mpi.bcast(buf.data(), 1, kDouble, 0);
    if (mpi.world_rank() == 1) rank1_value.store(buf[0]);
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(rank1_value.load(), -1.0);  // never updated
}

TEST(FaultyCollectives, SendBufferBitFlipPropagatesSilently) {
  World world(opts(4));
  OneShotCorruptor hooks(2, [](CollectiveCall& call) {
    auto* bytes = static_cast<std::byte*>(call.sendbuf);
    flip_bit(std::span<std::byte>(bytes, 8 * sizeof(double)), 7);
  });
  world.set_tools(&hooks);
  std::atomic<int> wrong{0};
  const auto result = world.run([&wrong](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 8, 1.0);
    RegisteredBuffer<double> recv(mpi.registry(), 8);
    mpi.allreduce(send.data(), recv.data(), 8, kDouble, kSum);
    for (std::size_t i = 0; i < 8; ++i) {
      if (recv[i] != 4.0) wrong.fetch_add(1);
    }
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(wrong.load(), 4);  // one corrupted element, observed by all ranks
}

TEST(FaultyCollectives, DatatypeConfusionBetweenValidTypesShearsPayloads) {
  // double -> float on one rank: transfers shrink; depending on role this
  // surfaces as truncation (MPI_ERR) or a silent partial payload. Either
  // way it must not pass as fully clean AND correct.
  World world(opts(4));
  OneShotCorruptor hooks(1, [](CollectiveCall& call) {
    call.datatype = kFloat;
  });
  world.set_tools(&hooks);
  std::atomic<bool> rank0_correct{true};
  const auto result = world.run([&rank0_correct](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 8, 1.0);
    RegisteredBuffer<double> recv(mpi.registry(), 8);
    mpi.allreduce(send.data(), recv.data(), 8, kDouble, kSum);
    if (mpi.world_rank() == 0) {
      for (std::size_t i = 0; i < 8; ++i) {
        if (recv[i] != 4.0) rank0_correct.store(false);
      }
    }
  });
  if (result.clean()) {
    EXPECT_FALSE(rank0_correct.load());
  } else {
    EXPECT_EQ(result.event->type, EventType::MpiErr);
  }
}

TEST(FaultyCollectives, RecvBufFlipBeforeCollectiveIsOverwritten) {
  // The paper observes recvbuf faults are near-harmless: the collective
  // call overwrites the flipped bit.
  World world(opts(4));
  OneShotCorruptor hooks(2, [](CollectiveCall& call) {
    auto* bytes = static_cast<std::byte*>(call.recvbuf);
    flip_bit(std::span<std::byte>(bytes, 8 * sizeof(double)), 13);
  });
  world.set_tools(&hooks);
  std::atomic<int> wrong{0};
  const auto result = world.run([&wrong](Mpi& mpi) {
    RegisteredBuffer<double> send(mpi.registry(), 8, 1.0);
    RegisteredBuffer<double> recv(mpi.registry(), 8);
    mpi.allreduce(send.data(), recv.data(), 8, kDouble, kSum);
    for (std::size_t i = 0; i < 8; ++i) {
      if (recv[i] != 4.0) wrong.fetch_add(1);
    }
  });
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(wrong.load(), 0);
}

TEST(FaultyCollectives, HooksSeeCallSiteIdentity) {
  World world(opts(2));
  std::atomic<std::uint32_t> site{0};
  std::atomic<std::uint64_t> last_invocation{0};
  class Recorder : public ToolHooks {
   public:
    Recorder(std::atomic<std::uint32_t>& s, std::atomic<std::uint64_t>& i)
        : site_(s), inv_(i) {}
    void on_enter(CollectiveCall& call, Mpi&) override {
      site_.store(call.site_id);
      inv_.store(call.invocation);
    }
    void on_exit(const CollectiveCall&, Mpi&) override {}

   private:
    std::atomic<std::uint32_t>& site_;
    std::atomic<std::uint64_t>& inv_;
  } recorder(site, last_invocation);
  world.set_tools(&recorder);
  world.run([](Mpi& mpi) {
    for (int i = 0; i < 3; ++i) mpi.barrier();  // one site, three invocations
  });
  EXPECT_NE(site.load(), 0u);
  EXPECT_EQ(last_invocation.load(), 2u);
}

}  // namespace
}  // namespace fastfit::mpi
