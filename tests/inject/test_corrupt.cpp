// Parameter-corruption unit tests: every injectable parameter must be
// reachable and the flip must follow the single-bit fault model.

#include <gtest/gtest.h>

#include "inject/corrupt.hpp"
#include "minimpi/mpi.hpp"
#include "support/bitops.hpp"

namespace fastfit::inject {
namespace {

using namespace std::chrono_literals;

// Runs `body` on a 2-rank world's rank 0 with a prepared allreduce call.
template <typename Body>
void with_allreduce_call(Body body) {
  mpi::WorldOptions o;
  o.nranks = 2;
  mpi::World world(o);
  world.run([&](mpi::Mpi& mpi) {
    if (mpi.world_rank() != 0) return;
    mpi::RegisteredBuffer<double> send(mpi.registry(), 8, 1.5);
    mpi::RegisteredBuffer<double> recv(mpi.registry(), 8);
    mpi::CollectiveCall call;
    call.kind = mpi::CollectiveKind::Allreduce;
    call.sendbuf = send.data();
    call.recvbuf = recv.data();
    call.count = 8;
    call.datatype = mpi::kDouble;
    call.op = mpi::kSum;
    call.comm = mpi::kCommWorld;
    body(call, mpi, send, recv);
  });
}

TEST(Corrupt, SendBufFlipsExactlyOneBit) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>& send,
                         mpi::RegisteredBuffer<double>&) {
    std::vector<double> before(send.begin(), send.end());
    RngStream rng(7, "t");
    ASSERT_TRUE(corrupt_parameter(call, mpi::Param::SendBuf, rng, mpi));
    const auto dist = hamming_distance(
        std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(before.data()),
            before.size() * sizeof(double)),
        std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(send.data()),
            send.size() * sizeof(double)));
    EXPECT_EQ(dist, 1u);
  });
}

TEST(Corrupt, RecvBufFlipStaysInsideBuffer) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>& recv) {
    std::vector<double> before(recv.begin(), recv.end());
    RngStream rng(9, "t");
    ASSERT_TRUE(corrupt_parameter(call, mpi::Param::RecvBuf, rng, mpi));
    int changed = 0;
    for (std::size_t i = 0; i < recv.size(); ++i) {
      if (before[i] != recv[i]) ++changed;
    }
    EXPECT_EQ(changed, 1);
  });
}

TEST(Corrupt, ScalarParamsChangeByOneBit) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>&) {
    for (int round = 0; round < 16; ++round) {
      auto copy = call;
      RngStream rng(100 + static_cast<std::uint64_t>(round), "t");
      ASSERT_TRUE(corrupt_parameter(copy, mpi::Param::Count, rng, mpi));
      const std::uint32_t diff = static_cast<std::uint32_t>(copy.count) ^
                                 static_cast<std::uint32_t>(call.count);
      EXPECT_NE(diff, 0u);
      EXPECT_EQ(diff & (diff - 1), 0u) << "more than one bit flipped";
    }
  });
}

TEST(Corrupt, HandleParamsFlipOneBitOfRawHandle) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>&) {
    for (auto param :
         {mpi::Param::Datatype, mpi::Param::Op, mpi::Param::Comm}) {
      auto copy = call;
      RngStream rng(55, "t");
      ASSERT_TRUE(corrupt_parameter(copy, param, rng, mpi));
      const auto xorred =
          param == mpi::Param::Datatype
              ? (mpi::raw(copy.datatype) ^ mpi::raw(call.datatype))
              : param == mpi::Param::Op
                    ? (mpi::raw(copy.op) ^ mpi::raw(call.op))
                    : (mpi::raw(copy.comm) ^ mpi::raw(call.comm));
      EXPECT_NE(xorred, 0u);
      EXPECT_EQ(xorred & (xorred - 1), 0u);
    }
  });
}

TEST(Corrupt, ZeroCountBufferFizzles) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>&) {
    call.count = 0;
    RngStream rng(3, "t");
    EXPECT_FALSE(corrupt_parameter(call, mpi::Param::SendBuf, rng, mpi));
  });
}

TEST(Corrupt, UnmappedBufferFizzlesInsteadOfCrashing) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>&) {
    double unregistered[8] = {};
    call.sendbuf = unregistered;
    RngStream rng(3, "t");
    EXPECT_FALSE(corrupt_parameter(call, mpi::Param::SendBuf, rng, mpi));
  });
}

TEST(Corrupt, DeterministicPerTrialStream) {
  with_allreduce_call([](mpi::CollectiveCall& call, mpi::Mpi& mpi,
                         mpi::RegisteredBuffer<double>&,
                         mpi::RegisteredBuffer<double>&) {
    auto a = call;
    auto b = call;
    RngStream r1(42, "bitflip", 5);
    RngStream r2(42, "bitflip", 5);
    corrupt_parameter(a, mpi::Param::Count, r1, mpi);
    corrupt_parameter(b, mpi::Param::Count, r2, mpi);
    EXPECT_EQ(a.count, b.count);
  });
}

TEST(Corrupt, AlltoallvCountFaultLandsInArray) {
  mpi::WorldOptions o;
  o.nranks = 2;
  mpi::World world(o);
  world.run([&](mpi::Mpi& mpi) {
    if (mpi.world_rank() != 0) return;
    std::vector<std::int32_t> scounts{1, 1};
    std::vector<std::int32_t> sdispls{0, 1};
    mpi::CollectiveCall call;
    call.kind = mpi::CollectiveKind::Alltoallv;
    call.sendcounts = &scounts;
    call.sdispls = &sdispls;
    call.comm = mpi::kCommWorld;
    const auto before = scounts;
    RngStream rng(11, "t");
    ASSERT_TRUE(corrupt_parameter(call, mpi::Param::Count, rng, mpi));
    EXPECT_NE(scounts, before);
    int changed = 0;
    for (std::size_t i = 0; i < scounts.size(); ++i) {
      if (scounts[i] != before[i]) ++changed;
    }
    EXPECT_EQ(changed, 1);
  });
}

}  // namespace
}  // namespace fastfit::inject
