// Per-kind validation coverage: every collective must reject each class
// of invalid argument with the right MPI error code, and must respect the
// MPI significance rules (parameters that this rank never reads are not
// validated).

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

constexpr auto kBadType = static_cast<Datatype>(0xBAD);
constexpr auto kBadOp = static_cast<Op>(0xBAD);
constexpr auto kBadComm = static_cast<Comm>(0xBAD);

/// Runs `body` on every rank of a 4-rank world and expects the given MPI
/// error code as the initiating event.
template <typename Body>
void expect_mpi_error(MpiErrc code, Body body) {
  World world(opts(4));
  const auto result = world.run([&](Mpi& mpi) { body(mpi); });
  ASSERT_FALSE(result.clean());
  ASSERT_EQ(result.event->type, EventType::MpiErr);
  EXPECT_EQ(*result.event->mpi_code, code);
}

TEST(Validation, BcastRejectsEachBadArgument) {
  expect_mpi_error(MpiErrc::InvalidCount, [](Mpi& mpi) {
    RegisteredBuffer<double> b(mpi.registry(), 4);
    mpi.bcast(b.data(), -2, kDouble, 0);
  });
  expect_mpi_error(MpiErrc::InvalidDatatype, [](Mpi& mpi) {
    RegisteredBuffer<double> b(mpi.registry(), 4);
    mpi.bcast(b.data(), 4, kBadType, 0);
  });
  expect_mpi_error(MpiErrc::InvalidRoot, [](Mpi& mpi) {
    RegisteredBuffer<double> b(mpi.registry(), 4);
    mpi.bcast(b.data(), 4, kDouble, 99);
  });
  expect_mpi_error(MpiErrc::InvalidRoot, [](Mpi& mpi) {
    RegisteredBuffer<double> b(mpi.registry(), 4);
    mpi.bcast(b.data(), 4, kDouble, -1);
  });
  expect_mpi_error(MpiErrc::InvalidComm, [](Mpi& mpi) {
    RegisteredBuffer<double> b(mpi.registry(), 4);
    mpi.bcast(b.data(), 4, kDouble, 0, kBadComm);
  });
}

TEST(Validation, ReduceFamilyRejectsBadOp) {
  expect_mpi_error(MpiErrc::InvalidOp, [](Mpi& mpi) {
    RegisteredBuffer<double> s(mpi.registry(), 2);
    RegisteredBuffer<double> r(mpi.registry(), 2);
    mpi.reduce(s.data(), r.data(), 2, kDouble, kBadOp, 0);
  });
  expect_mpi_error(MpiErrc::InvalidOp, [](Mpi& mpi) {
    RegisteredBuffer<double> s(mpi.registry(), 2);
    RegisteredBuffer<double> r(mpi.registry(), 2);
    mpi.allreduce(s.data(), r.data(), 2, kDouble, kBadOp);
  });
  expect_mpi_error(MpiErrc::InvalidOp, [](Mpi& mpi) {
    RegisteredBuffer<double> s(mpi.registry(), 2);
    RegisteredBuffer<double> r(mpi.registry(), 2);
    mpi.scan(s.data(), r.data(), 2, kDouble, kBadOp);
  });
  // Bitwise op over floating point is also an op error.
  expect_mpi_error(MpiErrc::InvalidOp, [](Mpi& mpi) {
    RegisteredBuffer<double> s(mpi.registry(), 2);
    RegisteredBuffer<double> r(mpi.registry(), 2);
    mpi.allreduce(s.data(), r.data(), 2, kDouble, kBxor);
  });
}

TEST(Validation, GatherRecvArgsSignificantOnlyAtRoot) {
  // Invalid recv-side arguments at a NON-root rank must be ignored.
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 2, mpi.rank());
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 8);
    if (mpi.rank() == 0) {
      mpi.gather(s.data(), 2, kInt32, r.data(), 2, kInt32, 0);
    } else {
      mpi.gather(s.data(), 2, kInt32, nullptr, -7, kBadType, 0);
    }
  }).clean());
  // ...but at the root they are validated.
  expect_mpi_error(MpiErrc::InvalidDatatype, [](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 2, 1);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 8);
    mpi.gather(s.data(), 2, kInt32, r.data(), 2,
               mpi.rank() == 0 ? kBadType : kInt32, 0);
  });
}

TEST(Validation, ScatterSendArgsSignificantOnlyAtRoot) {
  World world(opts(4));
  EXPECT_TRUE(world.run([](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 8, 3);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 2);
    if (mpi.rank() == 1) {
      mpi.scatter(s.data(), 2, kInt32, r.data(), 2, kInt32, 1);
    } else {
      // Bad send-side args away from the root: insignificant.
      mpi.scatter(nullptr, -1, kBadType, r.data(), 2, kInt32, 1);
    }
  }).clean());
}

TEST(Validation, AlltoallvRejectsBadArrays) {
  expect_mpi_error(MpiErrc::InvalidCount, [](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 4);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 4);
    std::vector<std::int32_t> counts{1, 1, 1, -1};  // negative entry
    std::vector<std::int32_t> displs{0, 1, 2, 3};
    mpi.alltoallv(s.data(), counts, displs, kInt32, r.data(), counts, displs,
                  kInt32);
  });
  expect_mpi_error(MpiErrc::InvalidCount, [](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 4);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 4);
    std::vector<std::int32_t> short_counts{1, 1};  // wrong length
    std::vector<std::int32_t> displs{0, 1, 2, 3};
    std::vector<std::int32_t> ok{1, 1, 1, 1};
    mpi.alltoallv(s.data(), short_counts, displs, kInt32, r.data(), ok,
                  displs, kInt32);
  });
  expect_mpi_error(MpiErrc::InvalidCount, [](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 4);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 4);
    std::vector<std::int32_t> counts{1, 1, 1, 1};
    std::vector<std::int32_t> neg_displs{0, 1, 2, -3};
    mpi.alltoallv(s.data(), counts, neg_displs, kInt32, r.data(), counts,
                  neg_displs, kInt32);
  });
}

TEST(Validation, BarrierOnlyValidatesComm) {
  expect_mpi_error(MpiErrc::InvalidComm,
                   [](Mpi& mpi) { mpi.barrier(kBadComm); });
}

TEST(Validation, HugeCountFaultsAtPackTime) {
  // Validation passes (positive count, valid type); the registry catches
  // the access — SEG_FAULT, not MPI_ERR, matching real MPIs that do not
  // know buffer sizes.
  World world(opts(4));
  const auto result = world.run([](Mpi& mpi) {
    RegisteredBuffer<double> s(mpi.registry(), 4);
    RegisteredBuffer<double> r(mpi.registry(), 4);
    mpi.allreduce(s.data(), r.data(), 1 << 20, kDouble, kSum);
  });
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.event->type, EventType::SegFault);
}

TEST(Validation, ReduceScatterBlockAndAllgathervChecks) {
  expect_mpi_error(MpiErrc::InvalidOp, [](Mpi& mpi) {
    RegisteredBuffer<std::int64_t> s(mpi.registry(), 8);
    RegisteredBuffer<std::int64_t> r(mpi.registry(), 2);
    mpi.reduce_scatter_block(s.data(), r.data(), 2, kInt64, kBadOp);
  });
  expect_mpi_error(MpiErrc::InvalidCount, [](Mpi& mpi) {
    RegisteredBuffer<std::int32_t> s(mpi.registry(), 1, 1);
    RegisteredBuffer<std::int32_t> r(mpi.registry(), 4);
    std::vector<std::int32_t> counts{1, 1, -1, 1};
    std::vector<std::int32_t> displs{0, 1, 2, 3};
    mpi.allgatherv(s.data(), 1, kInt32, r.data(), counts, displs, kInt32);
  });
}

}  // namespace
}  // namespace fastfit::mpi
