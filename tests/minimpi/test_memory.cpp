#include "minimpi/memory.hpp"

#include <gtest/gtest.h>

#include <array>

#include "support/error.hpp"

namespace fastfit::mpi {
namespace {

TEST(Memory, CoversRegisteredRange) {
  MemoryRegistry reg;
  std::array<double, 16> buf{};
  reg.add(buf.data(), sizeof(buf));
  EXPECT_TRUE(reg.covers(buf.data(), sizeof(buf)));
  EXPECT_TRUE(reg.covers(buf.data() + 4, 8 * sizeof(double)));
  EXPECT_NO_THROW(reg.check(buf.data(), sizeof(buf)));
  reg.remove(buf.data());
}

TEST(Memory, OverrunRaisesSimSegFault) {
  MemoryRegistry reg;
  std::array<double, 16> buf{};
  reg.add(buf.data(), sizeof(buf));
  EXPECT_THROW(reg.check(buf.data(), sizeof(buf) + 1), SimSegFault);
  EXPECT_THROW(reg.check(buf.data() + 8, 9 * sizeof(double)), SimSegFault);
  reg.remove(buf.data());
}

TEST(Memory, SegFaultMessageCarriesNoPointerValue) {
  // The message lands in journals and autopsies, so it must be the same on
  // every run; the faulting address is kept in its own field instead.
  MemoryRegistry reg;
  std::array<double, 16> buf{};
  reg.add(buf.data(), sizeof(buf));
  try {
    reg.check(buf.data() + 8, 9 * sizeof(double), "recv buffer");
    FAIL() << "overrun did not fault";
  } catch (const SimSegFault& fault) {
    const auto address = reinterpret_cast<std::uintptr_t>(buf.data() + 8);
    EXPECT_EQ(fault.address(), address);
    EXPECT_EQ(fault.length(), 9 * sizeof(double));
    const std::string message = fault.what();
    EXPECT_EQ(message.find(std::to_string(address)), std::string::npos)
        << message;
    EXPECT_EQ(message,
              "SIGSEGV(sim): recv buffer of 72 bytes leaves every registered "
              "region");
  }
  reg.remove(buf.data());
}

TEST(Memory, UnregisteredPointerFaults) {
  MemoryRegistry reg;
  int x = 0;
  EXPECT_FALSE(reg.covers(&x, sizeof(x)));
  EXPECT_THROW(reg.check(&x, sizeof(x)), SimSegFault);
}

TEST(Memory, ZeroByteAccessAlwaysAllowed) {
  MemoryRegistry reg;
  EXPECT_TRUE(reg.covers(nullptr, 0));
  EXPECT_NO_THROW(reg.check(nullptr, 0));
  int x = 0;
  EXPECT_NO_THROW(reg.check(&x, 0));
}

TEST(Memory, NullWithBytesFaults) {
  MemoryRegistry reg;
  EXPECT_THROW(reg.check(nullptr, 8), SimSegFault);
}

TEST(Memory, RemoveUnknownIsInternalError) {
  MemoryRegistry reg;
  int x = 0;
  EXPECT_THROW(reg.remove(&x), InternalError);
}

TEST(Memory, OverlappingRegistrationRejected) {
  MemoryRegistry reg;
  std::array<char, 64> buf{};
  reg.add(buf.data(), 64);
  EXPECT_THROW(reg.add(buf.data() + 8, 8), InternalError);
  EXPECT_THROW(reg.add(buf.data(), 64), InternalError);
  reg.remove(buf.data());
  EXPECT_NO_THROW(reg.add(buf.data() + 8, 8));
  reg.remove(buf.data() + 8);
}

TEST(Memory, AdjacentRegionsDoNotMerge) {
  // A transfer spanning two separately registered buffers is still a
  // violation: real allocators give no such contiguity guarantee.
  MemoryRegistry reg;
  std::array<char, 32> buf{};
  reg.add(buf.data(), 16);
  reg.add(buf.data() + 16, 16);
  EXPECT_TRUE(reg.covers(buf.data(), 16));
  EXPECT_TRUE(reg.covers(buf.data() + 16, 16));
  EXPECT_FALSE(reg.covers(buf.data(), 32));
  reg.remove(buf.data());
  reg.remove(buf.data() + 16);
}

TEST(Memory, SimSegFaultMessageNamesTheAccess) {
  MemoryRegistry reg;
  int x = 0;
  try {
    reg.check(&x, 4, "bcast receive buffer");
    FAIL();
  } catch (const SimSegFault& e) {
    EXPECT_NE(std::string(e.what()).find("bcast receive buffer"),
              std::string::npos);
  }
}

TEST(Memory, RegisteredBufferRaii) {
  MemoryRegistry reg;
  {
    RegisteredBuffer<double> buf(reg, 8, 1.5);
    EXPECT_EQ(reg.region_count(), 1u);
    EXPECT_EQ(buf.size(), 8u);
    EXPECT_DOUBLE_EQ(buf[3], 1.5);
    EXPECT_TRUE(reg.covers(buf.data(), 8 * sizeof(double)));
  }
  EXPECT_EQ(reg.region_count(), 0u);
}

TEST(Memory, RegionCount) {
  MemoryRegistry reg;
  RegisteredBuffer<int> a(reg, 4);
  RegisteredBuffer<int> b(reg, 4);
  EXPECT_EQ(reg.region_count(), 2u);
}

}  // namespace
}  // namespace fastfit::mpi
