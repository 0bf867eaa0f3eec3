#include "dmc/demand_zero_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <utility>

namespace casurf {
namespace {

TEST(DemandZeroArray, ElementsStartAtZero) {
  DemandZeroArray<std::uint32_t> a(10000);
  ASSERT_EQ(a.size(), 10000u);
  for (const std::uint32_t x : a) ASSERT_EQ(x, 0u);
  a[0] = 7;
  a[9999] = 9;
  EXPECT_EQ(a[0], 7u);
  EXPECT_EQ(a[5000], 0u);
  EXPECT_EQ(a[9999], 9u);
}

TEST(DemandZeroArray, MoveEmptiesTheSourceAndKeepsTheData) {
  DemandZeroArray<std::uint8_t> a(5000);
  a[4321] = 42;
  const std::uint8_t* const data = a.data();

  DemandZeroArray<std::uint8_t> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b[4321], 42);

  DemandZeroArray<std::uint8_t> c(16);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.size(), 5000u);
  EXPECT_EQ(c[4321], 42);
  EXPECT_EQ(c[0], 0);
}

TEST(DemandZeroArray, ZeroLengthConstructionMapsNothing) {
  const DemandZeroArray<std::uint32_t> empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.begin(), empty.end());
  const DemandZeroArray<std::uint32_t> defaulted;
  EXPECT_EQ(defaulted.size(), 0u);
  EXPECT_EQ(defaulted.data(), nullptr);
}

TEST(DemandZeroArray, SizesThatCannotBeMappedThrowBadAlloc) {
  // Too many bytes to count, and more than the address space holds.
  EXPECT_THROW((void)DemandZeroArray<std::uint32_t>(SIZE_MAX / 2), std::bad_alloc);
  EXPECT_THROW((void)DemandZeroArray<std::uint8_t>(std::size_t{1} << 60), std::bad_alloc);
}

}  // namespace
}  // namespace casurf
