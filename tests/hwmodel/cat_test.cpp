#include "hwmodel/cat.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace greennfv::hwmodel {
namespace {

NodeSpec spec() { return NodeSpec{}; }

TEST(Cat, AllocatableExcludesDdio) {
  const CatAllocator cat(spec());
  EXPECT_EQ(cat.allocatable_ways(), 18);  // 20 ways - 2 DDIO
}

TEST(Cat, SetClosAndQuery) {
  CatAllocator cat(spec());
  cat.set_clos(0, 0, 4);
  EXPECT_TRUE(cat.has_clos(0));
  EXPECT_EQ(cat.way_count(0), 4);
  EXPECT_EQ(cat.bytes(0), 4ull * spec().bytes_per_way());
}

TEST(Cat, RejectsMalformedMasks) {
  CatAllocator cat(spec());
  EXPECT_THROW(cat.set_clos(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(cat.set_clos(0, -1, 2), std::invalid_argument);
  EXPECT_THROW(cat.set_clos(0, 17, 2), std::invalid_argument);  // overflow
}

TEST(Cat, PartitionUsesAllWays) {
  CatAllocator cat(spec());
  const auto ways = cat.partition({0.9, 0.1});
  EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0), 18);
  EXPECT_GT(ways[0], ways[1]);
  EXPECT_GE(ways[1], 1);  // floor of one way
}

class CatPartitions
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(CatPartitions, SumsToAllocatableAndRespectsFloor) {
  CatAllocator cat(spec());
  const auto ways = cat.partition(GetParam());
  EXPECT_EQ(std::accumulate(ways.begin(), ways.end(), 0),
            cat.allocatable_ways());
  for (const int w : ways) EXPECT_GE(w, 1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAllocations, CatPartitions,
    ::testing::Values(std::vector<double>{0.9, 0.1},
                      std::vector<double>{0.7, 0.3},
                      std::vector<double>{0.4, 0.6},
                      std::vector<double>{0.2, 0.8},
                      std::vector<double>{1.0, 1.0, 1.0},
                      std::vector<double>{0.5, 0.25, 0.125, 0.125}));

TEST(Cat, PartitionProportionality) {
  CatAllocator cat(spec());
  const auto ways = cat.partition({0.9, 0.1});
  // 90/10 of 18 ways ~ 16/2.
  EXPECT_NEAR(ways[0], 16, 1);
  EXPECT_NEAR(ways[1], 2, 1);
}

TEST(Cat, PartitionErrors) {
  CatAllocator cat(spec());
  EXPECT_THROW(cat.partition({}), std::invalid_argument);
  EXPECT_THROW(cat.partition({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(cat.partition({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(cat.partition(std::vector<double>(19, 1.0)),
               std::invalid_argument);
}

TEST(Cat, PartitionAndApportionAgreeForEveryClassCount) {
  CatAllocator cat(spec());
  const int total = cat.allocatable_ways();
  for (int n = 1; n <= total; ++n) {
    SCOPED_TRACE(n);
    std::vector<std::vector<double>> shapes(3);
    for (int i = 0; i < n; ++i) {
      shapes[0].push_back(1.0);                 // uniform
      shapes[1].push_back(1.0 / (i + 1.0));     // harmonic
      shapes[2].push_back(i % 3 == 0 ? 0.0 : 0.37 * i);  // zeros mixed in
    }
    if (n == 1) shapes.pop_back();  // {0} sums to zero: refused below
    for (const auto& fractions : shapes) {
      const std::vector<int> partitioned = cat.partition(fractions);
      std::vector<int> apportioned(fractions.size(), -1);
      CatAllocator::apportion(fractions, total, apportioned);
      EXPECT_EQ(partitioned, apportioned);
      EXPECT_EQ(std::accumulate(apportioned.begin(), apportioned.end(), 0),
                total);
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(cat.way_count(i), apportioned[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Cat, ApportionRefusesWhatPartitionRefuses) {
  const int total = CatAllocator(spec()).allocatable_ways();
  const std::vector<std::vector<double>> refused = {
      {}, {-1.0, 2.0}, {0.0, 0.0}, std::vector<double>(19, 1.0)};
  for (const auto& fractions : refused) {
    CatAllocator cat(spec());
    EXPECT_THROW(cat.partition(fractions), std::invalid_argument);
    std::vector<int> ways(fractions.size());
    EXPECT_THROW(CatAllocator::apportion(fractions, total, ways),
                 std::invalid_argument);
  }
}

TEST(Cat, CbmIsContiguousAndSkipsDdio) {
  CatAllocator cat(spec());
  cat.partition({0.5, 0.5});
  const std::uint64_t mask0 = cat.cbm(0);
  const std::uint64_t mask1 = cat.cbm(1);
  // Disjoint.
  EXPECT_EQ(mask0 & mask1, 0u);
  // DDIO ways (bits 0-1) untouched.
  EXPECT_EQ((mask0 | mask1) & 0x3u, 0u);
  // Contiguity: bits form one run (x | x>>1 trick: run count check).
  const auto is_contiguous = [](std::uint64_t m) {
    while (m != 0 && (m & 1) == 0) m >>= 1;
    while (m & 1) m >>= 1;
    return m == 0;
  };
  EXPECT_TRUE(is_contiguous(mask0));
  EXPECT_TRUE(is_contiguous(mask1));
}

TEST(Cat, ResetClears) {
  CatAllocator cat(spec());
  cat.partition({1.0});
  EXPECT_FALSE(cat.unpartitioned());
  cat.reset();
  EXPECT_TRUE(cat.unpartitioned());
  EXPECT_FALSE(cat.has_clos(0));
}

}  // namespace
}  // namespace greennfv::hwmodel
