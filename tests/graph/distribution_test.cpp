// Property tests for vertex distributions: owner/local_index/global must
// form a consistent bijection for every scheme, vertex count, and rank
// count.
#include "graph/distribution.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace dpg::graph {
namespace {

using params = std::tuple<int /*kind*/, vertex_id /*n*/, rank_t /*ranks*/>;

class DistributionProperty : public ::testing::TestWithParam<params> {
 protected:
  distribution make() const {
    auto [kind, n, ranks] = GetParam();
    switch (kind) {
      case 0: return distribution::block(n, ranks);
      case 1: return distribution::cyclic(n, ranks);
      default: return distribution::hashed(n, ranks, 0xfeed);
    }
  }
};

TEST_P(DistributionProperty, OwnerInRange) {
  const auto d = make();
  for (vertex_id v = 0; v < d.num_vertices(); ++v)
    ASSERT_LT(d.owner(v), d.num_ranks()) << "v=" << v;
}

TEST_P(DistributionProperty, CountsSumToN) {
  const auto d = make();
  std::uint64_t total = 0;
  for (rank_t r = 0; r < d.num_ranks(); ++r) total += d.count(r);
  EXPECT_EQ(total, d.num_vertices());
}

TEST_P(DistributionProperty, LocalIndexIsDenseAndInvertible) {
  const auto d = make();
  std::vector<std::vector<bool>> seen(d.num_ranks());
  for (rank_t r = 0; r < d.num_ranks(); ++r) seen[r].assign(d.count(r), false);
  for (vertex_id v = 0; v < d.num_vertices(); ++v) {
    const rank_t r = d.owner(v);
    const std::uint64_t li = d.local_index(v);
    ASSERT_LT(li, d.count(r)) << "v=" << v;
    ASSERT_FALSE(seen[r][li]) << "local index collision at v=" << v;
    seen[r][li] = true;
    ASSERT_EQ(d.global(r, li), v) << "global() must invert local_index()";
  }
}

std::string scheme_name(int kind) {
  switch (kind) {
    case 0: return "block";
    case 1: return "cyclic";
    default: return "hashed";
  }
}

std::string param_name(const ::testing::TestParamInfo<params>& info) {
  return scheme_name(std::get<0>(info.param)) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_r" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DistributionProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<vertex_id>(1, 2, 7, 64, 100, 1000),
                       ::testing::Values<rank_t>(1, 2, 3, 8, 16)),
    param_name);

// ---- divide-free arithmetic -----------------------------------------------
//
// block and cyclic compute owner/local_index through a precomputed 64-bit
// reciprocal (fast_divisor); these pin them to the plain `/` and `%` they
// replace, exhaustively on small graphs and across the 2^32 boundary where
// the reciprocal hands over to the hardware divide.

void expect_matches_divide(const distribution& d, vertex_id v) {
  const rank_t ranks = d.num_ranks();
  const vertex_id n = d.num_vertices();
  const bool block = d.which() == distribution::kind::block;
  const std::uint64_t chunk = (n + ranks - 1) / ranks;
  const rank_t owner = static_cast<rank_t>(block ? v / chunk : v % ranks);
  const std::uint64_t li = block ? v % chunk : v / ranks;
  ASSERT_EQ(d.owner(v), owner) << "v=" << v << " ranks=" << ranks << " n=" << n;
  ASSERT_EQ(d.local_index(v), li) << "v=" << v << " ranks=" << ranks << " n=" << n;
  ASSERT_EQ(d.global(owner, li), v) << "v=" << v << " ranks=" << ranks << " n=" << n;
}

TEST(DivideFreeDistribution, MatchesDivideOnSmallGraphs) {
  for (rank_t ranks = 1; ranks <= 9; ++ranks)
    for (const vertex_id n : {1u, 2u, 5u, 9u, 64u, 1000u, 4099u})
      for (const auto& d : {distribution::block(n, ranks), distribution::cyclic(n, ranks)})
        for (vertex_id v = 0; v < n; ++v) expect_matches_divide(d, v);
}

TEST(DivideFreeDistribution, MatchesDivideAcrossTwoToThe32) {
  constexpr vertex_id k32 = vertex_id{1} << 32;
  for (rank_t ranks = 1; ranks <= 9; ++ranks)
    for (const vertex_id n : {k32 + 1, 3 * k32 + 77, (vertex_id{1} << 62) + 5})
      for (const auto& d : {distribution::block(n, ranks), distribution::cyclic(n, ranks)}) {
        for (vertex_id v = k32 - 40; v < k32 + 40; ++v) expect_matches_divide(d, v);
        for (vertex_id v = n - 20; v < n; ++v) expect_matches_divide(d, v);
        dpg::splitmix64 rng(n ^ ranks);
        for (int i = 0; i < 2000; ++i) expect_matches_divide(d, rng.next() % n);
      }
}

TEST(DivideFreeDistribution, FastDivisorMatchesDivide) {
  constexpr std::uint64_t kMax32 = 0xffffffffULL;
  dpg::splitmix64 rng(404);
  std::vector<std::uint64_t> divisors = {1, 2, 3, 7, 10, 641, 65535, 65536, 65537,
                                         kMax32 - 1, kMax32, kMax32 + 1, kMax32 * 3};
  for (int i = 0; i < 64; ++i) divisors.push_back(1 + rng.next() % kMax32);
  for (const std::uint64_t dv : divisors) {
    const fast_divisor fd(dv);
    std::vector<std::uint64_t> ns = {0, 1, dv - 1, dv, dv + 1, kMax32 - 1, kMax32,
                                     kMax32 + 1, ~std::uint64_t{0}};
    for (int i = 0; i < 256; ++i) ns.push_back(rng.next() & kMax32);
    for (int i = 0; i < 64; ++i) ns.push_back(rng.next());
    for (const std::uint64_t x : ns) {
      ASSERT_EQ(fd.div(x), x / dv) << x << " / " << dv;
      ASSERT_EQ(fd.mod(x), x % dv) << x << " % " << dv;
    }
  }
}

TEST(Distribution, BlockIsContiguous) {
  const auto d = distribution::block(100, 4);
  // ceil(100/4) = 25 per rank.
  EXPECT_EQ(d.owner(0), 0u);
  EXPECT_EQ(d.owner(24), 0u);
  EXPECT_EQ(d.owner(25), 1u);
  EXPECT_EQ(d.owner(99), 3u);
  EXPECT_EQ(d.count(0), 25u);
}

TEST(Distribution, CyclicRoundRobins) {
  const auto d = distribution::cyclic(10, 3);
  EXPECT_EQ(d.owner(0), 0u);
  EXPECT_EQ(d.owner(1), 1u);
  EXPECT_EQ(d.owner(2), 2u);
  EXPECT_EQ(d.owner(3), 0u);
  EXPECT_EQ(d.count(0), 4u);  // 0,3,6,9
  EXPECT_EQ(d.count(1), 3u);
  EXPECT_EQ(d.count(2), 3u);
}

TEST(Distribution, HashedSpreadsLoad) {
  const auto d = distribution::hashed(10000, 8);
  for (rank_t r = 0; r < 8; ++r) {
    EXPECT_GT(d.count(r), 1000u);  // within ~±20% of 1250
    EXPECT_LT(d.count(r), 1500u);
  }
}

TEST(Distribution, HashedDependsOnSeed) {
  const auto a = distribution::hashed(1000, 4, 1);
  const auto b = distribution::hashed(1000, 4, 2);
  int differ = 0;
  for (vertex_id v = 0; v < 1000; ++v)
    if (a.owner(v) != b.owner(v)) ++differ;
  EXPECT_GT(differ, 500);
}

TEST(Distribution, MoreRanksThanVerticesLeavesEmptyRanks) {
  const auto d = distribution::block(3, 8);
  std::uint64_t total = 0;
  for (rank_t r = 0; r < 8; ++r) total += d.count(r);
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace dpg::graph
