// Connected components (the paper's Fig. 3 parallel search) against the
// union-find oracle: partitions must match exactly on every graph family,
// distribution, and rank count; plus diagnostics (conflicts, jump rounds)
// and the epoch_flush ablation.
#include "algo/cc.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "algo/baselines.hpp"
#include "graph/generators.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

/// Checks that two labellings induce the same partition of [0, n).
void expect_same_partition(const std::vector<vertex_id>& oracle,
                           const pmap::vertex_property_map<vertex_id>& got,
                           vertex_id n) {
  std::map<vertex_id, vertex_id> fwd, bwd;
  for (vertex_id v = 0; v < n; ++v) {
    const vertex_id a = oracle[v];
    const vertex_id b = got[v];
    auto [fit, finserted] = fwd.emplace(a, b);
    ASSERT_EQ(fit->second, b) << "oracle class " << a << " split at v=" << v;
    auto [bit, binserted] = bwd.emplace(b, a);
    ASSERT_EQ(bit->second, a) << "result class " << b << " merges oracle classes at v=" << v;
  }
}

struct cc_case {
  const char* name;
  vertex_id n;
  std::vector<graph::edge> edges;  // already symmetric
};

std::vector<cc_case> cc_cases() {
  std::vector<cc_case> cases;
  // Several disconnected paths.
  {
    std::vector<graph::edge> e;
    for (vertex_id c = 0; c < 5; ++c)
      for (vertex_id v = 0; v + 1 < 10; ++v)
        e.push_back({c * 10 + v, c * 10 + v + 1});
    cases.push_back({"five_paths", 50, graph::symmetrize(e)});
  }
  // Random graph: a mix of one giant and several small components.
  cases.push_back({"er", 200, graph::symmetrize(graph::erdos_renyi(200, 220, 5))});
  // Very sparse: mostly isolated vertices.
  cases.push_back({"sparse", 150, graph::symmetrize(graph::erdos_renyi(150, 30, 6))});
  // Power-law.
  {
    graph::rmat_params p;
    p.scale = 7;
    p.edge_factor = 4;
    cases.push_back({"rmat", 1u << 7, graph::symmetrize(graph::rmat(p, 8))});
  }
  // Fully connected ring.
  cases.push_back({"ring", 64, graph::symmetrize(graph::cycle_graph(64))});
  // No edges at all.
  cases.push_back({"isolated", 40, {}});
  return cases;
}

using params = std::tuple<int, int /*dist*/, ampp::rank_t, bool /*flush*/>;

class CcEndToEnd : public ::testing::TestWithParam<params> {};

TEST_P(CcEndToEnd, PartitionMatchesUnionFind) {
  auto [case_idx, dist_kind, ranks, flush] = GetParam();
  const auto gc = cc_cases()[case_idx];
  distribution d = dist_kind == 0 ? distribution::block(gc.n, ranks)
                   : dist_kind == 1
                       ? distribution::cyclic(gc.n, ranks)
                       : distribution::hashed(gc.n, ranks, 11);
  distributed_graph g(gc.n, gc.edges, d);
  const auto oracle = cc_union_find(g);

  cc_solver cc(g, ampp::transport_config{.n_ranks = ranks});
  cc.solve(flush);
  expect_same_partition(oracle, cc.components(), gc.n);
}

std::string param_name(const ::testing::TestParamInfo<params>& info) {
  auto [c, d, r, f] = info.param;
  static const char* dists[] = {"block", "cyclic", "hashed"};
  return std::string(cc_cases()[c].name) + "_" + dists[d] + "_r" + std::to_string(r) +
         (f ? "_flush" : "_noflush");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcEndToEnd,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1),
                                            ::testing::Values<ampp::rank_t>(1, 4),
                                            ::testing::Bool()),
                         param_name);

INSTANTIATE_TEST_SUITE_P(Distributions, CcEndToEnd,
                         ::testing::Combine(::testing::Values(1),
                                            ::testing::Values(0, 2),
                                            ::testing::Values<ampp::rank_t>(3),
                                            ::testing::Values(true)),
                         param_name);

TEST(Cc, ComponentCountsMatchOracle) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(300, 250, 42));
  distributed_graph g(300, edges, distribution::cyclic(300, 4));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 4});
  cc.solve();
  std::vector<vertex_id> got(300);
  for (vertex_id v = 0; v < 300; ++v) got[v] = cc.components()[v];
  EXPECT_EQ(count_components(got), count_components(oracle));
}

TEST(Cc, IsolatedVerticesAreTheirOwnComponents) {
  distributed_graph g(10, {}, distribution::block(10, 2));
  cc_solver cc(g, ampp::transport_config{.n_ranks = 2});
  cc.solve();
  for (vertex_id v = 0; v < 10; ++v) EXPECT_EQ(cc.components()[v], v);
  EXPECT_EQ(cc.conflict_pairs(), 0u);
  EXPECT_EQ(cc.searches_seeded(), 10u);
}

TEST(Cc, SingleRankSeedsFewSearchesWithFlush) {
  // With one rank and flushing, each component is fully explored before
  // the next seed: the number of searches equals the number of components.
  const auto edges = graph::symmetrize(graph::erdos_renyi(120, 150, 9));
  distributed_graph g(120, edges, distribution::block(120, 1));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 1});
  cc.solve(true);
  EXPECT_EQ(cc.searches_seeded(), count_components(oracle));
  EXPECT_EQ(cc.conflict_pairs(), 0u);
}

TEST(Cc, BaselinesAgree) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(150, 170, 31));
  distributed_graph g(150, edges, distribution::block(150, 1));
  const auto a = cc_union_find(g);
  const auto b = cc_label_propagation(g);
  for (vertex_id v = 0; v < 150; ++v) ASSERT_EQ(a[v], b[v]);
}

TEST(Cc, SolveIsRepeatable) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(80, 100, 2));
  distributed_graph g(80, edges, distribution::cyclic(80, 2));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 2});
  cc.solve();
  expect_same_partition(oracle, cc.components(), 80);
  cc.solve();  // must fully reset internal state
  expect_same_partition(oracle, cc.components(), 80);
}

TEST(Cc, StateAcrossSolvesFollowsMergesAndSplits) {
  // Six paths of 40 vertices, cyclic over four ranks: every rank seeds
  // searches on every path at once, so each solve records collisions.
  // Between solves the graph gains merging edges and loses bridges; a
  // conflict list or resolved root label left over from an earlier solve
  // would fuse components that have since split.
  constexpr vertex_id kLen = 40, kPaths = 6, kN = kLen * kPaths;
  std::vector<graph::edge> e;
  for (vertex_id c = 0; c < kPaths; ++c)
    for (vertex_id v = 0; v + 1 < kLen; ++v) e.push_back({c * kLen + v, c * kLen + v + 1});
  distributed_graph g(kN, graph::symmetrize(e), distribution::cyclic(kN, 4));
  cc_solver cc(g, ampp::transport_config{.n_ranks = 4});
  // Every message type is registered by the constructor; solves add none.
  const std::size_t types = cc.transport().num_types();

  const auto both = [](vertex_id a, vertex_id b) {
    return std::vector<graph::edge>{{a, b}, {b, a}};
  };
  const std::vector<graph::edge> merge01 = both(kLen - 1, kLen);      // path 0 + path 1
  const std::vector<graph::edge> merge34 = both(4 * kLen - 1, 4 * kLen);  // path 3 + path 4
  const std::vector<graph::edge> bridge2 = both(2 * kLen + 19, 2 * kLen + 20);  // splits path 2
  std::vector<vertex_id> prev;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("solve " + std::to_string(round));
    if (round == 1) {
      g.apply_edges(merge01);
      g.remove_edges(g.resolve_edges(bridge2));
    } else if (round == 2) {
      g.remove_edges(g.resolve_edges(merge01));
      g.apply_edges(bridge2);
      g.apply_edges(merge34);
    }
    cc.solve();
    EXPECT_GT(cc.conflict_pairs(), 0u);
    EXPECT_EQ(cc.transport().num_types(), types);
    const auto oracle = cc_union_find(g);
    expect_same_partition(oracle, cc.components(), kN);
    // Each mutation moves the partition, or the check above proves nothing.
    EXPECT_NE(oracle, prev);
    prev = oracle;
  }
}

}  // namespace
}  // namespace dpg::algo
