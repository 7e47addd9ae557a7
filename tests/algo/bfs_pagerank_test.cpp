// BFS and PageRank built from patterns, validated against the sequential
// baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "graph/generators.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

TEST(Bfs, FixedPointMatchesSequentialLevels) {
  const vertex_id n = 200;
  const auto edges = graph::erdos_renyi(n, 900, 15);
  distributed_graph g(n, edges, distribution::cyclic(n, 3));
  const auto oracle = bfs_levels(g, 0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
  for (vertex_id v = 0; v < n; ++v) {
    const auto got = bfs.depth()[v];
    if (oracle[v] < 0)
      EXPECT_EQ(got, bfs.unreachable_depth()) << "v=" << v;
    else
      EXPECT_EQ(got, static_cast<std::uint64_t>(oracle[v])) << "v=" << v;
  }
}

TEST(Bfs, LevelSyncMatchesFixedPoint) {
  const vertex_id n = 150;
  const auto edges = graph::erdos_renyi(n, 700, 25);
  distributed_graph g(n, edges, distribution::block(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 3); });
  std::vector<std::uint64_t> fixed(n);
  for (vertex_id v = 0; v < n; ++v) fixed[v] = bfs.depth()[v];
  tp.run([&](ampp::transport_context& ctx) { bfs.run_level_sync(ctx, 3); });
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(bfs.depth()[v], fixed[v]) << "v=" << v;
}

TEST(Bfs, DisconnectedVerticesKeepSentinelDepth) {
  std::vector<graph::edge> edges{{0, 1}, {1, 2}};
  distributed_graph g(5, edges, distribution::cyclic(5, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
  EXPECT_EQ(bfs.depth()[2], 2u);
  EXPECT_EQ(bfs.depth()[3], bfs.unreachable_depth());
  EXPECT_EQ(bfs.depth()[4], bfs.unreachable_depth());
}

TEST(PageRank, MatchesSequentialPowerIteration) {
  const vertex_id n = 120;
  const auto edges = graph::erdos_renyi(n, 700, 5);
  distributed_graph g(n, edges, distribution::cyclic(n, 3));
  const auto oracle = pagerank(g, 0.85, 20);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 20); });
  for (vertex_id v = 0; v < n; ++v)
    ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-12) << "v=" << v;
}

TEST(PageRank, MassIsConserved) {
  const vertex_id n = 90;
  // Include sinks (star edges point outward only: leaves are sinks).
  const auto edges = graph::star_graph(n);
  distributed_graph g(n, edges, distribution::block(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 15); });
  double total = 0;
  for (vertex_id v = 0; v < n; ++v) total += pr.ranks()[v];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRank, HubCollectsMoreRankThanLeaves) {
  // Symmetric star: the hub must dominate.
  const vertex_id n = 50;
  const auto edges = graph::symmetrize(graph::star_graph(n));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 30); });
  for (vertex_id v = 1; v < n; ++v) EXPECT_GT(pr.ranks()[0], pr.ranks()[v]);
}

TEST(PageRank, AccumulateLaneMatchesGenericRoute) {
  // The scatter's `plus` reducer compiles to the accumulate lane (sender
  // combining + atomic scatter-add); with the fast path off the same
  // pattern takes the generic gather/evaluate/lock-map route. The two
  // differ only in the association order of each vertex's sum.
  const vertex_id n = 512;
  const auto edges = graph::symmetrize(graph::rmat({.scale = 9, .edge_factor = 8}, 77));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  constexpr int kIters = 20;
  using tog = pattern::compile_options::toggle;

  ampp::transport tp_fast(ampp::transport_config{.n_ranks = 2});
  pagerank_solver fast(tp_fast, g, {.fast_path = tog::on, .fast_reduction = tog::on});
  ASSERT_TRUE(fast.plan().accumulate);
  ampp::transport tp_gen(ampp::transport_config{.n_ranks = 2});
  pagerank_solver generic(tp_gen, g, {.fast_path = tog::off});
  ASSERT_FALSE(generic.plan().fast_path);

  tp_fast.run([&](ampp::transport_context& ctx) { fast.run(ctx, 0.85, kIters); });
  tp_gen.run([&](ampp::transport_context& ctx) { generic.run(ctx, 0.85, kIters); });
  for (vertex_id v = 0; v < n; ++v)
    ASSERT_NEAR(fast.ranks()[v], generic.ranks()[v], 1e-12) << "v=" << v;

  // Sender-side combining: per iteration, the accumulate lane ships fewer
  // records than there are edges (the generic route ships one per edge).
  std::uint64_t scattering_edges = 0;
  for (vertex_id v = 0; v < n; ++v) scattering_edges += g.out_degree(v);
  const std::uint64_t per_iter_fast = tp_fast.stats().messages_sent.load() / kIters;
  const std::uint64_t per_iter_generic = tp_gen.stats().messages_sent.load() / kIters;
  EXPECT_EQ(per_iter_generic, scattering_edges);
  EXPECT_LT(per_iter_fast, scattering_edges);
  EXPECT_GT(tp_fast.stats().cache_hits.load(), 0u);
}

TEST(PageRank, OwnerLocalSharesSkipTheWire) {
  // On the accumulate lane a share whose target the sending rank owns is
  // applied in place, so at 2 ranks only remote edges can put records on
  // the wire: exactly one per remote edge without sender combining, at most
  // that with it. The values stay within reassociation distance of the
  // generic route, with and without handler threads.
  const vertex_id n = 512;
  const auto edges = graph::symmetrize(graph::rmat({.scale = 9, .edge_factor = 8}, 31));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  constexpr int kIters = 12;
  using tog = pattern::compile_options::toggle;

  std::uint64_t remote_edges = 0;
  for (vertex_id v = 0; v < n; ++v)
    for (const auto e : g.out_edges(v))
      if (g.owner(e.src) != g.owner(e.dst)) ++remote_edges;
  ASSERT_GT(remote_edges, 0u);

  ampp::transport tp_gen(ampp::transport_config{.n_ranks = 2});
  pagerank_solver generic(tp_gen, g, {.fast_path = tog::off});
  tp_gen.run([&](ampp::transport_context& ctx) { generic.run(ctx, 0.85, kIters); });

  for (const unsigned helpers : {0u, 2u}) {
    for (const tog reduce : {tog::off, tog::on}) {
      ampp::transport tp(ampp::transport_config{.n_ranks = 2, .handler_threads = helpers});
      pagerank_solver pr(tp, g, {.fast_path = tog::on, .fast_reduction = reduce});
      ASSERT_TRUE(pr.plan().accumulate);
      tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, kIters); });
      const std::uint64_t per_iter = tp.stats().messages_sent.load() / kIters;
      if (reduce == tog::off)
        EXPECT_EQ(per_iter, remote_edges) << "helpers=" << helpers;
      else
        EXPECT_LE(per_iter, remote_edges) << "helpers=" << helpers;
      for (vertex_id v = 0; v < n; ++v)
        ASSERT_NEAR(pr.ranks()[v], generic.ranks()[v], 1e-12)
            << "helpers=" << helpers << " v=" << v;
    }
  }
}

TEST(PageRank, HubRunsLongerThanTheCoalescingSize) {
  // A hub's scatter stages more records per destination than one envelope
  // holds, so the sender ships them in coalescing-size runs mid-invocation:
  // every remote share still goes out exactly once and the values match
  // the generic route.
  const vertex_id n = 200;
  std::vector<graph::edge> spokes;
  for (vertex_id v = 1; v < n; ++v) spokes.push_back({0, v});
  const auto edges = graph::symmetrize(spokes);
  distributed_graph g(n, edges, distribution::block(n, 2));
  constexpr int kIters = 5;
  using tog = pattern::compile_options::toggle;

  std::uint64_t remote_edges = 0;
  for (vertex_id v = 0; v < n; ++v)
    for (const auto e : g.out_edges(v))
      if (g.owner(e.src) != g.owner(e.dst)) ++remote_edges;

  ampp::transport tp_gen(ampp::transport_config{.n_ranks = 2});
  pagerank_solver generic(tp_gen, g, {.fast_path = tog::off});
  tp_gen.run([&](ampp::transport_context& ctx) { generic.run(ctx, 0.85, kIters); });

  for (const std::size_t coalesce : {std::size_t{1}, std::size_t{7}}) {
    ampp::transport tp(ampp::transport_config{.n_ranks = 2, .coalescing_size = coalesce});
    pagerank_solver pr(tp, g, {.fast_path = tog::on, .fast_reduction = tog::off});
    ASSERT_TRUE(pr.plan().accumulate);
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, kIters); });
    EXPECT_EQ(tp.stats().messages_sent.load(), remote_edges * kIters) << "coalesce=" << coalesce;
    for (vertex_id v = 0; v < n; ++v)
      ASSERT_NEAR(pr.ranks()[v], generic.ranks()[v], 1e-12) << "coalesce=" << coalesce;
  }
}

TEST(PageRank, AccumulateLaneUnderHandlerThreads) {
  // Helper threads dispatch accumulate envelopes concurrently with the
  // SPMD thread, so several threads scatter-add into one shard at once:
  // the lane's atomic apply (not the lock map) must keep every share.
  const vertex_id n = 300;
  const auto edges = graph::symmetrize(graph::erdos_renyi(n, 3000, 9));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  const auto oracle = pagerank(g, 0.85, 15);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2, .handler_threads = 2});
  pagerank_solver pr(tp, g);
  ASSERT_TRUE(pr.plan().accumulate);
  for (int rep = 0; rep < 3; ++rep) {
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 15); });
    for (vertex_id v = 0; v < n; ++v)
      ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-12) << "rep=" << rep << " v=" << v;
  }
}

}  // namespace
}  // namespace dpg::algo
