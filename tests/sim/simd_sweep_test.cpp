// Forced-ISA seed sweep: every algorithm in the repo, swept across fault
// plans x seeds with the batch-kernel tier forced to each level this host
// supports (the in-process equivalent of launching with DPG_SIMD_LEVEL).
// The vector tiers are pure dispatch optimizations, so every run must
// still reproduce the sequential oracle — and wherever the fixed point is
// unique, the forced-tier results must match the scalar baseline bit for
// bit under every fault plan. Tiers above the host's CPUID capability are
// reported and skipped (they cannot execute here by definition).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/coloring.hpp"
#include "algo/fused.hpp"
#include "algo/kcore.hpp"
#include "algo/mis.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"
#include "sim_harness.hpp"
#include "util/simd.hpp"

namespace dpg::sim {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;

constexpr vertex_id kN = 96;
constexpr std::uint64_t kM = 480;
constexpr ampp::rank_t kRanks = 2;

std::vector<graph::edge> sim_edges(std::uint64_t seed, bool symmetric) {
  auto edges = graph::erdos_renyi(kN, kM, substream_seed(seed, 1));
  return symmetric ? graph::symmetrize(edges) : edges;
}

pmap::edge_property_map<double> sim_weights(const distributed_graph& g) {
  return pmap::edge_property_map<double>(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 17, 8.0);
  });
}

/// Restores the forced tier even when an assertion aborts the sweep body.
struct override_guard {
  ~override_guard() { simd::clear_override(); }
};

/// The tier axis of this sweep, with a once-per-binary note for every tier
/// the host CPU cannot execute (mirrors a ctest skip message — the grid
/// point exists but is not runnable here).
const std::vector<simd::level>& forced_tiers() {
  static const std::vector<simd::level> tiers = [] {
    const std::vector<simd::level> avail = simd::available_levels();
    for (int l = 0; l <= static_cast<int>(simd::level::avx512); ++l)
      if (l > static_cast<int>(simd::detect()))
        std::printf("[  SKIPPED ] simd tier %s: unsupported by this CPU "
                    "(detected %s)\n",
                    simd::name(static_cast<simd::level>(l)),
                    simd::name(simd::detect()));
    return avail;
  }();
  return tiers;
}

/// This sweep multiplies the grid by the tier axis, so it uses the first
/// two sweep seeds by default; DPG_SIM_SEEDS still overrides for repro.
std::vector<std::uint64_t> simd_seeds() {
  std::vector<std::uint64_t> seeds = sweep_seeds();
  if (seeds.size() > 2) seeds.resize(2);
  return seeds;
}

/// Runs `body(seed, plan, tier, is_baseline, events)` over the whole grid,
/// scalar first at every (seed, plan) point so the body can record the
/// baseline the vector tiers are compared against.
template <class Body>
void simd_sweep(const char* algo, Body&& body) {
  std::uint64_t events = 0;
  for (const std::uint64_t seed : simd_seeds())
    for (const plan_spec& ps : fault_plans())
      for (const simd::level l : forced_tiers()) {
        override_guard restore;
        simd::override_level(l);
        SCOPED_TRACE(repro(algo, ps.name, kRanks, seed) +
                     "  tier=" + simd::name(l));
        body(seed, ps, l, l == simd::level::scalar, events);
        if (::testing::Test::HasFatalFailure()) return;
      }
  EXPECT_GT(events, 0u) << algo << ": no fault plan ever fired";
}

TEST(SimdSweep, KnobSemantics) {
  // The DPG_SIMD_LEVEL value grammar, and the override/clamp behavior the
  // whole sweep relies on.
  simd::level out = simd::level::avx512;
  EXPECT_TRUE(simd::parse("scalar", out));
  EXPECT_EQ(out, simd::level::scalar);
  EXPECT_TRUE(simd::parse("sse4", out));
  EXPECT_EQ(out, simd::level::sse4);
  EXPECT_TRUE(simd::parse("avx2", out));
  EXPECT_EQ(out, simd::level::avx2);
  EXPECT_TRUE(simd::parse("avx512", out));
  EXPECT_EQ(out, simd::level::avx512);
  EXPECT_TRUE(simd::parse("2", out));
  EXPECT_EQ(out, simd::level::avx2);
  out = simd::level::sse4;
  EXPECT_FALSE(simd::parse("avx1024", out));
  EXPECT_EQ(out, simd::level::sse4);  // untouched on failure
  EXPECT_FALSE(simd::parse("", out));

  // available_levels() is exactly scalar..detect(), in order.
  const auto avail = simd::available_levels();
  ASSERT_EQ(avail.size(), static_cast<std::size_t>(simd::detect()) + 1);
  for (std::size_t i = 0; i < avail.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(avail[i]), i);

  // override_level forces active() (clamped to the CPU); clear restores.
  {
    override_guard restore;
    simd::override_level(simd::level::scalar);
    EXPECT_EQ(simd::active(), simd::level::scalar);
    simd::override_level(simd::level::avx512);
    EXPECT_LE(simd::active(), simd::detect());
  }
}

TEST(SimdSweep, SsspFixedPoint) {
  // The heaviest batch-kernel user: distances are a unique fixed point, so
  // every tier must match the scalar baseline bit for bit.
  std::vector<std::uint64_t> baseline;
  simd_sweep("sssp_fp_simd", [&](std::uint64_t seed, const plan_spec& ps,
                                 simd::level, bool is_baseline,
                                 std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, kRanks));
    auto weight = sim_weights(g);
    const auto oracle = algo::dijkstra(g, weight, 0);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
    std::vector<std::uint64_t> bits(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "v=" << v;
      bits[v] = std::bit_cast<std::uint64_t>(solver.dist()[v]);
    }
    if (is_baseline)
      baseline = bits;
    else
      ASSERT_EQ(bits, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, SsspDeltaStepping) {
  std::vector<std::uint64_t> baseline;
  simd_sweep("sssp_delta_simd", [&](std::uint64_t seed, const plan_spec& ps,
                                    simd::level, bool is_baseline,
                                    std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, kRanks));
    auto weight = sim_weights(g);
    const auto oracle = algo::dijkstra(g, weight, 0);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 2.0); });
    std::vector<std::uint64_t> bits(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "v=" << v;
      bits[v] = std::bit_cast<std::uint64_t>(solver.dist()[v]);
    }
    if (is_baseline)
      baseline = bits;
    else
      ASSERT_EQ(bits, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, Bfs) {
  std::vector<std::uint64_t> baseline;
  simd_sweep("bfs_simd", [&](std::uint64_t seed, const plan_spec& ps, simd::level,
                             bool is_baseline, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, kRanks));
    const auto oracle = algo::bfs_levels(g, 0);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::bfs_solver bfs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
    std::vector<std::uint64_t> depths(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      if (oracle[v] < 0)
        ASSERT_EQ(bfs.depth()[v], bfs.unreachable_depth()) << "v=" << v;
      else
        ASSERT_EQ(bfs.depth()[v], static_cast<std::uint64_t>(oracle[v])) << "v=" << v;
      depths[v] = bfs.depth()[v];
    }
    if (is_baseline)
      baseline = depths;
    else
      ASSERT_EQ(depths, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, FusedTriple) {
  // Fused envelopes run each member lane's column filter over a strided
  // slot column (f64 min, f64 max and u64 min here), and single-member
  // tails run the 16-byte lane kernel: distinct sources exercise both, and
  // all three maps are unique fixed points, so every tier must match the
  // scalar baseline bit for bit.
  std::vector<std::uint64_t> baseline;
  simd_sweep("fused_triple_simd", [&](std::uint64_t seed, const plan_spec& ps,
                                      simd::level, bool is_baseline,
                                      std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, kRanks));
    auto weight = sim_weights(g);
    auto cap = pmap::edge_property_map<double>(g, [](const edge_handle& e) {
      return graph::edge_weight(e.src, e.dst, 23, 50.0);
    });
    const auto dist_oracle = algo::dijkstra(g, weight, 0);
    const auto depth_oracle = algo::bfs_levels(g, 2);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::fused_triple_solver fused(tp, g, weight, cap);
    tp.run([&](ampp::transport_context& ctx) {
      fused.run(ctx, {.sssp = 0, .widest = 1, .bfs = 2});
    });
    std::vector<std::uint64_t> bits;
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_DOUBLE_EQ(fused.dist()[v], dist_oracle[v]) << "v=" << v;
      if (depth_oracle[v] >= 0) {
        ASSERT_EQ(fused.depth()[v], static_cast<std::uint64_t>(depth_oracle[v]))
            << "v=" << v;
      }
      bits.push_back(std::bit_cast<std::uint64_t>(fused.dist()[v]));
      bits.push_back(std::bit_cast<std::uint64_t>(fused.width()[v]));
      bits.push_back(fused.depth()[v]);
    }
    if (is_baseline)
      baseline = bits;
    else
      ASSERT_EQ(bits, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, ConnectedComponents) {
  // CC labels are representative-dependent (seeding order varies with
  // delivery timing), so tiers are compared as partitions — the same
  // equivalence-class check the base sweep applies against the oracle.
  simd_sweep("cc_simd", [](std::uint64_t seed, const plan_spec& ps, simd::level,
                           bool, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, kRanks));
    const auto oracle = algo::cc_union_find(g);
    algo::cc_solver cc(g, sim_config(kRanks, seed, ps));
    cc.solve();
    std::vector<vertex_id> fwd(kN, graph::invalid_vertex), bwd(kN, graph::invalid_vertex);
    for (vertex_id v = 0; v < kN; ++v) {
      const vertex_id a = oracle[v], b = cc.components()[v];
      if (fwd[a] == graph::invalid_vertex) fwd[a] = b;
      if (bwd[b] == graph::invalid_vertex) bwd[b] = a;
      ASSERT_EQ(fwd[a], b) << "v=" << v;
      ASSERT_EQ(bwd[b], a) << "v=" << v;
    }
    const auto s = cc.transport().obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(cc.transport());
    events += fault_events(s);
  });
}

TEST(SimdSweep, PageRank) {
  // Contribution sums depend on arrival order (float associativity), so
  // cross-tier bit equality is not defined for PageRank; the oracle bound
  // is the invariant every tier must hold.
  simd_sweep("pagerank_simd", [](std::uint64_t seed, const plan_spec& ps,
                                 simd::level, bool, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, kRanks));
    const auto oracle = algo::pagerank(g, 0.85, 12);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::pagerank_solver pr(tp, g);
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 12); });
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-9) << "v=" << v;
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, KCore) {
  std::vector<std::uint64_t> baseline;
  simd_sweep("kcore_simd", [&](std::uint64_t seed, const plan_spec& ps, simd::level,
                               bool is_baseline, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, kRanks));
    const auto oracle = algo::kcore_peel(g);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::kcore_solver solver(tp, g);
    tp.run([&](ampp::transport_context& ctx) { solver.run(ctx); });
    std::vector<std::uint64_t> core(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_EQ(solver.coreness()[v], oracle[v]) << "v=" << v;
      core[v] = solver.coreness()[v];
    }
    if (is_baseline)
      baseline = core;
    else
      ASSERT_EQ(core, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, Coloring) {
  // Luby coloring is a pure function of the priority seed, so the scalar
  // run of the same grid point is an exact oracle for every tier.
  std::vector<std::uint64_t> baseline;
  simd_sweep("coloring_simd", [&](std::uint64_t seed, const plan_spec& ps,
                                  simd::level, bool is_baseline,
                                  std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, kRanks));
    const std::uint64_t algo_seed = substream_seed(seed, 4);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::coloring_solver cs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { cs.run(ctx, algo_seed); });
    std::vector<std::uint64_t> colors(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_NE(cs.colors()[v], algo::coloring_solver::uncolored) << "v=" << v;
      colors[v] = cs.colors()[v];
    }
    for (vertex_id v = 0; v < kN; ++v)
      for (const vertex_id u : g.adjacent(v)) {
        if (u != v) {
          ASSERT_NE(cs.colors()[v], cs.colors()[u]) << v << "-" << u;
        }
      }
    if (is_baseline)
      baseline = colors;
    else
      ASSERT_EQ(colors, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SimdSweep, Mis) {
  std::vector<std::uint8_t> baseline;
  simd_sweep("mis_simd", [&](std::uint64_t seed, const plan_spec& ps, simd::level,
                             bool is_baseline, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, kRanks));
    const std::uint64_t algo_seed = substream_seed(seed, 4);
    ampp::transport tp(sim_config(kRanks, seed, ps));
    algo::mis_solver mis(tp, g);
    tp.run([&](ampp::transport_context& ctx) { mis.run(ctx, algo_seed); });
    std::vector<std::uint8_t> in(kN);
    for (vertex_id v = 0; v < kN; ++v) {
      in[v] = mis.in_set(v) ? 1 : 0;
      if (mis.in_set(v))
        for (const vertex_id u : g.adjacent(v)) {
          if (u != v) {
            ASSERT_FALSE(mis.in_set(u)) << v << "-" << u;
          }
        }
    }
    if (is_baseline)
      baseline = in;
    else
      ASSERT_EQ(in, baseline) << "tier diverged from scalar baseline";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

}  // namespace
}  // namespace dpg::sim
