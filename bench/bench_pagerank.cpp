// Supplementary experiment: PageRank via the scatter pattern vs the
// sequential power-iteration baseline — bounds the cost of expressing an
// accumulate-style algorithm declaratively. The scatter's `plus` reducer
// compiles to the accumulate lane (16-byte records, sender-side combining,
// whole-envelope atomic scatter-add); BM_PageRankGenericRoute pins the same
// pattern to the generic gather -> evaluate -> lock-map route
// (compile_options::fast_path = off, as DPG_PATTERN_FASTPATH=0 would), so
// the pair measures what the accumulate lane buys.
#include <benchmark/benchmark.h>

#include "algo/baselines.hpp"
#include "algo/pagerank.hpp"
#include "common.hpp"

namespace dpg::bench {
namespace {

constexpr int kIters = 10;

const workload& wl() {
  static workload w = workload::rmat(10, 8);
  return w;
}

void run_pattern(benchmark::State& state, pattern::compile_options copts) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  algo::pagerank_solver pr(tp, g, copts);
  obs::stats_scope sc(tp.obs());
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, kIters); });
  }
  const obs::stats_snapshot& d = sc.finish();
  state.counters["iters"] = kIters;
  state.counters["msgs_per_iter"] = static_cast<double>(d.core.messages_sent) /
                                    static_cast<double>(state.iterations() * kIters);
  // One scatter per iteration visits every edge once: the per-iteration
  // record count of the generic route, and the yardstick for the lane's.
  state.counters["edges_per_iter"] = static_cast<double>(g.num_edges());
}

void BM_PageRankPattern(benchmark::State& state) { run_pattern(state, {}); }
BENCHMARK(BM_PageRankPattern)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PageRankGenericRoute(benchmark::State& state) {
  run_pattern(state, {.fast_path = pattern::compile_options::toggle::off});
}
BENCHMARK(BM_PageRankGenericRoute)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PageRankBaseline(benchmark::State& state) {
  auto g = wl().build(1);
  for (auto _ : state) {
    auto r = algo::pagerank(g, 0.85, kIters);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PageRankBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
