// solve-rmat: one closed-loop client driving warm solver sessions directly
// (no serving layer), over a Graph500 R-MAT graph big enough that the
// pattern -> message -> strategy path does nearly all the work.
#include <algorithm>
#include <map>
#include <memory>

#include "algo/sessions.hpp"
#include "graph/generators.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using dpg::serve::algorithm;

constexpr unsigned kScale = 14;
constexpr unsigned kEdgeFactor = 16;
constexpr double kDelta = 64.0;  // Δ for the Δ-stepping queries (weights 1..255)
constexpr std::size_t kSources = 64;

struct query_kind {
  algorithm algo;
  double delta;
  const char* name;  // suffix of algo.run_ms.<name>
};

// One cycle of the closed loop; the run always ends on a cycle boundary so
// every run sees the same mix. Fixed-point SSSP, Δ-stepping and pagerank
// run twice per cycle, which makes the cycle odd-sized with Δ-stepping as
// the middle group (three kinds faster, fixed-point SSSP and pagerank
// slower): the median then sits inside the Δ-stepping group for any number
// of cycles instead of on the edge between two kinds, and the tail (10
// samples above it) sits inside the pagerank group once a run has 6 cycles.
constexpr query_kind kCycle[] = {
    {algorithm::sssp, 0.0, "sssp"},   {algorithm::sssp, kDelta, "sssp_delta"},
    {algorithm::bfs, 0.0, "bfs"},     {algorithm::pagerank, 0.0, "pagerank"},
    {algorithm::cc, 0.0, "cc"},       {algorithm::sssp, 0.0, "sssp"},
    {algorithm::kcore, 0.0, "kcore"}, {algorithm::sssp, kDelta, "sssp_delta"},
    {algorithm::pagerank, 0.0, "pagerank"},
};
constexpr std::size_t kKinds = std::size(kCycle);

struct solve_state {
  std::unique_ptr<dpg::graph::distributed_graph> g;
  std::unique_ptr<dpg::pmap::edge_property_map<double>> w;
  std::shared_ptr<dpg::ampp::wire_pool> pool;
  std::unique_ptr<dpg::serve::solver_session> sessions[5];

  dpg::serve::solver_session& session(algorithm a) {
    return *sessions[static_cast<std::size_t>(a)];
  }
};

std::unique_ptr<solve_state> build(std::uint64_t seed, setup_times& st,
                                   const std::vector<dpg::graph::vertex_id>* sources) {
  span root("bench.setup");
  const std::int64_t t0 = now_ns();
  auto s = std::make_unique<solve_state>();
  std::vector<edge> edges;
  {
    span sp("graph.generate");
    edges = rmat_symmetric(kScale, kEdgeFactor, substream(seed, 1));
  }
  const std::int64_t t1 = now_ns();
  const vertex_id n = vertex_id{1} << kScale;
  {
    span sp("graph.build");
    s->g = std::make_unique<dpg::graph::distributed_graph>(
        n, edges, dpg::graph::distribution::cyclic(n, kRanks));
  }
  const std::int64_t t2 = now_ns();
  {
    span sp("pmap.weights_build");
    s->w = std::make_unique<dpg::pmap::edge_property_map<double>>(
        make_weights(*s->g, substream(seed, 2)));
  }
  const std::int64_t t3 = now_ns();
  {
    span sp("algo.session_build");
    dpg::algo::session_env env;
    env.g = s->g.get();
    env.weights = s->w.get();
    env.machine.n_ranks = kRanks;
    s->pool = std::make_shared<dpg::ampp::wire_pool>(kRanks);
    env.pool = s->pool;
    for (std::size_t i = 0; i < 5; ++i)
      s->sessions[i] = dpg::algo::make_solver_session(static_cast<algorithm>(i), env);
  }
  const std::int64_t t4 = now_ns();
  if (sources != nullptr) {
    // Warm-up: one solve of every distinct kind, so lazily sized maps and
    // pooled envelope buffers exist before the clock starts.
    span sp("bench.warmup");
    for (std::size_t i = 0; i < kKinds; ++i) {
      const query_kind& k = kCycle[i];
      if (std::find_if(kCycle, kCycle + i, [&](const query_kind& o) {
            return o.algo == k.algo && o.delta == k.delta;
          }) != kCycle + i)
        continue;
      span q("algo.run");
      (void)s->session(k.algo).run({.source = (*sources)[0], .delta = k.delta});
    }
  }
  const std::int64_t t5 = now_ns();
  st.total_s.push_back(ns_to_s(t5 - t0));
  st.generate_s.push_back(ns_to_s(t1 - t0));
  st.build_s.push_back(ns_to_s(t2 - t1));
  st.weights_ms.push_back(ns_to_ms(t3 - t2));
  st.session_build_ms.push_back(ns_to_ms(t4 - t3) / 5.0);
  return s;
}

}  // namespace

void run_solve_rmat(const run_args& a, report& rep) {
  set_tracing(a.trace);

  // Sources come from the giant component of the seed's graph; computing
  // them is oracle work and stays outside every set-up timing.
  std::vector<vertex_id> sources;
  {
    const auto edges = rmat_symmetric(kScale, kEdgeFactor, substream(a.seed, 1));
    const vertex_id n = vertex_id{1} << kScale;
    dpg::graph::distributed_graph g(n, edges, dpg::graph::distribution::cyclic(n, kRanks));
    sources = giant_component_order(g, substream(a.seed, 3));
    sources.resize(std::min(sources.size(), kSources));
  }

  setup_times st;
  std::unique_ptr<solve_state> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    release_freed_memory();
    s = build(a.seed, st, &sources);
  }
  st.publish(rep);

  oracle orc(*s->g, *s->w);
  std::vector<std::int64_t> lat;
  std::vector<std::int64_t> per_kind[kKinds];
  layer_counters lc;
  // A traced run alternates untraced and traced cycles, for the overhead.
  std::int64_t busy_ns[2] = {0, 0};
  std::uint64_t answers[2] = {0, 0};
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds * 1e9);
  std::uint64_t q = 0, cycles = 0;
  std::int64_t busy = 0;
  while (busy < budget) {
    const int traced = a.trace ? static_cast<int>(cycles++ % 2) : 0;
    set_tracing(traced == 1);
    for (std::size_t k = 0; k < kKinds; ++k, ++q) {
      const query_kind& kind = kCycle[k];
      const vertex_id src = sources[q % sources.size()];
      dpg::serve::session_result res;
      const std::int64_t t0 = now_ns();
      {
        span req("bench.request", q);
        span run("algo.run", q);
        res = s->session(kind.algo).run({.source = src, .delta = kind.delta});
      }
      const std::int64_t dt = now_ns() - t0;
      busy += dt;
      busy_ns[traced] += dt;
      lat.push_back(dt);
      per_kind[k].push_back(dt);
      lc.add(res);
      std::string why;
      const bool ok = res.converged && res.graph_version == s->g->version() &&
                      orc.check(kind.algo, src, res.values, &why);
      if (!ok) rep.fail(why.empty() ? "unconverged or stale answer" : why);
      rep.count(ok);
      if (ok) ++answers[traced];
    }
  }
  set_tracing(false);

  const latency_summary ls = summarize_ns(lat);
  rep.set("throughput_qps", static_cast<double>(answers[0] + answers[1]) /
                                ns_to_s(busy_ns[0] + busy_ns[1]));
  rep.set("query_p50_ms", ls.p50_ms);
  rep.set("query_tail_ms", ls.tail_ms);
  rep.set("query_tail_pct", ls.tail_pct);
  rep.set("query_samples", static_cast<double>(ls.samples));
  std::map<std::string, std::vector<std::int64_t>> by_name;
  for (std::size_t k = 0; k < kKinds; ++k)
    by_name[kCycle[k].name].insert(by_name[kCycle[k].name].end(), per_kind[k].begin(),
                                   per_kind[k].end());
  for (const auto& [name, ns] : by_name) rep.set("algo.run_ms." + name, median_ms(ns));
  lc.publish(rep, q);
  if (a.trace && busy_ns[0] > 0 && busy_ns[1] > 0)
    rep.set("obs.trace_overhead_frac",
            1.0 - (static_cast<double>(answers[1]) / ns_to_s(busy_ns[1])) /
                      (static_cast<double>(answers[0]) / ns_to_s(busy_ns[0])));
  publish_self_times(rep, "bench.request");
  rep.set("rss_peak_mb", peak_rss_mb());
  rep.provenance["vertices"] = std::to_string(s->g->num_vertices());
  rep.provenance["live_edges"] = std::to_string(s->g->num_edges());
}

}  // namespace pb
