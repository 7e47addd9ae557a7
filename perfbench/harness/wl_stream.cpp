// stream-churn: a closed loop replaying a timestamped edge stream through
// server::apply_mutation. Every batch deletes 16 present pairs and adds 16
// absent ones, then repair_query brings the continuous sssp, cc and k-core
// answers to the new version. The graph is never compacted, so overlay and
// tombstones grow for the whole run. Each answer is checked against the
// oracle on the live graph right after its batch, off the clock.
#include <memory>

#include "inputs.hpp"
#include "oracle.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using dpg::serve::algorithm;

constexpr unsigned kScale = 12;
constexpr unsigned kEdgeFactor = 16;
constexpr int kDelPairs = 16;
constexpr int kAddPairs = 16;
// Tails are medians over this many consecutive windows of the run.
constexpr std::size_t kWindows = 15;

struct continuous_query {
  algorithm algo;
  const char* name;  // suffix of serve.repair_ms.<name>
};
constexpr continuous_query kQueries[] = {
    {algorithm::sssp, "sssp"}, {algorithm::cc, "cc"}, {algorithm::kcore, "kcore"}};
constexpr std::size_t kNumQueries = std::size(kQueries);

struct stream_state {
  std::vector<edge> base;
  std::unique_ptr<dpg::graph::distributed_graph> g;
  std::unique_ptr<dpg::pmap::edge_property_map<double>> w;
  std::unique_ptr<dpg::serve::server> srv;
};

std::unique_ptr<stream_state> build(std::uint64_t seed, setup_times& st, vertex_id source) {
  span root("bench.setup");
  const std::int64_t t0 = now_ns();
  auto s = std::make_unique<stream_state>();
  {
    span sp("graph.generate");
    s->base = rmat_symmetric(kScale, kEdgeFactor, substream(seed, 1));
  }
  const std::int64_t t1 = now_ns();
  const vertex_id n = vertex_id{1} << kScale;
  {
    span sp("graph.build");
    s->g = std::make_unique<dpg::graph::distributed_graph>(
        n, s->base, dpg::graph::distribution::cyclic(n, kRanks));
  }
  const std::int64_t t2 = now_ns();
  {
    span sp("pmap.weights_build");
    s->w = std::make_unique<dpg::pmap::edge_property_map<double>>(
        make_weights(*s->g, substream(seed, 2)));
  }
  const std::int64_t t3 = now_ns();
  {
    span sp("serve.server_build");
    dpg::serve::server_config cfg;
    cfg.machine.n_ranks = kRanks;
    s->srv = std::make_unique<dpg::serve::server>(*s->g, *s->w, cfg);
  }
  const std::int64_t t4 = now_ns();
  {
    // The first answer of each continuous query is a cold solve; it builds
    // the session and the state later batches repair.
    span sp("bench.warmup");
    for (const continuous_query& cq : kQueries) {
      span q("serve.query");
      (void)s->srv->query({cq.algo, {.source = source}, 0});
    }
  }
  const std::int64_t t5 = now_ns();
  st.total_s.push_back(ns_to_s(t5 - t0));
  st.generate_s.push_back(ns_to_s(t1 - t0));
  st.build_s.push_back(ns_to_s(t2 - t1));
  st.weights_ms.push_back(ns_to_ms(t3 - t2));
  // Sessions are built inside the warm-up queries; the server constructor
  // is the visible session-side cost.
  st.session_build_ms.push_back(ns_to_ms(t4 - t3));
  return s;
}

}  // namespace

void run_stream_churn(const run_args& a, report& rep) {
  set_tracing(a.trace);

  // The continuous SSSP query runs from the highest-degree vertex: a
  // low-degree source can lose its last edge early in the stream, after
  // which every repair is trivial and the run measures nothing.
  vertex_id source = 0;
  {
    const auto edges = rmat_symmetric(kScale, kEdgeFactor, substream(a.seed, 1));
    const vertex_id n = vertex_id{1} << kScale;
    dpg::graph::distributed_graph g(n, edges, dpg::graph::distribution::cyclic(n, kRanks));
    for (vertex_id v = 1; v < n; ++v)
      if (g.out_degree(v) > g.out_degree(source)) source = v;
  }

  setup_times st;
  std::unique_ptr<stream_state> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    release_freed_memory();
    s = build(a.seed, st, source);
  }
  st.publish(rep);

  dpg::serve::server& srv = *s->srv;
  edge_stream stream(s->base, substream(a.seed, 5), kDelPairs, kAddPairs);
  oracle orc(*s->g, *s->w);
  const std::uint64_t inval0 = srv.cache().invalidations();
  const std::uint64_t created0 = srv.pool().created();
  const std::uint64_t warm0 = srv.pool().warm_hits();

  std::vector<std::int64_t> lat, ingest, fresh, repair[kNumQueries];
  layer_counters lc;
  std::uint64_t warm = 0, answers = 0, batches = 0;
  std::uint64_t good[2] = {0, 0};
  std::int64_t busy_ns[2] = {0, 0};
  // The run is bounded by wall time: oracle checks between batches take
  // longer than the batches themselves.
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds * 1e9);
  while (now_ns() - start < budget) {
    // A traced run alternates untraced and traced batches, so the growth
    // of overlay and tombstones over the run weighs on both alike.
    const int traced = a.trace ? static_cast<int>(batches % 2) : 0;
    set_tracing(traced == 1);
    const edge_stream::batch b = stream.next();
    std::shared_ptr<const dpg::serve::session_result> res[kNumQueries];
    const std::int64_t t0 = now_ns();
    {
      span req("bench.batch", batches);
      {
        span call("serve.apply_mutation", batches);
        srv.apply_mutation(b.added, b.removed);
      }
      const std::int64_t t1 = now_ns();
      ingest.push_back(t1 - t0);
      std::int64_t tq = t1;
      for (std::size_t i = 0; i < kNumQueries; ++i) {
        {
          span call("serve.repair_query", batches);
          res[i] = srv.repair_query({kQueries[i].algo, {.source = source}, 0});
        }
        const std::int64_t t = now_ns();
        lat.push_back(t - tq);
        repair[i].push_back(t - tq);
        tq = t;
      }
    }
    const std::int64_t dt = now_ns() - t0;
    fresh.push_back(dt);
    busy_ns[traced] += dt;
    ++batches;
    rep.count(true);  // the mutation itself
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      const dpg::serve::session_result& r = *res[i];
      lc.add(r);
      warm += r.warm_repair ? 1 : 0;
      ++answers;
      std::string why;
      const bool ok = r.converged && r.graph_version == s->g->version() &&
                      orc.check(kQueries[i].algo, source, r.values, &why);
      if (!ok) rep.fail(why.empty() ? "unconverged or stale answer" : why);
      rep.count(ok);
      if (ok) ++good[traced];
    }
  }
  set_tracing(false);

  const latency_summary ls = summarize_windowed_ns(lat, kWindows);
  rep.set("throughput_qps",
          static_cast<double>(good[0] + good[1]) / ns_to_s(busy_ns[0] + busy_ns[1]));
  rep.set("query_p50_ms", ls.p50_ms);
  rep.set("query_tail_ms", ls.tail_ms);
  rep.set("query_tail_pct", ls.tail_pct);
  rep.set("query_samples", static_cast<double>(ls.samples));
  const latency_summary li = summarize_windowed_ns(ingest, kWindows);
  rep.set("ingest_p50_ms", li.p50_ms);
  rep.set("ingest_tail_ms", li.tail_ms);
  const latency_summary lf = summarize_windowed_ns(fresh, kWindows);
  rep.set("fresh_p50_ms", lf.p50_ms);
  rep.set("fresh_tail_ms", lf.tail_ms);
  for (std::size_t i = 0; i < kNumQueries; ++i)
    rep.set(std::string("serve.repair_ms.") + kQueries[i].name, median_ms(repair[i]));
  rep.set("serve.warm_repair_frac",
          answers == 0 ? 0.0 : static_cast<double>(warm) / static_cast<double>(answers));

  dpg::obs::rollup::tenant_row t = srv.obs().tenant(0);
  const double tq = static_cast<double>(std::max<std::uint64_t>(t.queries, 1));
  rep.set("serve.cache_hit_frac", static_cast<double>(t.cache_hits) / tq);
  rep.set("serve.merged_frac", static_cast<double>(t.merged) / tq);
  rep.set("serve.solves_per_query", static_cast<double>(t.solves) / tq);
  rep.set("serve.cache_invalidations", static_cast<double>(srv.cache().invalidations() - inval0));
  const std::uint64_t created = srv.pool().created() - created0;
  const std::uint64_t warm_hits = srv.pool().warm_hits() - warm0;
  rep.set("serve.sessions_created", static_cast<double>(created));
  rep.set("serve.pool_warm_hit_frac",
          warm_hits + created == 0
              ? 0.0
              : static_cast<double>(warm_hits) / static_cast<double>(warm_hits + created));
  lc.publish(rep, answers);
  if (a.trace && busy_ns[0] > 0 && busy_ns[1] > 0 && good[0] > 0)
    rep.set("obs.trace_overhead_frac",
            1.0 - (static_cast<double>(good[1]) / ns_to_s(busy_ns[1])) /
                      (static_cast<double>(good[0]) / ns_to_s(busy_ns[0])));
  publish_self_times(rep, "bench.batch");
  rep.set("graph.delta_edges", static_cast<double>(s->g->total_delta_edges()));
  rep.set("graph.tombstoned_edges", static_cast<double>(s->g->total_tombstoned_edges()));
  rep.set("graph.overlay_mb", static_cast<double>(s->g->overlay_bytes()) / (1 << 20));
  rep.set("graph.tombstone_mb", static_cast<double>(s->g->tombstone_bytes()) / (1 << 20));
  rep.set("rss_peak_mb", peak_rss_mb());
  rep.provenance["vertices"] = std::to_string(s->g->num_vertices());
  rep.provenance["live_edges"] = std::to_string(s->g->num_edges());
  rep.provenance["batches"] = std::to_string(batches);
}

}  // namespace pb
