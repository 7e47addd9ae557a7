// solve-shm: the solve-rmat graph with one process per rank over the
// shared-memory ring backend. Both rank processes run this function in
// SPMD lock-step; rank 0 times each solve, gathers the answer with
// exchange_blobs (off the clock, as tools/rankproc does) and checks it
// against the oracle. Queries cycle through sssp (fixed point), bfs and cc,
// the schedules that run across processes.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/sssp.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb {

namespace {

using dpg::serve::algorithm;
using dpg::graph::distributed_graph;

constexpr unsigned kScale = 14;
constexpr unsigned kEdgeFactor = 16;
constexpr std::size_t kSources = 64;
// Per-(src,dest) ring capacity: 16x the library default, and not the
// default on purpose. With the default (1 MiB), and with 4 MiB, this
// workload deadlocks: shm send spins on a full ring without draining its
// own inbound ring, so two ranks flooding each other both block until the
// ring-full timeout. That defect stands in the library; this workload
// runs around it, and stamps both sizes into every result's provenance.
// The pages touched in the rings (two rings in use per transport, three
// transports) count in rss_peak_mb.
constexpr std::uint32_t kRingBytes = 16u << 20;

struct query_kind {
  algorithm algo;
  const char* name;
};
constexpr query_kind kCycle[] = {
    {algorithm::sssp, "sssp"}, {algorithm::bfs, "bfs"}, {algorithm::cc, "cc"}};
constexpr std::size_t kKinds = std::size(kCycle);

dpg::ampp::transport_config machine(const run_args& a, const std::string& session) {
  dpg::ampp::backend_config bc;
  bc.kind = dpg::ampp::backend_config::kind_t::shm_ring;
  bc.self_rank = static_cast<dpg::ampp::rank_t>(a.rank);
  bc.session = session;
  bc.ring_bytes = kRingBytes;
  dpg::ampp::transport_config cfg;
  cfg.n_ranks = kRanks;
  cfg.backend = bc;
  return cfg;
}

struct shm_state {
  std::unique_ptr<distributed_graph> g;
  std::unique_ptr<dpg::pmap::edge_property_map<double>> w;
  std::unique_ptr<dpg::ampp::transport> tp_sssp, tp_bfs;
  std::unique_ptr<dpg::algo::sssp_solver> sssp;
  std::unique_ptr<dpg::algo::bfs_solver> bfs;
  std::unique_ptr<dpg::algo::cc_solver> cc;

  dpg::ampp::transport& transport(algorithm a) {
    return a == algorithm::sssp ? *tp_sssp : a == algorithm::bfs ? *tp_bfs : cc->transport();
  }

  /// Runs one solve; returns its strategy rounds and modifications (the
  /// modification count is already summed over ranks).
  std::pair<std::uint64_t, std::uint64_t> solve(algorithm a, vertex_id source) {
    dpg::strategy::result res{};
    switch (a) {
      case algorithm::sssp:
        tp_sssp->run([&](dpg::ampp::transport_context& ctx) {
          res = sssp->run_fixed_point(ctx, source);
        });
        return {res.rounds, res.modifications};
      case algorithm::bfs:
        tp_bfs->run([&](dpg::ampp::transport_context& ctx) {
          res = bfs->run_fixed_point(ctx, source);
        });
        return {res.rounds, res.modifications};
      default:
        cc->solve();
        return {static_cast<std::uint64_t>(cc->jump_rounds()), cc->searches_seeded()};
    }
  }
};

std::unique_ptr<shm_state> build(const run_args& a, int rep_index, setup_times& st,
                                 vertex_id warm_source) {
  span root("bench.setup");
  const std::int64_t t0 = now_ns();
  auto s = std::make_unique<shm_state>();
  std::vector<edge> edges;
  {
    span sp("graph.generate");
    edges = rmat_symmetric(kScale, kEdgeFactor, substream(a.seed, 1));
  }
  const std::int64_t t1 = now_ns();
  const vertex_id n = vertex_id{1} << kScale;
  {
    span sp("graph.build");
    s->g = std::make_unique<distributed_graph>(n, edges,
                                               dpg::graph::distribution::cyclic(n, kRanks));
  }
  const std::int64_t t2 = now_ns();
  {
    span sp("pmap.weights_build");
    s->w = std::make_unique<dpg::pmap::edge_property_map<double>>(
        make_weights(*s->g, substream(a.seed, 2)));
  }
  const std::int64_t t3 = now_ns();
  {
    // Transport construction includes the shared-memory rendezvous with
    // the sibling rank process.
    span sp("algo.session_build");
    const auto cfg = machine(a, a.session + "-" + std::to_string(rep_index));
    s->tp_sssp = std::make_unique<dpg::ampp::transport>(cfg);
    s->tp_bfs = std::make_unique<dpg::ampp::transport>(cfg);
    s->cc = std::make_unique<dpg::algo::cc_solver>(*s->g, cfg);
    for (const query_kind& k : kCycle)
      s->transport(k.algo).set_topology_stamp(s->g->version(), s->g->structure_version());
    s->sssp = std::make_unique<dpg::algo::sssp_solver>(*s->tp_sssp, *s->g, *s->w);
    s->bfs = std::make_unique<dpg::algo::bfs_solver>(*s->tp_bfs, *s->g);
  }
  const std::int64_t t4 = now_ns();
  {
    span sp("bench.warmup");
    for (const query_kind& k : kCycle) {
      span q("algo.run");
      s->solve(k.algo, warm_source);
    }
  }
  const std::int64_t t5 = now_ns();
  st.total_s.push_back(ns_to_s(t5 - t0));
  st.generate_s.push_back(ns_to_s(t1 - t0));
  st.build_s.push_back(ns_to_s(t2 - t1));
  st.weights_ms.push_back(ns_to_ms(t3 - t2));
  st.session_build_ms.push_back(ns_to_ms(t4 - t3) / static_cast<double>(kKinds));
  return s;
}

std::vector<std::byte> to_bytes(const std::vector<std::uint64_t>& v) {
  std::vector<std::byte> out(v.size() * 8);
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

std::vector<std::uint64_t> from_bytes(const std::vector<std::byte>& b) {
  std::vector<std::uint64_t> out(b.size() / 8);
  if (!out.empty()) std::memcpy(out.data(), b.data(), out.size() * 8);
  return out;
}

/// Allgathers the answer of the last solve of `a` (every rank ships the
/// values of the vertices it owns) into one per-vertex array.
std::vector<std::uint64_t> gather(shm_state& s, algorithm a) {
  span sp("ampp.backend.exchange_blobs");
  const auto& d = s.g->dist();
  dpg::ampp::transport& tp = s.transport(a);
  const dpg::ampp::rank_t self = tp.self_rank();
  const std::uint64_t cnt = d.count(self);
  std::vector<std::uint64_t> mine(cnt);
  for (std::uint64_t li = 0; li < cnt; ++li) {
    const vertex_id v = d.global(self, li);
    mine[li] = a == algorithm::sssp  ? std::bit_cast<std::uint64_t>(s.sssp->dist()[v])
               : a == algorithm::bfs ? s.bfs->depth()[v]
                                     : static_cast<std::uint64_t>(s.cc->components()[v]);
  }
  const auto blobs = tp.exchange_blobs(to_bytes(mine));
  std::vector<std::uint64_t> all(s.g->num_vertices(), 0);
  for (dpg::ampp::rank_t r = 0; r < tp.size(); ++r) {
    const std::vector<std::uint64_t> part = from_bytes(blobs[r]);
    if (part.size() != d.count(r))
      throw std::runtime_error("solve-shm: shard size mismatch from rank " + std::to_string(r));
    for (std::uint64_t li = 0; li < part.size(); ++li) all[d.global(r, li)] = part[li];
  }
  if (a == algorithm::cc) canonicalize_labels(all);
  return all;
}

}  // namespace

void run_solve_shm(const run_args& a, report& rep) {
  const bool lead = a.rank == 0;
  set_tracing(a.trace && lead);

  std::vector<vertex_id> sources;
  {
    const auto edges = rmat_symmetric(kScale, kEdgeFactor, substream(a.seed, 1));
    const vertex_id n = vertex_id{1} << kScale;
    distributed_graph g(n, edges, dpg::graph::distribution::cyclic(n, kRanks));
    sources = giant_component_order(g, substream(a.seed, 3));
    sources.resize(std::min(sources.size(), kSources));
  }

  setup_times st;
  std::unique_ptr<shm_state> s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.reset();
    release_freed_memory();
    s = build(a, r, st, sources[0]);
  }
  st.publish(rep);

  std::unique_ptr<oracle> orc;
  if (lead) orc = std::make_unique<oracle>(*s->g, *s->w);
  std::vector<std::int64_t> lat, per_kind[kKinds];
  layer_counters lc;
  std::int64_t busy_ns[2] = {0, 0};
  std::uint64_t good[2] = {0, 0};
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds * 1e9);
  std::int64_t busy = 0;
  std::uint64_t q = 0, cycles = 0;
  for (;;) {
    // Rank 0 decides whether another cycle runs; the flag travels with an
    // out-of-band allgather so both processes stay in SPMD order.
    const std::vector<std::byte> flag{std::byte{lead && busy < budget ? std::uint8_t{1}
                                                                      : std::uint8_t{0}}};
    const auto flags = s->tp_sssp->exchange_blobs(lead ? flag : std::vector<std::byte>{});
    if (flags[0].empty() || flags[0][0] == std::byte{0}) break;
    // A traced run alternates untraced and traced cycles, for the overhead.
    const int traced = a.trace ? static_cast<int>(cycles++ % 2) : 0;
    set_tracing(lead && traced == 1);
    for (std::size_t k = 0; k < kKinds; ++k, ++q) {
      const algorithm algo = kCycle[k].algo;
      const vertex_id src = sources[q % sources.size()];
      dpg::ampp::transport& tp = s->transport(algo);
      dpg::obs::stats_scope sc(tp.obs());
      std::pair<std::uint64_t, std::uint64_t> outcome;
      std::int64_t dt = 0;
      std::vector<std::uint64_t> values;
      {
        span req("bench.request", q);
        const std::int64_t t0 = now_ns();
        {
          span run("algo.run", q);
          outcome = s->solve(algo, src);
        }
        dt = now_ns() - t0;
        lc.add_core(sc.finish().core);
        values = gather(*s, algo);  // off the clock
      }
      lc.rounds += outcome.first;
      lc.modifications += outcome.second;
      if (!lead) continue;
      busy += dt;
      busy_ns[traced] += dt;
      lat.push_back(dt);
      per_kind[k].push_back(dt);
      std::string why;
      const bool ok = orc->check(algo, src, values, &why);
      if (!ok) rep.fail(why);
      rep.count(ok);
      if (ok) ++good[traced];
    }
  }
  set_tracing(false);

  // Sum the counters and take the peak RSS over both rank processes.
  std::vector<std::uint64_t> mine = {
      lc.core.messages_sent,      lc.core.envelopes_sent,    lc.core.wire_bytes_sent,
      lc.core.handler_invocations, lc.core.cache_hits,       lc.core.td_rounds,
      lc.core.control_messages,   lc.core.flush_lane_visits, lc.core.flush_lane_skips,
      lc.core.pool_reuses,        lc.core.batch_records,     lc.core.envelopes_retried,
      lc.core.envelopes_dropped,
      static_cast<std::uint64_t>(peak_rss_mb() * 1024.0)};
  const auto all = s->tp_sssp->exchange_blobs(to_bytes(mine));
  if (!lead) return;
  layer_counters sum;
  sum.rounds = lc.rounds;
  sum.modifications = lc.modifications;
  double rss_kb = 0.0;
  for (const auto& blob : all) {
    const std::vector<std::uint64_t> c = from_bytes(blob);
    if (c.size() != mine.size()) throw std::runtime_error("solve-shm: bad counter blob");
    sum.core.messages_sent += c[0];
    sum.core.envelopes_sent += c[1];
    sum.core.wire_bytes_sent += c[2];
    sum.core.handler_invocations += c[3];
    sum.core.cache_hits += c[4];
    sum.core.td_rounds += c[5];
    sum.core.control_messages += c[6];
    sum.core.flush_lane_visits += c[7];
    sum.core.flush_lane_skips += c[8];
    sum.core.pool_reuses += c[9];
    sum.core.batch_records += c[10];
    sum.core.envelopes_retried += c[11];
    sum.core.envelopes_dropped += c[12];
    rss_kb = std::max(rss_kb, static_cast<double>(c[13]));
  }

  const latency_summary ls = summarize_ns(lat);
  rep.set("throughput_qps",
          static_cast<double>(good[0] + good[1]) / ns_to_s(busy_ns[0] + busy_ns[1]));
  rep.set("query_p50_ms", ls.p50_ms);
  rep.set("query_tail_ms", ls.tail_ms);
  rep.set("query_tail_pct", ls.tail_pct);
  rep.set("query_samples", static_cast<double>(ls.samples));
  for (std::size_t k = 0; k < kKinds; ++k)
    rep.set(std::string("algo.run_ms.") + kCycle[k].name, median_ms(per_kind[k]));
  sum.publish(rep, q);
  rep.set("ampp.backend.wire_mb_per_s", static_cast<double>(sum.core.wire_bytes_sent) /
                                            (1 << 20) / ns_to_s(busy_ns[0] + busy_ns[1]));
  if (a.trace && busy_ns[0] > 0 && busy_ns[1] > 0 && good[0] > 0)
    rep.set("obs.trace_overhead_frac",
            1.0 - (static_cast<double>(good[1]) / ns_to_s(busy_ns[1])) /
                      (static_cast<double>(good[0]) / ns_to_s(busy_ns[0])));
  publish_self_times(rep, "bench.request");
  rep.set("rss_peak_mb", rss_kb / 1024.0);
  rep.provenance["shm_ring_bytes"] = std::to_string(kRingBytes);
  rep.provenance["shm_ring_bytes_default"] =
      std::to_string(dpg::ampp::backend_config{}.ring_bytes);
  rep.provenance["vertices"] = std::to_string(s->g->num_vertices());
  rep.provenance["live_edges"] = std::to_string(s->g->num_edges());
}

}  // namespace pb
