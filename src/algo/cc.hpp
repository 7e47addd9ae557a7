// Connected components by parallel search (§II-B, Fig. 3 of the paper).
//
// Phase 1 — parallel search. Every rank sweeps its local vertices; each
// still-unassigned vertex becomes the root of a new search (pnt[v] = v;
// cc_search(v); epoch_flush()). The declarative search action spreads the
// root label along out-edges; when two searches collide, the invading root
// is recorded — once per distinct root — in a conflict list at the
// collision vertex (the `chg`
// recording of the paper, realized as a set-valued modification because our
// planner requires all modifications of one action to share a locality).
//
// Phase 2 — conflict resolution. The recorded collisions induce a graph
// over search roots. The paper resolves root equivalences on "the component
// labels alone" (rewriting "does not require traversing the graph"); we do
// the same: min-label propagation — the same relax-shaped pattern again —
// over the (small) conflict graph computes each root's final label chg[r].
// The conflict graph is a vertex property (each root's list of conflicting
// roots) walked by a pmap_gen generator, so phase 2 runs on the solver's
// own transport with plans compiled once in the constructor.
// (Pure min-hooking + pointer jumping alone is not confluent: a root that
// collides with two smaller roots keeps only one link, so the other branch
// would be lost; propagation over the conflict graph is the fixed-point
// closure of exactly those links.)
//
// Phase 3 — rewrite, the paper's cc_jump applied with the `once` strategy
// in a loop (Fig. 3 lines 14–17): pnt[v] jumps to chg[pnt[v]] while that
// is better — a pointer-chase pattern (v → pnt[v] → back to v). Only
// vertices whose root took part in a conflict can move, so only they are
// seeded.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class cc_solver {
  using root_lists = pmap::vertex_property_map<std::vector<vertex_id>>;

 public:
  /// The input graph should be symmetric (use graph::symmetrize) — the CC
  /// problem is defined on undirected graphs (§II-B). `pool` (optional)
  /// shares an envelope pool with other transports — under the serving
  /// layer, across every concurrent session context.
  cc_solver(const graph::distributed_graph& g, ampp::transport_config cfg,
            std::shared_ptr<ampp::wire_pool> pool = nullptr,
            pattern::compile_options copts = {})
      : g_(&g),
        tp_(cfg, std::move(pool)),
        pnt_(g, graph::invalid_vertex),
        conf_(g),
        chg_(g),
        cadj_(g),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    for (ampp::rank_t r = 0; r < tp_.size(); ++r) {
      auto span = chg_.local(r);
      for (std::size_t li = 0; li < span.size(); ++li) span[li] = chg_.global_id(r, li);
    }
    using namespace pattern;
    property P(pnt_);
    property F(conf_);
    property C(chg_);
    search_ = instantiate(
        tp_, g, locks_,
        make_action(
            "cc.search", out_edges_gen{},
            // Unclaimed neighbour: extend this search's component.
            when(P(trg(e_)) == lit(graph::invalid_vertex), assign(P(trg(e_)), P(v_))),
            // Claimed by another search: record the collision (else-if, so
            // this only fires for a *different* root). Each root is kept
            // once: the list stays a few entries long however many of its
            // edges cross into this vertex.
            when(P(trg(e_)) != P(v_),
                 modify(F(trg(e_)),
                        [](std::vector<vertex_id>& roots, vertex_id r) {
                          if (std::find(roots.begin(), roots.end(), r) == roots.end())
                            roots.push_back(r);
                        },
                        P(v_)))),
        copts);
    propagate_ = instantiate(
        tp_, g, locks_,
        make_action("cc.propagate", pmap_gen<root_lists>{&cadj_},
                    when(C(u_) > C(v_), assign(C(u_), C(v_)))),
        copts);
    jump_ = instantiate(tp_, g, locks_,
                        make_action("cc.jump", no_generator{},
                                    when(C(P(v_)) < P(v_), assign(P(v_), C(P(v_))))),
                        copts);
  }

  /// Runs the full pipeline. `flush_between_seeds` reproduces the
  /// epoch_flush of Fig. 3 line 11 (give running searches a chance to
  /// spread before seeding the next root); disabling it is the Q6 ablation.
  void solve(bool flush_between_seeds = true) {
    run_search_phase(flush_between_seeds);
    resolve_and_rewrite(collect_conflict_pairs());
  }

  /// Component labels (equal label <=> same component) after solve().
  pmap::vertex_property_map<vertex_id>& components() { return pnt_; }
  const pmap::vertex_property_map<vertex_id>& components() const { return pnt_; }

  // Diagnostics for tests and the benchmark harness.
  std::uint64_t searches_seeded() const { return seeds_; }
  std::uint64_t conflict_pairs() const { return conflicts_; }
  int jump_rounds() const { return jump_rounds_; }
  std::uint64_t search_messages() const { return search_messages_; }
  ampp::transport& transport() { return tp_; }
  const ampp::transport& transport() const { return tp_; }

 private:
  void run_search_phase(bool flush_between_seeds) {
    // Reset state so solve() can be called repeatedly.
    for (ampp::rank_t r = 0; r < tp_.size(); ++r) {
      for (auto& x : pnt_.local(r)) x = graph::invalid_vertex;
      for (auto& s : conf_.local(r)) s.clear();
    }
    seeds_ = 0;
    obs::stats_scope sc(tp_.obs());
    std::atomic<std::uint64_t> seeded{0};
    tp_.run([&](ampp::transport_context& ctx) {
      strategy::install_hook_collective(
          ctx, *search_,
          [this](ampp::transport_context& c, vertex_id dep) { (*search_)(c, dep); });
      ampp::epoch ep(ctx);
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
        if (pnt_[v] == graph::invalid_vertex) {
          pnt_[v] = v;  // new search root
          ++seeded;
          (*search_)(ctx, v);
          // "the system tries to perform as much work as possible ...
          // before starting the next search" (Fig. 3 line 11).
          if (flush_between_seeds) ep.flush();
        }
      });
    });
    seeds_ = seeded.load();
    search_messages_ = sc.finish().core.messages_sent;
  }

  /// The distinct conflicting root pairs, each as (min, max), sorted — the
  /// same list on every rank process.
  std::vector<graph::edge> collect_conflict_pairs() {
    std::vector<graph::edge> pairs;
    // simplify() sorts, drops duplicates and drops the self-pairs of a
    // root recorded at a vertex it has since claimed.
    const auto pairs_of = [&](vertex_id v) {
      const vertex_id root = pnt_[v];
      for (const vertex_id other : conf_[v])
        pairs.push_back(graph::edge{std::min(root, other), std::max(root, other)});
    };
    if (!tp_.cross_process()) {
      // Every shard lives in this process: read them all directly.
      for (vertex_id v = 0; v < g_->num_vertices(); ++v) pairs_of(v);
      return graph::simplify(std::move(pairs));
    }
    // Cross-process only the owned shard is authoritative here; the sibling
    // rank processes hold the rest. Each process ships its distinct owned
    // pairs (a few, however many edges collided), allgathers the byte
    // images over the wire, and merges them into the identical global list.
    static_assert(std::is_trivially_copyable_v<graph::edge>);
    const auto& d = g_->dist();
    const ampp::rank_t self = tp_.self_rank();
    const std::uint64_t cnt = d.count(self);
    for (std::uint64_t li = 0; li < cnt; ++li) pairs_of(d.global(self, li));
    pairs = graph::simplify(std::move(pairs));
    std::vector<std::byte> mine(pairs.size() * sizeof(graph::edge));
    if (!mine.empty()) std::memcpy(mine.data(), pairs.data(), mine.size());
    std::vector<graph::edge> all;
    for (const std::vector<std::byte>& blob : tp_.exchange_blobs(mine)) {
      const std::size_t n = blob.size() / sizeof(graph::edge);
      const std::size_t off = all.size();
      all.resize(off + n);
      if (n != 0) std::memcpy(all.data() + off, blob.data(), blob.size());
    }
    return graph::simplify(std::move(all));
  }

  void resolve_and_rewrite(const std::vector<graph::edge>& pairs) {
    conflicts_ = pairs.size();
    // Undo the previous solve's phase 2: only its conflict roots can hold
    // a lowered label or a conflict list.
    for (const vertex_id r : roots_) {
      chg_[r] = r;
      cadj_[r].clear();
    }
    roots_.clear();
    for (const graph::edge& p : pairs) {
      cadj_[p.src].push_back(p.dst);
      cadj_[p.dst].push_back(p.src);
      roots_.push_back(p.src);
      roots_.push_back(p.dst);
    }
    std::sort(roots_.begin(), roots_.end());
    roots_.erase(std::unique(roots_.begin(), roots_.end()), roots_.end());

    std::atomic<int> rounds{0};
    tp_.run([&](ampp::transport_context& ctx) {
      const ampp::rank_t me = ctx.rank();
      // Min-label propagation over the conflict graph (fixed point).
      std::vector<vertex_id> seeds;
      for (const vertex_id r : roots_)
        if (g_->owner(r) == me) seeds.push_back(r);
      strategy::fixed_point(ctx, *propagate_, seeds);
      // Fig. 3 lines 14-17: apply cc_jump with `once` until nothing changes.
      seeds.clear();
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
        if (std::binary_search(roots_.begin(), roots_.end(), pnt_[v])) seeds.push_back(v);
      });
      const strategy::result jr = strategy::once_until_quiet(ctx, *jump_, seeds);
      if (me == 0) rounds = static_cast<int>(jr.rounds);
    });
    jump_rounds_ = rounds.load();
  }

  const graph::distributed_graph* g_;
  ampp::transport tp_;
  pmap::vertex_property_map<vertex_id> pnt_;
  root_lists conf_;  ///< invading roots recorded at each vertex
  pmap::vertex_property_map<vertex_id> chg_;  ///< a root's resolved label
  root_lists cadj_;  ///< conflict graph: each root's conflicting roots
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> search_, propagate_, jump_;
  std::vector<vertex_id> roots_;  ///< the last solve's conflict roots, sorted

  std::uint64_t seeds_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t search_messages_ = 0;
  int jump_rounds_ = 0;
};

}  // namespace dpg::algo
