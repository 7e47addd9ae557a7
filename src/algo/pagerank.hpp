// PageRank as a pattern: a scatter action accumulates rank contributions
// into the target's slot with a `modify` through the library's `plus`
// reducer, and an imperative per-iteration epilogue applies damping and
// swaps buffers — a textbook case of the paper's "declarative patterns
// inside imperative algorithms".
//
// Because the reducer is a tag the plan compiler recognizes (not an
// arbitrary lambda), the scatter compiles to the accumulate lane: 16-byte
// {target, share} records, same-target shares summed at the sender by the
// reduction cache (a Pregel combiner), and a whole-envelope atomic
// scatter-add at the owner. With DPG_PATTERN_FASTPATH=0 (or
// compile_options::fast_path = off) the same pattern takes the generic
// gather -> evaluate -> lock-map route; both agree up to floating-point
// reassociation of the per-vertex sums.
#pragma once

#include <memory>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class pagerank_solver {
 public:
  pagerank_solver(ampp::transport& tp, const graph::distributed_graph& g,
                  pattern::compile_options copts = {})
      : g_(&g),
        rank_(g, 0.0),
        next_(g, 0.0),
        share_(g, 0.0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    using namespace pattern;
    property next(next_);
    property share(share_);
    scatter_ = instantiate(
        tp, g, locks_,
        make_action("pr.scatter", out_edges_gen{},
                    // Always fires: accumulate the sender's per-edge share.
                    when(lit(true), modify(next(trg(e_)), plus{}, share(v_)))),
        copts);
  }

  /// Collective: `iterations` damped power-iteration rounds.
  void run(ampp::transport_context& ctx, double damping, int iterations) {
    const auto n = static_cast<double>(g_->num_vertices());
    const ampp::rank_t r = ctx.rank();
    for (auto& x : rank_.local(r)) x = 1.0 / n;
    ctx.barrier();

    for (int it = 0; it < iterations; ++it) {
      // Local prologue: per-vertex share; collect sink mass.
      double local_sink = 0.0;
      {
        auto ranks = rank_.local(r);
        auto shares = share_.local(r);
        auto nexts = next_.local(r);
        for (std::size_t li = 0; li < ranks.size(); ++li) {
          nexts[li] = 0.0;
          const std::uint64_t deg = g_->out_degree(rank_.global_id(r, li));
          if (deg == 0)
            local_sink += ranks[li];
          else
            shares[li] = ranks[li] / static_cast<double>(deg);
        }
      }
      const double sink = ctx.allreduce_sum(local_sink);

      // Declarative scatter inside one epoch.
      {
        ampp::epoch ep(ctx);
        strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
          if (g_->out_degree(v) > 0) (*scatter_)(ctx, v);
        });
      }

      // Imperative epilogue: damping, teleport, sink redistribution, swap.
      const double base = (1.0 - damping) / n + damping * sink / n;
      auto ranks = rank_.local(r);
      auto nexts = next_.local(r);
      for (std::size_t li = 0; li < ranks.size(); ++li)
        ranks[li] = base + damping * nexts[li];
      ctx.barrier();
    }
  }

  pmap::vertex_property_map<double>& ranks() { return rank_; }
  /// The compiled scatter plan (the accumulate lane unless disabled).
  const pattern::plan_info& plan() const { return scatter_->plan(); }

 private:
  const graph::distributed_graph* g_;
  pmap::vertex_property_map<double> rank_;
  pmap::vertex_property_map<double> next_;
  pmap::vertex_property_map<double> share_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> scatter_;
};

}  // namespace dpg::algo
