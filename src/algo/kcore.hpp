// k-core decomposition by peeling, as a pattern + imperative driver.
//
// The declarative part is a single degree-decrement action: a freshly
// removed vertex tells each surviving neighbour to decrement its residual
// degree (a `modify` statement — the grammar's arbitrary in-place
// property-map modification). The imperative part is the classic peeling
// loop: at threshold k, repeatedly kill alive vertices whose residual
// degree dropped below k; vertices killed while peeling threshold k have
// coreness k-1. Requires a symmetric graph.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class kcore_solver {
 public:
  kcore_solver(ampp::transport& tp, const graph::distributed_graph& g)
      : g_(&g),
        state_(g, kAlive),
        deg_(g, 0),
        core_(g, 0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    using namespace pattern;
    property S(state_);
    property D(deg_);
    decrement_ = instantiate(
        tp, g, locks_,
        make_action("kcore.decrement", out_edges_gen{},
                    when(S(v_) == lit(kFresh) && S(trg(e_)) == lit(kAlive),
                         modify(D(trg(e_)), [](std::uint64_t& d) {
                           if (d > 0) --d;
                         }))));
  }

  /// Collective: computes the coreness of every vertex. Returns the
  /// maximum coreness (the degeneracy of the graph).
  std::uint64_t run(ampp::transport_context& ctx) {
    const ampp::rank_t r = ctx.rank();
    {
      auto states = state_.local(r);
      auto degs = deg_.local(r);
      auto cores = core_.local(r);
      for (std::size_t li = 0; li < states.size(); ++li) {
        states[li] = kAlive;
        degs[li] = g_->out_degree(deg_.global_id(r, li));
        cores[li] = 0;
      }
    }
    ctx.barrier();

    // The peel's scans walk this rank's shards directly (local index li
    // <-> global id via the distribution), not the checked per-vertex
    // property access: every probe below is owner-local by construction.
    const graph::distribution& dd = g_->dist();
    std::vector<std::uint64_t> fresh;  // local indices killed this wave
    std::uint64_t k = 1;
    for (;;) {
      // Anyone still alive? If not, the previous k-1 was the degeneracy.
      const auto alive = state_.local(r);
      const bool alive_here = std::find(alive.begin(), alive.end(), kAlive) != alive.end();
      if (!ctx.allreduce_or(alive_here)) break;

      // Peel threshold k to a fixed point: surviving this loop means
      // being in the k-core, so survivors have coreness >= k.
      for (;;) {
        fresh.clear();
        {
          const auto states = state_.local(r);
          const auto degs = deg_.local(r);
          const auto cores = core_.local(r);
          for (std::size_t li = 0; li < states.size(); ++li) {
            if (states[li] == kAlive && degs[li] < k) {
              states[li] = kFresh;
              cores[li] = k - 1;  // died at threshold k => coreness k-1
              fresh.push_back(li);
            }
          }
        }
        {
          ampp::epoch ep(ctx);
          for (const std::uint64_t li : fresh) (*decrement_)(ctx, dd.global(r, li));
        }
        const auto states = state_.local(r);
        for (const std::uint64_t li : fresh) states[li] = kDead;
        if (!ctx.allreduce_or(!fresh.empty())) break;
      }
      ++k;
    }
    return ctx.allreduce_max(local_max_core(ctx));
  }

  pmap::vertex_property_map<std::uint64_t>& coreness() { return core_; }

 private:
  static constexpr std::uint32_t kAlive = 0, kFresh = 1, kDead = 2;

  std::uint64_t local_max_core(ampp::transport_context& ctx) {
    std::uint64_t m = 0;
    for (const auto c : core_.local(ctx.rank())) m = std::max(m, c);
    return m;
  }

  const graph::distributed_graph* g_;
  pmap::vertex_property_map<std::uint32_t> state_;
  pmap::vertex_property_map<std::uint64_t> deg_;
  pmap::vertex_property_map<std::uint64_t> core_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> decrement_;
};

}  // namespace dpg::algo
