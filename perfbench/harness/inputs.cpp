#include "inputs.hpp"

#include <algorithm>

#include "algo/baselines.hpp"
#include "graph/generators.hpp"

namespace pb {

std::uint64_t substream(std::uint64_t seed, std::uint64_t k) {
  return dpg::substream_seed(seed, k);
}

std::vector<edge> rmat_symmetric(unsigned scale, unsigned edge_factor,
                                 std::uint64_t seed) {
  dpg::graph::rmat_params p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  return dpg::graph::simplify(dpg::graph::symmetrize(dpg::graph::rmat(p, seed)));
}

dpg::pmap::edge_property_map<double> make_weights(const dpg::graph::distributed_graph& g,
                                                  std::uint64_t seed) {
  return dpg::pmap::edge_property_map<double>(
      g, [seed](const dpg::graph::edge_handle& e) {
        return static_cast<double>(dpg::graph::edge_weight_int(e.src, e.dst, seed, 255));
      });
}

std::vector<vertex_id> giant_component_order(const dpg::graph::distributed_graph& g,
                                             std::uint64_t seed) {
  const std::vector<vertex_id> label = dpg::algo::cc_union_find(g);
  std::vector<std::uint64_t> size(g.num_vertices(), 0);
  for (const vertex_id l : label) ++size[l];
  const vertex_id giant = static_cast<vertex_id>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<vertex_id> out;
  for (vertex_id v = 0; v < g.num_vertices(); ++v)
    if (label[v] == giant) out.push_back(v);
  dpg::xoshiro256ss rng(seed);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

edge_stream::edge_stream(std::span<const edge> base, std::uint64_t seed, int del_pairs,
                         int add_pairs)
    : del_pairs_(del_pairs), add_pairs_(add_pairs), rng_(seed) {
  for (const edge& e : base)
    if (e.src < e.dst && present_.insert(pair_key(e.src, e.dst)).second)
      pairs_.push_back({e.src, e.dst});
  // Sorted so the stream does not depend on the base list's order.
  std::sort(pairs_.begin(), pairs_.end());
}

edge_stream::batch edge_stream::next() {
  batch b;
  clock_us_ += 1 + rng_.below(1000);
  b.timestamp_us = clock_us_;
  for (int i = 0; i < del_pairs_ && !pairs_.empty(); ++i) {
    const std::size_t idx = static_cast<std::size_t>(rng_.below(pairs_.size()));
    const auto [u, v] = pairs_[idx];
    pairs_[idx] = pairs_.back();
    pairs_.pop_back();
    present_.erase(pair_key(u, v));
    b.removed.push_back({u, v});
    b.removed.push_back({v, u});
  }
  for (int i = 0; i < add_pairs_; ++i) {
    // Endpoints are endpoints of random present pairs, i.e. drawn in
    // proportion to degree: the churn keeps the R-MAT degree profile (and
    // leaves isolated vertices isolated), so the graph's shape, and the
    // cost of a batch, stay stationary over a long stream.
    vertex_id u = 0, v = 0;
    do {
      const auto& p = pairs_[static_cast<std::size_t>(rng_.below(pairs_.size()))];
      const auto& q = pairs_[static_cast<std::size_t>(rng_.below(pairs_.size()))];
      u = rng_.below(2) == 0 ? p.first : p.second;
      v = rng_.below(2) == 0 ? q.first : q.second;
      if (u > v) std::swap(u, v);
    } while (u == v || present_.contains(pair_key(u, v)));
    present_.insert(pair_key(u, v));
    pairs_.push_back({u, v});
    b.added.push_back({u, v});
    b.added.push_back({v, u});
  }
  return b;
}

}  // namespace pb
