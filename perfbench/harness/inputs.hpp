// Seeded workload inputs: the R-MAT graphs, their weights, query sources,
// and the timestamped edge stream. Everything here is a pure function of
// the workload seed, so two runs with one seed see identical inputs.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "pmap/edge_map.hpp"
#include "util/rng.hpp"

namespace pb {

using dpg::graph::edge;
using dpg::graph::vertex_id;

/// Seed of an independent substream `k` of the workload seed.
std::uint64_t substream(std::uint64_t seed, std::uint64_t k);

/// Graph500 R-MAT (scale, edge factor), symmetrized and simplified (no
/// self-loops, no parallel edges): the simple symmetric domain every
/// served algorithm — k-core in particular — agrees on.
std::vector<edge> rmat_symmetric(unsigned scale, unsigned edge_factor,
                                 std::uint64_t seed);

/// Integer edge weights in [1, 255] from the unordered endpoint pair, so
/// both directions agree and edges added later get weights from the same
/// recipe.
dpg::pmap::edge_property_map<double> make_weights(const dpg::graph::distributed_graph& g,
                                                  std::uint64_t seed);

/// Vertices of the largest connected component, in a seeded random order.
/// Queries draw their sources from here so every solve traverses the bulk
/// of the graph rather than an isolated vertex.
std::vector<vertex_id> giant_component_order(const dpg::graph::distributed_graph& g,
                                             std::uint64_t seed);

/// Undirected pair key (u < v).
inline std::uint64_t pair_key(vertex_id u, vertex_id v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
}

/// A replayable stream of topology mutations over a simple symmetric graph.
/// Each batch deletes `del_pairs` uniformly chosen present pairs and adds
/// `add_pairs` absent pairs with degree-proportional endpoints, always as
/// both directed halves, so the graph stays simple and symmetric with a
/// constant live-edge count. Batches carry increasing timestamps (µs of
/// simulated stream time). Deterministic in the seed.
class edge_stream {
 public:
  struct batch {
    std::uint64_t timestamp_us = 0;
    std::vector<edge> added;
    std::vector<edge> removed;
  };

  edge_stream(std::span<const edge> base, std::uint64_t seed, int del_pairs,
              int add_pairs);

  batch next();

 private:
  int del_pairs_, add_pairs_;
  std::vector<std::pair<vertex_id, vertex_id>> pairs_;  // present, u < v
  std::unordered_set<std::uint64_t> present_;
  dpg::xoshiro256ss rng_;
  std::uint64_t clock_us_ = 0;
};

}  // namespace pb
