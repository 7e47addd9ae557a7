// The correctness gate: every answer is compared, off the clock, with a
// sequential oracle computed on the graph at the topology version the
// answer is pinned to.
//   sssp (both schedules)  dijkstra, bit-exact
//   bfs                    bfs_levels, exact (unreachable = num_vertices)
//   cc                     cc_union_find, labels canonicalized to the minimum member
//   kcore                  kcore_peel, exact
//   pagerank               pagerank(0.85, 20 iterations), within 1e-12
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "pmap/edge_map.hpp"
#include "serve/session.hpp"

namespace pb {

/// Relabels every component by its minimum member.
void canonicalize_labels(std::vector<std::uint64_t>& labels);

class oracle {
 public:
  static constexpr double kPagerankTolerance = 1e-12;
  static constexpr double kPagerankDamping = 0.85;

  /// `g` and `w` must outlive the oracle. Whole-graph answers are cached
  /// per algorithm until the graph version moves.
  oracle(const dpg::graph::distributed_graph& g,
         const dpg::pmap::edge_property_map<double>& w)
      : g_(&g), w_(&w) {}

  /// True when `values` is the correct answer for (a, source) on the graph
  /// as it is now. On a mismatch, `why` names the first differing vertex.
  bool check(dpg::serve::algorithm a, dpg::graph::vertex_id source,
             std::span<const std::uint64_t> values, std::string* why = nullptr);

  /// The expected answer, encoded as the sessions encode theirs (doubles
  /// as bit patterns).
  std::vector<std::uint64_t> compute(dpg::serve::algorithm a,
                                     dpg::graph::vertex_id source) const;

 private:
  const dpg::graph::distributed_graph* g_;
  const dpg::pmap::edge_property_map<double>* w_;
  std::uint64_t version_ = ~0ull;
  std::map<dpg::serve::algorithm, std::vector<std::uint64_t>> memo_;
};

}  // namespace pb
