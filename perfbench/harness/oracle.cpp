#include "oracle.hpp"

#include <bit>
#include <cmath>

#include "algo/baselines.hpp"
#include "algo/pagerank.hpp"
#include "algo/sessions.hpp"

namespace pb {

using dpg::serve::algorithm;

void canonicalize_labels(std::vector<std::uint64_t>& labels) {
  std::vector<std::uint64_t> min_of(labels.size(), ~0ull);
  for (std::uint64_t v = 0; v < labels.size(); ++v) {
    std::uint64_t& m = min_of[labels[v]];
    if (v < m) m = v;
  }
  for (std::uint64_t& l : labels) l = min_of[l];
}

std::vector<std::uint64_t> oracle::compute(algorithm a, dpg::graph::vertex_id source) const {
  const std::uint64_t n = g_->num_vertices();
  std::vector<std::uint64_t> out(n);
  switch (a) {
    case algorithm::sssp: {
      const auto d = dpg::algo::dijkstra(*g_, *w_, source);
      for (std::uint64_t v = 0; v < n; ++v) out[v] = std::bit_cast<std::uint64_t>(d[v]);
      break;
    }
    case algorithm::bfs: {
      const auto lv = dpg::algo::bfs_levels(*g_, source);
      for (std::uint64_t v = 0; v < n; ++v)
        out[v] = lv[v] < 0 ? n : static_cast<std::uint64_t>(lv[v]);
      break;
    }
    case algorithm::cc: {
      const auto l = dpg::algo::cc_union_find(*g_);
      for (std::uint64_t v = 0; v < n; ++v) out[v] = l[v];
      canonicalize_labels(out);
      break;
    }
    case algorithm::kcore:
      out = dpg::algo::kcore_peel(*g_);
      break;
    case algorithm::pagerank: {
      const auto r = dpg::algo::pagerank(*g_, kPagerankDamping,
                                         dpg::algo::pagerank_session::kIterations);
      for (std::uint64_t v = 0; v < n; ++v) out[v] = std::bit_cast<std::uint64_t>(r[v]);
      break;
    }
  }
  return out;
}

bool oracle::check(algorithm a, dpg::graph::vertex_id source,
                   std::span<const std::uint64_t> values, std::string* why) {
  // Whole-graph answers are shared by every query at one version; source
  // queries are checked once each and not kept.
  const bool whole_graph = a == algorithm::cc || a == algorithm::kcore ||
                           a == algorithm::pagerank;
  if (g_->version() != version_) {
    memo_.clear();
    version_ = g_->version();
  }
  std::vector<std::uint64_t> local;
  if (whole_graph && !memo_.contains(a)) memo_.emplace(a, compute(a, source));
  if (!whole_graph) local = compute(a, source);
  const std::vector<std::uint64_t>& want = whole_graph ? memo_.at(a) : local;
  if (values.size() != want.size()) {
    if (why) *why = "size " + std::to_string(values.size()) + " != " +
                    std::to_string(want.size());
    return false;
  }
  for (std::size_t v = 0; v < want.size(); ++v) {
    bool ok = values[v] == want[v];
    if (!ok && a == algorithm::pagerank)
      ok = std::fabs(std::bit_cast<double>(values[v]) - std::bit_cast<double>(want[v])) <=
           kPagerankTolerance;
    if (!ok) {
      if (why)
        *why = std::string(dpg::serve::algorithm_name(a)) + " source " +
               std::to_string(source) + ": vertex " + std::to_string(v) + " got " +
               std::to_string(values[v]) + " want " + std::to_string(want[v]);
      return false;
    }
  }
  return true;
}

}  // namespace pb
