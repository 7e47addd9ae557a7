// Incremental analytics maintainers for streaming graphs.
//
// These ride along with the distributed solvers at the mutation boundary:
// they are sequential, whole-graph structures (like the baselines, they run
// outside transport::run where the owner-access discipline is relaxed) that
// absorb an add/delete batch in time proportional to the *affected* region
// instead of the whole graph. The serving layer's warm sessions consult
// them in solver_session::repair; the streaming sweep test proves their
// outputs bit-identical to the from-scratch oracles after every batch.
//
//  * cc_maintainer    — union-find ride-along. Additions are pure unions;
//    deletions fall back to recomputing the affected components only
//    (union-find cannot split). Labels are canonical: the minimum vertex
//    id of each component, exactly cc_union_find's convention.
//  * kcore_maintainer — the peel-frontier re-activation of Sariyüce et
//    al.'s streaming k-core maintenance: one undirected edge at a time,
//    a traversal collects the candidate set (the core-K purecore/subcore
//    around the touched endpoints), then a local eviction/demotion
//    cascade settles coreness without re-peeling the graph. Requires a
//    simple symmetric graph (use graph::simplify(graph::symmetrize(..))),
//    which is also the domain on which the distributed kcore_solver's
//    wave peel equals standard coreness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/distributed_graph.hpp"

namespace dpg::algo {

using graph::vertex_id;

/// Connected-components maintainer: union-find with canonical min-member
/// labels. apply() reads the graph's *live* adjacency, so call it after the
/// corresponding apply_edges/remove_edges.
class cc_maintainer {
 public:
  /// Seeds the forest from exact canonical labels of the live graph
  /// (`labels[v]` is the minimum member of v's component, e.g. a cold
  /// solve's answer): every vertex hangs directly under its component's
  /// minimum, which is the root. O(n); no edge is read.
  cc_maintainer(const graph::distributed_graph& g, std::span<const vertex_id> labels)
      : g_(&g), parent_(labels.begin(), labels.end()), label_(labels.size()) {
    DPG_ASSERT_MSG(labels.size() == g.num_vertices(), "cc_maintainer: one label per vertex");
    for (vertex_id v = 0; v < label_.size(); ++v) {
      label_[v] = v;
      DPG_DEBUG_ASSERT(parent_[v] <= v && parent_[parent_[v]] == parent_[v]);
    }
  }

  /// Absorbs one mutation batch. Call after the graph mutation: additions
  /// union the new endpoints; any deletion recomputes the components the
  /// removed edges touch (members keep their old root until reset, which
  /// is what delimits the recompute region — components are closed under
  /// adjacency, so re-uniting the members' live edges never leaks out).
  void apply(std::span<const graph::edge> added, std::span<const graph::edge> removed) {
    for (const graph::edge& e : added) unite(e.src, e.dst);
    if (removed.empty()) return;
    std::vector<vertex_id> roots;
    for (const graph::edge& e : removed) {
      roots.push_back(find(e.src));
      roots.push_back(find(e.dst));
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    const vertex_id n = g_->num_vertices();
    std::vector<vertex_id> members;
    for (vertex_id v = 0; v < n; ++v)
      if (std::binary_search(roots.begin(), roots.end(), find(v))) members.push_back(v);
    for (const vertex_id v : members) parent_[v] = label_[v] = v;
    for (const vertex_id v : members)
      for (const vertex_id u : g_->adjacent(v)) unite(v, u);
  }

  /// Canonical label (minimum member id) of v's component.
  vertex_id label(vertex_id v) { return label_[find(v)]; }

  std::vector<vertex_id> labels() {
    std::vector<vertex_id> out(parent_.size());
    for (vertex_id v = 0; v < parent_.size(); ++v) out[v] = label(v);
    return out;
  }

 private:
  vertex_id find(vertex_id v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  void unite(vertex_id a, vertex_id b) {
    vertex_id ra = find(a), rb = find(b);
    if (ra == rb) return;
    // Attach under the smaller canonical label so the root's label stays
    // the component minimum without a separate pass.
    if (label_[rb] < label_[ra]) std::swap(ra, rb);
    parent_[rb] = ra;
  }

  const graph::distributed_graph* g_;
  std::vector<vertex_id> parent_;
  std::vector<vertex_id> label_;  ///< min member id, authoritative at roots
};

/// k-core maintainer: keeps its own simple undirected adjacency (neighbour
/// -> count of directed halves, so the two directions of a symmetrized
/// batch cancel structurally only when both are gone) plus per-vertex
/// coreness, updated one structural edge at a time.
class kcore_maintainer {
 public:
  /// Builds the maintainer as of just before one mutation batch the live
  /// graph already carries — so a session can defer the build from its
  /// cold solve to its first repair. The adjacency comes from the live
  /// out-edges (self-loops dropped, each stored direction counted once)
  /// with the batch's canonical halves structurally reverted (removals
  /// re-added, then additions taken back: apply()'s order, reversed).
  /// `cores` is the pre-batch coreness, one value per vertex (e.g. a cold
  /// solve's); it is taken as is, so it must be exact for that adjacency —
  /// true on the simple graphs this maintainer serves. Follow with
  /// apply(added, removed) to reach the live version.
  kcore_maintainer(const graph::distributed_graph& g, std::span<const graph::edge> added,
                   std::span<const graph::edge> removed, std::vector<std::uint64_t> cores)
      : adj_(g.num_vertices()) {
    for (vertex_id v = 0; v < g.num_vertices(); ++v)
      for (const vertex_id u : g.adjacent(v))
        if (u != v) ++adj_[v][u];
    for (const graph::edge& e : removed)
      if (e.src < e.dst) add_edge(e.src, e.dst);
    for (const graph::edge& e : added)
      if (e.src < e.dst) remove_edge(e.src, e.dst);
    DPG_ASSERT_MSG(cores.size() == adj_.size(), "kcore_maintainer: one coreness per vertex");
    core_ = std::move(cores);
    // Coreness never exceeds the simple degree; a seed that does was
    // computed on a multigraph and would poison every later repair.
    for (vertex_id v = 0; v < adj_.size(); ++v)
      DPG_DEBUG_ASSERT(core_[v] <= adj_[v].size());
  }

  /// Absorbs one mutation batch of *directed* edges. The batch must be
  /// symmetric (both halves of every undirected edge, the streaming
  /// layer's convention for this maintainer's simple-symmetric domain);
  /// only the canonical src < dst half drives the structural update, so
  /// each undirected edge mutates the symmetric adjacency exactly once —
  /// matching the constructor, which counts each stored direction once.
  ///
  /// Each structural event settles coreness with a local cascade; if an
  /// event's candidate set blows the traversal budget the cascades stop
  /// (adjacency keeps updating) and one repeel() closes the batch.
  void apply(std::span<const graph::edge> added, std::span<const graph::edge> removed) {
    bool repeel_pending = false;
    for (const graph::edge& e : added) {
      if (e.src >= e.dst) continue;
      if (add_edge(e.src, e.dst) && !repeel_pending)
        repeel_pending = !on_insert(e.src, e.dst);
    }
    for (const graph::edge& e : removed) {
      if (e.src >= e.dst) continue;
      if (remove_edge(e.src, e.dst) && !repeel_pending)
        repeel_pending = !on_delete(e.src, e.dst);
    }
    if (repeel_pending) repeel();
  }

  std::uint64_t core(vertex_id v) const { return core_[v]; }
  const std::vector<std::uint64_t>& cores() const { return core_; }

 private:
  /// Mutates both directions of the symmetric adjacency at once; returns
  /// whether the undirected edge appeared / vanished structurally.
  bool add_edge(vertex_id u, vertex_id v) {
    const bool fresh = adj_[u].find(v) == adj_[u].end();
    ++adj_[u][v];
    ++adj_[v][u];
    return fresh;
  }

  bool remove_edge(vertex_id u, vertex_id v) {
    auto it = adj_[u].find(v);
    DPG_ASSERT_MSG(it != adj_[u].end(), "kcore_maintainer: removing an absent edge");
    if (--it->second == 0) {
      adj_[u].erase(it);
      adj_[v].erase(u);
      return true;
    }
    --adj_[v][u];
    return false;
  }

  /// When one structural event's candidate set (the coreness-K subcore
  /// around its endpoints) grows past this, the local cascade costs more
  /// than re-peeling the whole graph, so apply() abandons cascades for
  /// the rest of the batch and closes with one repeel(). Uniform-degree
  /// graphs — where a single coreness value dominates and the subcore
  /// *is* the graph — land here; skewed graphs stay on local cascades.
  static constexpr std::size_t kTraversalBudget = 128;

  /// Candidate collection shared by insert/delete: the coreness-K vertices
  /// reachable from the touched endpoints through coreness-K vertices (the
  /// purecore/subcore) — the only vertices whose coreness can change.
  /// Returns false (budget blown) without touching core_.
  bool collect(vertex_id u, vertex_id v, std::uint64_t K,
               std::unordered_set<vertex_id>& seen, std::vector<vertex_id>& cand) {
    std::vector<vertex_id> stack;
    for (const vertex_id r : {u, v})
      if (core_[r] == K && seen.insert(r).second) stack.push_back(r);
    while (!stack.empty()) {
      const vertex_id w = stack.back();
      stack.pop_back();
      cand.push_back(w);
      if (cand.size() > kTraversalBudget) return false;
      for (const auto& [x, mult] : adj_[w])
        if (core_[x] == K && seen.insert(x).second) stack.push_back(x);
    }
    return true;
  }

  /// Structural insertion of undirected (u,v), already present in adj_.
  /// Candidates that survive the eviction cascade (enough qualified
  /// neighbours to sit in a (K+1)-core) are promoted by exactly one.
  /// Returns false if the candidate set blew the traversal budget (core_
  /// untouched; the caller owes a repeel()).
  bool on_insert(vertex_id u, vertex_id v) {
    const std::uint64_t K = std::min(core_[u], core_[v]);
    std::unordered_set<vertex_id> cand_set;
    std::vector<vertex_id> cand;
    if (!collect(u, v, K, cand_set, cand)) return false;
    std::unordered_map<vertex_id, std::uint64_t> cd;
    for (const vertex_id w : cand) {
      std::uint64_t d = 0;
      for (const auto& [x, mult] : adj_[w])
        if (core_[x] > K || cand_set.count(x)) ++d;
      cd[w] = d;
    }
    std::unordered_set<vertex_id> evicted;
    std::vector<vertex_id> stack;
    for (const vertex_id w : cand)
      if (cd[w] <= K && evicted.insert(w).second) stack.push_back(w);
    while (!stack.empty()) {
      const vertex_id w = stack.back();
      stack.pop_back();
      for (const auto& [x, mult] : adj_[w]) {
        if (!cand_set.count(x) || evicted.count(x)) continue;
        if (--cd[x] <= K && evicted.insert(x).second) stack.push_back(x);
      }
    }
    for (const vertex_id w : cand)
      if (!evicted.count(w)) core_[w] = K + 1;
    return true;
  }

  /// Structural deletion of undirected (u,v), already erased from adj_.
  /// Candidates whose qualified degree fell below K demote by exactly one,
  /// cascading through the subcore. Returns false if the candidate set
  /// blew the traversal budget (core_ untouched; caller owes a repeel()).
  bool on_delete(vertex_id u, vertex_id v) {
    const std::uint64_t K = std::min(core_[u], core_[v]);
    if (K == 0) return true;
    std::unordered_set<vertex_id> cand_set;
    std::vector<vertex_id> cand;
    if (!collect(u, v, K, cand_set, cand)) return false;
    std::unordered_map<vertex_id, std::uint64_t> md;
    for (const vertex_id w : cand) {
      std::uint64_t d = 0;
      for (const auto& [x, mult] : adj_[w])
        if (core_[x] >= K) ++d;
      md[w] = d;
    }
    std::unordered_set<vertex_id> demoted;
    std::vector<vertex_id> stack;
    for (const vertex_id w : cand)
      if (md[w] < K && demoted.insert(w).second) stack.push_back(w);
    while (!stack.empty()) {
      const vertex_id w = stack.back();
      stack.pop_back();
      core_[w] = K - 1;
      for (const auto& [x, mult] : adj_[w]) {
        if (!cand_set.count(x) || demoted.count(x)) continue;
        if (--md[x] < K && demoted.insert(x).second) stack.push_back(x);
      }
    }
    return true;
  }

  /// Batagelj–Zaveršnik bin-sort peel over the maintained adjacency; on a
  /// simple graph this is exactly the wave peel's coreness.
  void repeel() {
    const vertex_id n = adj_.size();
    core_.assign(n, 0);
    if (n == 0) return;
    std::vector<std::uint64_t> deg(n);
    std::uint64_t md = 0;
    for (vertex_id v = 0; v < n; ++v) {
      deg[v] = adj_[v].size();
      md = std::max(md, deg[v]);
    }
    std::vector<std::uint64_t> bin(md + 2, 0);
    for (vertex_id v = 0; v < n; ++v) ++bin[deg[v]];
    std::uint64_t start = 0;
    for (std::uint64_t d = 0; d <= md; ++d) {
      const std::uint64_t cnt = bin[d];
      bin[d] = start;
      start += cnt;
    }
    std::vector<vertex_id> vert(n);
    std::vector<std::uint64_t> pos(n);
    for (vertex_id v = 0; v < n; ++v) {
      pos[v] = bin[deg[v]]++;
      vert[pos[v]] = v;
    }
    for (std::uint64_t d = md + 1; d > 0; --d) bin[d] = bin[d - 1];
    bin[0] = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const vertex_id v = vert[i];
      core_[v] = deg[v];
      for (const auto& [u, mult] : adj_[v]) {
        if (deg[u] <= deg[v]) continue;
        // Swap u to the front of its bin, then shrink its degree.
        const std::uint64_t du = deg[u], pu = pos[u], pw = bin[du];
        const vertex_id w = vert[pw];
        if (u != w) {
          std::swap(vert[pu], vert[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --deg[u];
      }
    }
  }

  std::vector<std::unordered_map<vertex_id, std::uint32_t>> adj_;
  std::vector<std::uint64_t> core_;
};

}  // namespace dpg::algo
