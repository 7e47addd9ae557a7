// Vertex-to-rank distributions.
//
// The paper's basic assumption (§I): "it is not predictable which parts of
// the graph are colocated" — the framework must work for any distribution.
// We provide the three classic ones; the pattern runtime is parameterized
// over this class only through owner()/local_index(), so algorithms are
// distribution-oblivious.
//
// owner()/local_index() sit on every message's send and receive path, so
// block and cyclic never issue a hardware divide for ids below 2^32: the
// quotient comes from a 64-bit reciprocal precomputed at construction
// (see fast_divisor), exact for every such id; larger ids fall back to the
// divide instruction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ampp/types.hpp"
#include "graph/ids.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dpg::graph {

using ampp::rank_t;

/// Division by a run-time constant d without a divide instruction: for
/// n < 2^32 and 2 <= d < 2^32, n / d == (m * n) >> 64 with m = ceil(2^64 / d)
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019:
/// exact because 64 >= 32 + log2(d)). Other n, and d outside that range
/// (m == 0), take the hardware divide.
class fast_divisor {
 public:
  fast_divisor() = default;
  explicit fast_divisor(std::uint64_t d)
      : d_(d), m_(d >= 2 && d <= kMax32 ? ~std::uint64_t{0} / d + 1 : 0) {}

  std::uint64_t div(std::uint64_t n) const noexcept {
    if (m_ != 0 && n <= kMax32)
      return static_cast<std::uint64_t>((static_cast<unsigned __int128>(m_) * n) >> 64);
    return n / d_;
  }

  std::uint64_t mod(std::uint64_t n) const noexcept { return n - div(n) * d_; }

 private:
  static constexpr std::uint64_t kMax32 = 0xffffffffULL;
  std::uint64_t d_ = 1;
  std::uint64_t m_ = 0;  ///< ceil(2^64 / d); 0 disables the fast path
};

/// Maps every vertex id in [0, n) to an owning rank and a dense local index
/// on that rank. Value type; cheap to copy for block/cyclic, shared-state
/// for hashed.
class distribution {
 public:
  enum class kind { block, cyclic, hashed };

  /// Contiguous chunks of ceil(n/ranks) vertices per rank.
  static distribution block(vertex_id n, rank_t ranks) {
    return distribution(kind::block, n, ranks, 0);
  }

  /// Round-robin: owner(v) = v mod ranks.
  static distribution cyclic(vertex_id n, rank_t ranks) {
    return distribution(kind::cyclic, n, ranks, 0);
  }

  /// Pseudo-random assignment by a mixing hash of the vertex id; the local
  /// index is the vertex's rank among the vertices its owner holds
  /// (resolved by binary search over a per-rank sorted table).
  static distribution hashed(vertex_id n, rank_t ranks, std::uint64_t seed = 0x5eed) {
    return distribution(kind::hashed, n, ranks, seed);
  }

  rank_t owner(vertex_id v) const {
    DPG_DEBUG_ASSERT(v < n_);
    switch (kind_) {
      case kind::block: return static_cast<rank_t>(div_.div(v));
      case kind::cyclic: return static_cast<rank_t>(div_.mod(v));
      case kind::hashed: return static_cast<rank_t>(mix(v) % ranks_);
    }
    return 0;
  }

  /// Dense index of v within its owner's shard, in [0, count(owner(v))).
  std::uint64_t local_index(vertex_id v) const {
    DPG_DEBUG_ASSERT(v < n_);
    switch (kind_) {
      case kind::block: return div_.mod(v);
      case kind::cyclic: return div_.div(v);
      case kind::hashed: {
        const auto& owned = tables_->owned[owner(v)];
        const auto it = std::lower_bound(owned.begin(), owned.end(), v);
        DPG_DEBUG_ASSERT(it != owned.end() && *it == v);
        return static_cast<std::uint64_t>(it - owned.begin());
      }
    }
    return 0;
  }

  /// Inverse of local_index: the global id of rank r's li-th vertex.
  vertex_id global(rank_t r, std::uint64_t li) const {
    DPG_DEBUG_ASSERT(r < ranks_ && li < count(r));
    switch (kind_) {
      case kind::block: return static_cast<vertex_id>(r) * chunk_ + li;
      case kind::cyclic: return li * ranks_ + r;
      case kind::hashed: return tables_->owned[r][li];
    }
    return 0;
  }

  /// Number of vertices rank r owns.
  std::uint64_t count(rank_t r) const {
    DPG_DEBUG_ASSERT(r < ranks_);
    switch (kind_) {
      case kind::block: {
        if (static_cast<vertex_id>(r) * chunk_ >= n_) return 0;
        return std::min<std::uint64_t>(chunk_, n_ - static_cast<vertex_id>(r) * chunk_);
      }
      case kind::cyclic: return n_ / ranks_ + (r < n_ % ranks_ ? 1 : 0);
      case kind::hashed: return tables_->owned[r].size();
    }
    return 0;
  }

  vertex_id num_vertices() const noexcept { return n_; }
  rank_t num_ranks() const noexcept { return ranks_; }
  kind which() const noexcept { return kind_; }

 private:
  distribution(kind k, vertex_id n, rank_t ranks, std::uint64_t seed)
      : kind_(k), n_(n), ranks_(ranks), seed_(seed) {
    DPG_ASSERT_MSG(ranks >= 1, "distribution needs at least one rank");
    DPG_ASSERT_MSG(n >= 1, "distribution needs at least one vertex");
    chunk_ = (n + ranks - 1) / ranks;
    // block divides by the chunk size, cyclic by the rank count.
    div_ = fast_divisor(kind_ == kind::block ? chunk_ : ranks_);
    if (kind_ == kind::hashed) {
      auto tables = std::make_shared<hash_tables>();
      tables->owned.resize(ranks);
      for (vertex_id v = 0; v < n; ++v)
        tables->owned[static_cast<rank_t>(mix(v) % ranks_)].push_back(v);
      // Vertices are enumerated in increasing order, so each table is
      // already sorted; keep the invariant explicit for safety.
      for (auto& t : tables->owned) DPG_ASSERT(std::is_sorted(t.begin(), t.end()));
      tables_ = std::move(tables);
    }
  }

  std::uint64_t mix(vertex_id v) const {
    return splitmix64(v ^ seed_).next();
  }

  struct hash_tables {
    std::vector<std::vector<vertex_id>> owned;
  };

  kind kind_;
  vertex_id n_;
  rank_t ranks_;
  std::uint64_t seed_;
  std::uint64_t chunk_ = 0;
  fast_divisor div_;  ///< chunk_ (block) or ranks_ (cyclic)
  std::shared_ptr<const hash_tables> tables_;
};

}  // namespace dpg::graph
