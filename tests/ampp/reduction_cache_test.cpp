// The AM++-style reduction cache (§IV: "caching allows to avoid
// unnecessary message sends and the corresponding handler calls").
// Correctness contract: delivering the combined payload must be equivalent
// to delivering every absorbed payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <compare>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"

namespace dpg::ampp {
namespace {

struct relax_msg {
  std::uint64_t vertex;
  std::uint64_t dist;
};

class ReductionCacheTest : public ::testing::Test {
 protected:
  // Applies min-combining at the destination into `best`, so the final map
  // is identical whether or not messages were absorbed en route.
  std::map<std::uint64_t, std::uint64_t> best;
  std::mutex mu;
};

TEST_F(ReductionCacheTest, MinReductionPreservesSemantics) {
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 1024});
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg& m) {
        std::lock_guard<std::mutex> g(mu);
        auto [it, fresh] = best.emplace(m.vertex, m.dist);
        if (!fresh && m.dist < it->second) it->second = m.dist;
      });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      /*cache_bits=*/6);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) {
      // Many updates to few keys: heavy duplication, as in power-law SSSP.
      for (std::uint64_t i = 0; i < 1000; ++i)
        mt.send(ctx, 1, relax_msg{i % 10, 1000 - i});
    }
  });
  ASSERT_EQ(best.size(), 10u);
  // Minimum distance sent for vertex v is 1000-i at the largest i with
  // i%10==v, i.e. i = 990+v, so dist = 10-v.
  for (std::uint64_t v = 0; v < 10; ++v) EXPECT_EQ(best[v], 10 - v);
  EXPECT_GT(tp.stats().cache_hits.load(), 900u);
  // Far fewer handler invocations than the 1000 logical sends.
  EXPECT_LT(tp.stats().handler_invocations.load(), 100u);
}

TEST_F(ReductionCacheTest, EvictionSpillsRatherThanDrops) {
  // More distinct keys than cache slots: evictions must deliver, not drop.
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 64});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      /*cache_bits=*/2);  // 4 slots only
  constexpr std::uint64_t kKeys = 512;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (std::uint64_t k = 0; k < kKeys; ++k) mt.send(ctx, 1, relax_msg{k, k});
  });
  // Every distinct key must arrive exactly once (no two sends share a key).
  EXPECT_EQ(delivered.load(), kKeys);
  EXPECT_GT(tp.stats().cache_evictions.load(), 0u);
}

TEST_F(ReductionCacheTest, CombineRespectsTieBreaking) {
  // With equal distances the combiner keeps the first payload (a <= b picks
  // a); semantics must not depend on which survives, but the cache must not
  // duplicate either.
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      4);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 100; ++i) mt.send(ctx, 1, relax_msg{7, 3});
  });
  EXPECT_EQ(delivered.load(), 1u);
  EXPECT_EQ(tp.stats().cache_hits.load(), 99u);
}

TEST_F(ReductionCacheTest, FlushOnEpochEndDeliversCachedEntries) {
  // A cached entry never re-sent must still arrive by epoch end (the
  // termination protocol flushes caches before reporting).
  transport tp(transport_config{.n_ranks = 3, .coalescing_size = 1 << 20});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      8);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send(ctx, (ctx.rank() + 1) % 3, relax_msg{ctx.rank(), 1});
  });
  EXPECT_EQ(delivered.load(), 3u);
}

TEST_F(ReductionCacheTest, WithoutReductionAllMessagesDeliver) {
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 100; ++i) mt.send(ctx, 1, relax_msg{7, 3});
  });
  EXPECT_EQ(delivered.load(), 100u);
  EXPECT_EQ(tp.stats().cache_hits.load(), 0u);
}

// ---- counter exactness ------------------------------------------------------
//
// Hits and evictions are counted lane-locally and published when the lane
// flushes; these tests pin that the published totals are exact — globally
// and per epoch — while every rank hammers every other rank's lanes with
// colliding keys.

struct weighted_msg {
  std::uint64_t key;
  std::uint64_t weight;  // sum-combined: conserved through the cache
};

/// Replays one lane's key sequence through a direct-mapped cache of
/// 2^bits slots with the transport's Fibonacci slot hash, from an empty
/// cache: the exact (hits, evictions) the lane must report.
std::pair<std::uint64_t, std::uint64_t> replay_lane(const std::vector<std::uint64_t>& keys,
                                                    unsigned bits) {
  std::vector<std::optional<std::uint64_t>> slots(std::size_t{1} << bits);
  std::uint64_t hits = 0, evictions = 0;
  for (const std::uint64_t k : keys) {
    auto& slot = slots[(k * 0x9e3779b97f4a7c15ULL) >> (64 - bits)];
    if (slot == k) {
      ++hits;
      continue;
    }
    if (slot) ++evictions;
    slot = k;
  }
  return {hits, evictions};
}

/// Lane (src -> dest) sends each key three times in a row, cycling through
/// more keys than the cache has slots: plenty of hits and evictions.
std::vector<std::uint64_t> lane_keys(rank_t src, rank_t dest, std::uint64_t sends,
                                     std::uint64_t salt) {
  constexpr std::uint64_t kKeys = 48;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < sends; ++i)
    keys.push_back(((i / 3) * 13 + src * 5 + dest + salt) % kKeys);
  return keys;
}

constexpr unsigned kExactBits = 4;  // 16 slots per lane

message_type<weighted_msg>& make_weighted(transport& tp, std::atomic<std::uint64_t>& weight) {
  auto& mt = tp.make_message_type<weighted_msg>(
      "weighted", [&weight](transport_context&, const weighted_msg& m) {
        weight.fetch_add(m.weight, std::memory_order_relaxed);
      });
  mt.enable_reduction([](const weighted_msg& m) { return m.key; },
                      [](const weighted_msg& a, const weighted_msg& b) {
                        return weighted_msg{a.key, a.weight + b.weight};
                      },
                      kExactBits);
  return mt;
}

class ReductionCounterExactness : public ::testing::TestWithParam<rank_t> {};

/// Sends `keys` (weight 1 each) from the calling rank to `dest` as runs of
/// 1, 2, ..., 13, 1, 2, ... records — every run length, cut anywhere.
void send_in_runs(message_type<weighted_msg>& mt, transport_context& ctx, rank_t dest,
                  const std::vector<std::uint64_t>& keys) {
  std::vector<weighted_msg> msgs;
  for (const std::uint64_t k : keys) msgs.push_back(weighted_msg{k, 1});
  std::size_t len = 1;
  for (std::size_t i = 0; i < msgs.size(); i += len, len = len % 13 + 1)
    mt.send_run(ctx, dest, msgs.data() + i, std::min(len, msgs.size() - i));
}

/// Every rank hammers every lane with colliding keys — one send per record,
/// or the same per-lane sequences through send_run — and the published
/// hit/eviction totals must equal a replay of each lane's cache.
void expect_exact_all_to_all(rank_t ranks, bool runs) {
  constexpr std::uint64_t kSends = 600;  // per (src, dest) lane, self included
  // Small coalescing: capacity flushes (which publish but keep the cache)
  // interleave with the sends, not just the epoch-end spill.
  transport tp(transport_config{.n_ranks = ranks, .coalescing_size = 16});
  std::atomic<std::uint64_t> weight{0};
  auto& mt = make_weighted(tp, weight);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (rank_t d = 0; d < ranks; ++d) {
      const auto keys = lane_keys(ctx.rank(), d, kSends, 0);
      if (runs) {
        send_in_runs(mt, ctx, d, keys);
      } else {
        for (const std::uint64_t k : keys) mt.send(ctx, d, weighted_msg{k, 1});
      }
    }
  });

  std::uint64_t want_hits = 0, want_evictions = 0;
  for (rank_t s = 0; s < ranks; ++s)
    for (rank_t d = 0; d < ranks; ++d) {
      const auto [h, e] = replay_lane(lane_keys(s, d, kSends, 0), kExactBits);
      want_hits += h;
      want_evictions += e;
    }
  const std::uint64_t issued = std::uint64_t{ranks} * ranks * kSends;
  ASSERT_GT(want_hits, 0u);
  ASSERT_GT(want_evictions, 0u);
  const auto& st = tp.stats();
  EXPECT_EQ(st.cache_hits.load() + st.messages_sent.load(), issued);
  EXPECT_EQ(st.cache_hits.load(), want_hits);
  EXPECT_EQ(st.cache_evictions.load(), want_evictions);
  EXPECT_EQ(weight.load(), issued) << "combining lost or duplicated weight";
  EXPECT_TRUE(tp.occupancy_consistent());
}

TEST_P(ReductionCounterExactness, AllToAllCollidingKeys) {
  expect_exact_all_to_all(GetParam(), /*runs=*/false);
}

TEST_P(ReductionCounterExactness, AllToAllCollidingKeysInRuns) {
  // One lock per run must not change a single hit, eviction, or message.
  expect_exact_all_to_all(GetParam(), /*runs=*/true);
}

TEST_P(ReductionCounterExactness, EpochRowsAttributeHitsToTheirEpoch) {
  const rank_t ranks = GetParam();
  transport tp(transport_config{.n_ranks = ranks, .coalescing_size = 16});
  std::atomic<std::uint64_t> weight{0};
  auto& mt = make_weighted(tp, weight);
  // Two epochs with different traffic volumes (and key salts), so their
  // expected hit/eviction counts differ.
  constexpr std::uint64_t kSends[2] = {300, 900};
  tp.run([&](transport_context& ctx) {
    for (int e = 0; e < 2; ++e) {
      epoch ep(ctx);
      // Rank 0 opens the epoch's stats window after the entry barrier; a
      // second barrier keeps every rank's first flush inside that window.
      ctx.barrier();
      for (rank_t d = 0; d < ranks; ++d)
        for (const std::uint64_t k : lane_keys(ctx.rank(), d, kSends[e], e))
          mt.send(ctx, d, weighted_msg{k, 1});
    }
  });

  const auto recs = tp.obs().epoch_records();
  ASSERT_EQ(recs.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    std::uint64_t want_hits = 0, want_evictions = 0;
    for (rank_t s = 0; s < ranks; ++s)
      for (rank_t d = 0; d < ranks; ++d) {
        const auto [h, ev] = replay_lane(lane_keys(s, d, kSends[e], e), kExactBits);
        want_hits += h;
        want_evictions += ev;
      }
    const auto& c = recs[e].delta.core;
    EXPECT_EQ(c.cache_hits, want_hits) << "epoch " << e;
    EXPECT_EQ(c.cache_evictions, want_evictions) << "epoch " << e;
    EXPECT_EQ(c.cache_hits + c.messages_sent, std::uint64_t{ranks} * ranks * kSends[e])
        << "epoch " << e;
  }
  // The rendered summary carries the same rows.
  EXPECT_NE(tp.obs().epoch_summary().find(std::to_string(recs[1].delta.core.cache_hits)),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ReductionCounterExactness, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return std::to_string(info.param) + "ranks";
                         });

// ---- send_run ---------------------------------------------------------------

struct delivery {
  rank_t at;
  std::uint64_t key, weight;
  auto operator<=>(const delivery&) const = default;
};

/// Every (receiving rank, payload) one epoch of traffic delivers, sorted,
/// plus the envelope count: per-record sends when `runs` is false, else
/// the same per-lane sequences issued through send_run.
std::pair<std::vector<delivery>, std::uint64_t> deliveries(rank_t ranks, bool reduce,
                                                           std::size_t coalescing,
                                                           bool runs) {
  transport tp(transport_config{.n_ranks = ranks, .coalescing_size = coalescing});
  std::mutex mu;
  std::vector<delivery> got;
  auto& mt = tp.make_message_type<weighted_msg>(
      "weighted", [&](transport_context& ctx, const weighted_msg& m) {
        std::lock_guard<std::mutex> g(mu);
        got.push_back(delivery{ctx.rank(), m.key, m.weight});
      });
  if (reduce)
    mt.enable_reduction([](const weighted_msg& m) { return m.key; },
                        [](const weighted_msg& a, const weighted_msg& b) {
                          return weighted_msg{a.key, a.weight + b.weight};
                        },
                        kExactBits);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (rank_t d = 0; d < ranks; ++d) {
      const auto keys = lane_keys(ctx.rank(), d, 500, 3);
      if (runs) {
        send_in_runs(mt, ctx, d, keys);
      } else {
        for (const std::uint64_t k : keys) mt.send(ctx, d, weighted_msg{k, 1});
      }
    }
  });
  std::sort(got.begin(), got.end());
  return {got, tp.obs().type_envelopes(mt.id())};
}

TEST(SendRun, DeliversWhatPerRecordSendsDeliver) {
  for (const rank_t ranks : {1u, 2u, 3u})
    for (const bool reduce : {false, true})
      for (const std::size_t coalescing : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        const auto [single, single_envs] = deliveries(ranks, reduce, coalescing, false);
        const auto [batched, batched_envs] = deliveries(ranks, reduce, coalescing, true);
        EXPECT_EQ(single, batched) << "ranks=" << ranks << " reduce=" << reduce
                                   << " coalescing=" << coalescing;
        EXPECT_EQ(single_envs, batched_envs) << "runs must cut envelopes where sends do";
      }
}

TEST(SendRun, EmptyRunSendsNothing) {
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send_run(ctx, 1 - ctx.rank(), nullptr, 0);
  });
  EXPECT_EQ(delivered.load(), 0u);
  EXPECT_EQ(tp.stats().messages_sent.load(), 0u);
}

}  // namespace
}  // namespace dpg::ampp
