// Shared pieces of the workload runners: the entry points, the machine
// shape every workload uses, and the accumulator that turns the transport
// counters returned with each answer into per-query layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ampp/transport.hpp"
#include "obs/registry.hpp"
#include "report.hpp"
#include "serve/session.hpp"

namespace pb {

/// Every workload runs a 2-rank machine (in-process threads, or one
/// process per rank for solve-shm).
inline constexpr dpg::ampp::rank_t kRanks = 2;

/// Set-up is repeated this many times per run and its median reported, so
/// one slow allocation does not decide setup_s.
inline constexpr int kSetupReps = 3;

/// Solves a workload keeps in flight at once (every workload has one
/// client); ranks x this must not exceed the cores available, because each
/// transport::run keeps one busy thread per rank.
inline constexpr int kConcurrentSolves = 1;

void run_solve_rmat(const run_args& a, report& rep);
void run_stream_churn(const run_args& a, report& rep);
void run_solve_shm(const run_args& a, report& rep);

/// Sums the transport counters and strategy outcomes of distinct solves
/// and publishes them per query answered.
struct layer_counters {
  dpg::obs::counters core{};
  std::uint64_t rounds = 0;
  std::uint64_t modifications = 0;

  void add(const dpg::serve::session_result& r);
  void add_core(const dpg::obs::counters& c);
  /// Sets strategy.* and ampp.* metrics, normalizing by `queries`.
  void publish(report& rep, std::uint64_t queries) const;
};

/// Per-setup timings (seconds / ms) whose medians become setup_s and the
/// graph/pmap/algo set-up metrics.
struct setup_times {
  std::vector<double> total_s, generate_s, build_s, weights_ms, session_build_ms;
  void publish(report& rep) const;
};

/// Publishes the per-layer self times of the traced spans (request roots
/// named `request_root`, set-up roots named "bench.setup").
void publish_self_times(report& rep, const std::string& request_root);

/// Median of per-kind timings, e.g. algo.run_ms.<kind>.
double median_ms(const std::vector<std::int64_t>& ns);

}  // namespace pb
