// Timing helpers shared by every workload: a nanosecond steady clock,
// latency summaries with an honest tail percentile, and peak RSS.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty sample.
double median(std::vector<double> xs);

/// A latency distribution reduced to what the benchmark reports: the median
/// and the highest percentile that still has at least `kTailGap` samples
/// strictly above it (with N samples that is the value at sorted index
/// N-1-kTailGap, i.e. percentile 100*(N-kTailGap)/N). With too few samples
/// for such a tail, `tail_ms` is the maximum and `tail_pct` is 100.
struct latency_summary {
  static constexpr std::size_t kTailGap = 10;
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;
};

latency_summary summarize_ns(const std::vector<std::int64_t>& latencies_ns);

/// Like summarize_ns, but the tail (and its percentile) is the median over
/// `windows` consecutive, equal-count windows of the samples, taken in
/// arrival order, of each window's tail. One burst of host noise then
/// moves one window's tail, not the run's.
latency_summary summarize_windowed_ns(const std::vector<std::int64_t>& in_arrival_order,
                                      std::size_t windows);

/// Peak resident set size of this process, in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Hands freed heap memory back to the kernel. Called after tearing down a
/// set-up repetition, so memory the allocator kept from an earlier
/// repetition does not count in the peak of the run that follows.
void release_freed_memory();

}  // namespace pb
