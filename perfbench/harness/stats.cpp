#include "stats.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>

namespace pb {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

latency_summary summarize_ns(const std::vector<std::int64_t>& latencies_ns) {
  latency_summary s;
  s.samples = latencies_ns.size();
  if (s.samples == 0) return s;
  std::vector<std::int64_t> v = latencies_ns;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.p50_ms = n % 2 == 1 ? ns_to_ms(v[n / 2])
                        : 0.5 * (ns_to_ms(v[n / 2 - 1]) + ns_to_ms(v[n / 2]));
  if (n > latency_summary::kTailGap) {
    const std::size_t k = n - 1 - latency_summary::kTailGap;
    s.tail_ms = ns_to_ms(v[k]);
    s.tail_pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  } else {
    s.tail_ms = ns_to_ms(v.back());
    s.tail_pct = 100.0;
  }
  return s;
}

latency_summary summarize_windowed_ns(const std::vector<std::int64_t>& in_arrival_order,
                                      std::size_t windows) {
  latency_summary s = summarize_ns(in_arrival_order);
  const std::size_t n = in_arrival_order.size();
  if (windows < 2 || n < windows) return s;
  std::vector<double> tails, pcts;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_arrival_order.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto last = in_arrival_order.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    const latency_summary ws = summarize_ns(std::vector<std::int64_t>(first, last));
    tails.push_back(ws.tail_ms);
    pcts.push_back(ws.tail_pct);
  }
  s.tail_ms = median(tails);
  s.tail_pct = median(pcts);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void release_freed_memory() { malloc_trim(0); }

}  // namespace pb
