// Unit tests for the benchmark's own helpers: percentile and tail
// semantics, the seeded edge stream's determinism and invariants,
// label canonicalization, span self times, and the result line.
// Run: .bench_build/perfbench/perfbench_selftest (or run.py --selftest).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

void test_latency_summary() {
  using pb::summarize_ns;
  // 100 samples of 1..100 ms: the median is 50.5 ms; 10 samples lie
  // strictly above the 90th value, so the tail is 90 ms at p90.
  std::vector<std::int64_t> v;
  for (int i = 100; i >= 1; --i) v.push_back(std::int64_t{i} * 1'000'000);
  const pb::latency_summary s = summarize_ns(v);
  CHECK(s.samples == 100);
  CHECK(std::fabs(s.p50_ms - 50.5) < 1e-9);
  CHECK(std::fabs(s.tail_ms - 90.0) < 1e-9);
  CHECK(std::fabs(s.tail_pct - 90.0) < 1e-9);
  // Nanosecond resolution survives: sub-microsecond latencies do not read 0.
  const pb::latency_summary tiny = summarize_ns({250, 350, 450});
  CHECK(tiny.p50_ms > 0.0 && std::fabs(tiny.p50_ms - 0.00035) < 1e-12);
  // Too few samples for a tail with 10 beyond it: the maximum at p100.
  CHECK(tiny.tail_ms == 0.00045 && tiny.tail_pct == 100.0);
  // 1000 samples: the tail is p99, the value with exactly 10 above it.
  std::vector<std::int64_t> k(1000);
  for (int i = 0; i < 1000; ++i) k[static_cast<std::size_t>(i)] = i;
  const pb::latency_summary s2 = summarize_ns(k);
  CHECK(std::fabs(s2.tail_pct - 99.0) < 1e-9);
  CHECK(std::count_if(k.begin(), k.end(),
                      [&](std::int64_t x) { return pb::ns_to_ms(x) > s2.tail_ms; }) == 10);
  CHECK(pb::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(pb::median({}) == 0.0);

  // Windowed tail: five windows of 100 samples; one window holds a burst
  // of huge latencies. The whole-sample tail lands in the burst, the
  // median of the window tails does not.
  std::vector<std::int64_t> w;
  for (int win = 0; win < 5; ++win)
    for (int i = 1; i <= 100; ++i)
      w.push_back(win == 2 ? std::int64_t{1'000'000'000} : std::int64_t{i} * 1'000'000);
  const pb::latency_summary plain = pb::summarize_ns(w);
  const pb::latency_summary windowed = pb::summarize_windowed_ns(w, 5);
  CHECK(plain.tail_ms == 1000.0);
  CHECK(std::fabs(windowed.tail_ms - 90.0) < 1e-9);
  CHECK(std::fabs(windowed.tail_pct - 90.0) < 1e-9);
  CHECK(windowed.p50_ms == plain.p50_ms && windowed.samples == 500);
}

void test_edge_stream() {
  const auto base = pb::rmat_symmetric(8, 8, 3);
  pb::edge_stream s1(base, 5, 16, 16), s2(base, 5, 16, 16);
  std::set<std::uint64_t> present;
  for (const auto& e : base) present.insert(pb::pair_key(e.src, e.dst));
  const std::size_t live = present.size();
  std::uint64_t last_ts = 0;
  for (int t = 0; t < 50; ++t) {
    const auto b1 = s1.next();
    const auto b2 = s2.next();
    CHECK(b1.added == b2.added && b1.removed == b2.removed &&
          b1.timestamp_us == b2.timestamp_us);
    CHECK(b1.timestamp_us > last_ts);
    last_ts = b1.timestamp_us;
    CHECK(b1.removed.size() == 32 && b1.added.size() == 32);
    for (const auto& e : b1.removed) CHECK(present.contains(pb::pair_key(e.src, e.dst)));
    for (std::size_t i = 0; i < b1.removed.size(); i += 2) {
      CHECK(b1.removed[i].src == b1.removed[i + 1].dst);
      present.erase(pb::pair_key(b1.removed[i].src, b1.removed[i].dst));
    }
    for (std::size_t i = 0; i < b1.added.size(); i += 2) {
      const auto& e = b1.added[i];
      CHECK(e.src != e.dst && b1.added[i + 1].src == e.dst);
      CHECK(present.insert(pb::pair_key(e.src, e.dst)).second);  // absent before
    }
    CHECK(present.size() == live);  // simple, symmetric, constant size
  }
}

void test_labels() {
  std::vector<std::uint64_t> labels = {4, 4, 2, 2, 4};
  pb::canonicalize_labels(labels);
  CHECK((labels == std::vector<std::uint64_t>{0, 0, 2, 2, 0}));
}

void test_self_times() {
  pb::set_tracing(true);
  {
    pb::span root("bench.request", 1);
    {
      pb::span child("algo.run", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pb::set_tracing(false);
  { pb::span ignored("bench.request", 2); }  // recorded only while enabled
  const pb::layer_times lt = pb::self_times("bench.request");
  CHECK(lt.roots == 1);
  CHECK(lt.self_ms.at("algo") >= 19.0);
  CHECK(lt.self_ms.at("bench") >= 4.0 && lt.self_ms.at("bench") < lt.self_ms.at("algo"));
  CHECK(pb::self_times("bench.setup").roots == 0);
  const auto evs = pb::global_tracer().events();
  CHECK(evs.size() == 2);
  // The child closes first; it names the root as its parent and carries
  // the request id.
  const auto arg = [](const dpg::obs::trace_event& e, const std::string& key) {
    for (int i = 0; i < e.n_args; ++i)
      if (key == e.args[i].key) return e.args[i].value;
    return ~std::uint64_t{0};
  };
  if (evs.size() == 2) {
    const auto& child = std::string(evs[0].name) == "algo.run" ? evs[0] : evs[1];
    const auto& root = &child == &evs[0] ? evs[1] : evs[0];
    CHECK(std::string(root.name) == "bench.request" && arg(root, "parent") == 0);
    CHECK(arg(child, "parent") == arg(root, "id") && arg(child, "request") == 1);
  }
}

void test_report() {
  pb::report r;
  bool threw = false;
  try {
    (void)r.result_json(false);  // end-to-end metrics unset
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  for (const auto& m : pb::metric_catalog())
    if (m.end_to_end) r.set(m.name, 1.25);
  r.count(true);
  const std::string line = r.result_json(false);
  CHECK(line.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}") != std::string::npos);
  CHECK(line.find("\"attempted\": 1") != std::string::npos);
  CHECK(line.find("serve.cache_hit_frac") == std::string::npos);
  CHECK(r.result_json(true).find("serve.cache_hit_frac") != std::string::npos);
  std::set<std::string> names;
  for (const auto& m : pb::metric_catalog()) CHECK(names.insert(m.name).second);
}

}  // namespace

int main() {
  test_latency_summary();
  test_edge_stream();
  test_labels();
  test_self_times();
  test_report();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
