#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace pb {

const std::vector<metric_def>& metric_catalog() {
  static const std::vector<metric_def> k = {
      // ---- end-to-end: what a user of the served graph sees ----------------
      {"setup_s", "s", true},
      {"throughput_qps", "1/s", true},
      {"query_p50_ms", "ms", true},
      {"query_tail_ms", "ms", true},
      {"rss_peak_mb", "MB", true},
      // ---- per-layer (and workload-specific outcomes, 0 where the workload
      // has no such operation) ----------------------------------------------
      {"failed_frac", "frac", false},
      {"query_tail_pct", "%", false},
      {"query_samples", "count", false},
      {"ingest_p50_ms", "ms", false},
      {"ingest_tail_ms", "ms", false},
      {"fresh_p50_ms", "ms", false},
      {"fresh_tail_ms", "ms", false},
      {"serve.cache_hit_frac", "frac", false},
      {"serve.cache_invalidations", "count", false},
      {"serve.merged_frac", "frac", false},
      {"serve.solves_per_query", "solves/query", false},
      {"serve.pool_warm_hit_frac", "frac", false},
      {"serve.sessions_created", "count", false},
      {"serve.warm_repair_frac", "frac", false},
      {"serve.repair_ms.sssp", "ms", false},
      {"serve.repair_ms.cc", "ms", false},
      {"serve.repair_ms.kcore", "ms", false},
      {"algo.run_ms.sssp", "ms", false},
      {"algo.run_ms.sssp_delta", "ms", false},
      {"algo.run_ms.bfs", "ms", false},
      {"algo.run_ms.cc", "ms", false},
      {"algo.run_ms.kcore", "ms", false},
      {"algo.run_ms.pagerank", "ms", false},
      {"algo.session_build_ms", "ms", false},
      {"strategy.rounds_per_query", "rounds/query", false},
      {"strategy.useful_frac", "frac", false},
      {"ampp.messages_per_query", "msgs/query", false},
      {"ampp.reduction_hit_frac", "frac", false},
      {"ampp.batch_frac", "frac", false},
      {"ampp.envelopes_per_query", "envs/query", false},
      {"ampp.td_rounds_per_query", "rounds/query", false},
      {"ampp.control_msgs_per_query", "msgs/query", false},
      {"ampp.lane_skip_frac", "frac", false},
      {"ampp.wire_bytes_per_query", "B/query", false},
      {"ampp.wire_bytes_per_msg", "B/msg", false},
      {"ampp.pool_reuse_frac", "frac", false},
      {"ampp.retried", "count", false},
      {"ampp.dropped", "count", false},
      {"ampp.backend.wire_mb_per_s", "MB/s", false},
      {"graph.generate_s", "s", false},
      {"graph.build_s", "s", false},
      {"pmap.weights_build_ms", "ms", false},
      {"graph.delta_edges", "count", false},
      {"graph.tombstoned_edges", "count", false},
      {"graph.overlay_mb", "MB", false},
      {"graph.tombstone_mb", "MB", false},
      {"obs.trace_overhead_frac", "frac", false},
      {"trace.request_self_ms.bench", "ms/request", false},
      {"trace.request_self_ms.serve", "ms/request", false},
      {"trace.request_self_ms.algo", "ms/request", false},
      {"trace.request_self_ms.ampp.backend", "ms/request", false},
      {"trace.setup_self_ms.bench", "ms/setup", false},
      {"trace.setup_self_ms.graph", "ms/setup", false},
      {"trace.setup_self_ms.pmap", "ms/setup", false},
      {"trace.setup_self_ms.algo", "ms/setup", false},
      {"trace.setup_self_ms.serve", "ms/setup", false},
  };
  return k;
}

namespace {

const metric_def* find_metric(const std::string& name) {
  for (const metric_def& m : metric_catalog())
    if (name == m.name) return &m;
  return nullptr;
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

report::report() {
  for (const metric_def& m : metric_catalog()) {
    values_[m.name] = 0.0;
    set_[m.name] = false;
  }
}

void report::set(const std::string& name, double value) {
  if (find_metric(name) == nullptr)
    throw std::logic_error("report: unknown metric " + name);
  values_[name] = value;
  set_[name] = true;
}

void report::fail(const std::string& why) {
  correct = false;
  if (reasons_printed_++ < 8) std::cerr << "perfbench: WRONG ANSWER: " << why << "\n";
}

std::string report::result_json(bool trace) const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const metric_def& m : metric_catalog()) {
    if (m.end_to_end == trace) continue;
    if (m.end_to_end && !set_.at(m.name))
      throw std::logic_error(std::string("report: end-to-end metric not measured: ") +
                             m.name);
    o << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": "
      << number(values_.at(m.name)) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  o << "}}";
  return o.str();
}

std::string report::provenance_json() const {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [k, v] : provenance) {
    o << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  o << "}";
  return o.str();
}

std::string report::all_metrics_json() const {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const metric_def& m : metric_catalog()) {
    o << (first ? "" : ", ") << quoted(m.name) << ": {\"value\": "
      << number(values_.at(m.name)) << ", \"unit\": " << quoted(m.unit)
      << ", \"measured\": " << (set_.at(m.name) ? "true" : "false") << "}";
    first = false;
  }
  o << "}";
  return o.str();
}

}  // namespace pb
