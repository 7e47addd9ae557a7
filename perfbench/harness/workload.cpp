#include "workload.hpp"

#include <stdexcept>

#include "stats.hpp"
#include "trace.hpp"

namespace pb {

void layer_counters::add(const dpg::serve::session_result& r) {
  add_core(r.stats_delta.core);
  rounds += r.rounds;
  modifications += r.modifications;
}

void layer_counters::add_core(const dpg::obs::counters& c) { core = core + c; }

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void layer_counters::publish(report& rep, std::uint64_t queries) const {
  const double q = static_cast<double>(queries);
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  rep.set("strategy.rounds_per_query", ratio(d(rounds), q));
  rep.set("strategy.useful_frac", ratio(d(modifications), d(core.handler_invocations)));
  rep.set("ampp.messages_per_query", ratio(d(core.messages_sent), q));
  rep.set("ampp.reduction_hit_frac",
          ratio(d(core.cache_hits), d(core.cache_hits + core.messages_sent)));
  rep.set("ampp.batch_frac", ratio(d(core.batch_records), d(core.handler_invocations)));
  rep.set("ampp.envelopes_per_query", ratio(d(core.envelopes_sent), q));
  rep.set("ampp.td_rounds_per_query", ratio(d(core.td_rounds), q));
  rep.set("ampp.control_msgs_per_query", ratio(d(core.control_messages), q));
  rep.set("ampp.lane_skip_frac",
          ratio(d(core.flush_lane_skips), d(core.flush_lane_skips + core.flush_lane_visits)));
  rep.set("ampp.wire_bytes_per_query", ratio(d(core.wire_bytes_sent), q));
  rep.set("ampp.wire_bytes_per_msg", ratio(d(core.wire_bytes_sent), d(core.messages_sent)));
  rep.set("ampp.pool_reuse_frac", ratio(d(core.pool_reuses), d(core.envelopes_sent)));
  rep.set("ampp.retried", d(core.envelopes_retried));
  rep.set("ampp.dropped", d(core.envelopes_dropped));
}

void setup_times::publish(report& rep) const {
  rep.set("setup_s", median(total_s));
  rep.set("graph.generate_s", median(generate_s));
  rep.set("graph.build_s", median(build_s));
  rep.set("pmap.weights_build_ms", median(weights_ms));
  rep.set("algo.session_build_ms", median(session_build_ms));
}

void publish_self_times(report& rep, const std::string& request_root) {
  const auto per = [](const layer_times& lt, const char* layer) {
    const auto it = lt.self_ms.find(layer);
    return it == lt.self_ms.end() || lt.roots == 0
               ? 0.0
               : it->second / static_cast<double>(lt.roots);
  };
  const layer_times req = self_times(request_root);
  for (const char* l : {"bench", "serve", "algo", "ampp.backend"})
    rep.set(std::string("trace.request_self_ms.") + l, per(req, l));
  const layer_times set = self_times("bench.setup");
  for (const char* l : {"bench", "graph", "pmap", "algo", "serve"})
    rep.set(std::string("trace.setup_self_ms.") + l, per(set, l));
}

double median_ms(const std::vector<std::int64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const std::int64_t x : ns) ms.push_back(ns_to_ms(x));
  return median(std::move(ms));
}

}  // namespace pb
