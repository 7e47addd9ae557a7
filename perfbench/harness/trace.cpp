#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace pb {

namespace {

thread_local std::vector<std::uint64_t> t_open;  // ids of this thread's open spans

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

std::uint64_t arg_of(const dpg::obs::trace_event& ev, const char* key) {
  for (int i = 0; i < ev.n_args; ++i)
    if (std::strcmp(ev.args[i].key, key) == 0) return ev.args[i].value;
  return 0;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  if (s.rfind("ampp.backend.", 0) == 0) return "ampp.backend";
  return s.substr(0, s.find('.'));
}

}  // namespace

dpg::obs::tracer& global_tracer() {
  static dpg::obs::tracer t;
  return t;
}

void set_tracing(bool on) {
  if (on) global_tracer().enable();
  else global_tracer().disable();
}

span::span(const char* name, std::uint64_t request)
    : ev_(&global_tracer(), "perfbench", name, thread_ordinal()) {
  if (!ev_.active()) return;
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  ev_.arg("id", id_);
  ev_.arg("parent", t_open.empty() ? 0 : t_open.back());
  ev_.arg("request", request);
  t_open.push_back(id_);
}

span::~span() {
  ev_.finish();
  if (id_ != 0 && !t_open.empty() && t_open.back() == id_) t_open.pop_back();
}

layer_times self_times(const std::string& root_name) {
  const std::vector<dpg::obs::trace_event> evs = global_tracer().events();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < evs.size(); ++i) by_id[arg_of(evs[i], "id")] = i;
  // Children of one span run one after another on the parent's thread, so
  // the time they cover is the sum of their durations.
  std::vector<std::uint64_t> child_us(evs.size(), 0);
  std::vector<std::size_t> parent(evs.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto it = by_id.find(arg_of(evs[i], "parent"));
    if (it == by_id.end()) continue;  // a root (parent id 0)
    parent[i] = it->second;
    child_us[it->second] += evs[i].dur_us;
  }
  layer_times out;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    std::size_t root = i;
    while (parent[root] != evs.size()) root = parent[root];
    if (root_name != evs[root].name) continue;
    if (root == i) ++out.roots;
    const std::uint64_t self = evs[i].dur_us - std::min(evs[i].dur_us, child_us[i]);
    out.self_ms[layer_of(evs[i].name)] += static_cast<double>(self) / 1e3;
  }
  return out;
}

}  // namespace pb
