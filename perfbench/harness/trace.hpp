// Benchmark-side span tracing: spans recorded around each call the
// benchmark makes into a library layer (the library's own spans are not
// turned on here). Spans go into one process-wide dpg::obs::tracer, with
// the span's id, its parent's id and the request id as event args; they
// stay in memory while the run is on and are written out as Chrome trace
// JSON at exit. Per-layer self time (a span's duration minus the time its
// children cover) is computed from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.hpp"

namespace pb {

/// The process-wide tracer every workload records into. Disabled until a
/// traced run enables it; spans opened while it is disabled are not
/// recorded.
dpg::obs::tracer& global_tracer();

/// Turns recording on the global tracer on or off.
void set_tracing(bool on);

/// RAII span on the global tracer. `name` is "<layer>.<call>", e.g.
/// "serve.query". Nested spans on one thread become children of the
/// innermost open span.
class span {
 public:
  explicit span(const char* name, std::uint64_t request = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  dpg::obs::trace_span ev_;
  std::uint64_t id_ = 0;  ///< 0: not recorded
};

/// Self time summed per layer (the span name up to its first '.', except
/// that "ampp.backend.*" is its own layer) over every recorded span whose
/// root span is named `root_name`, plus the number of such roots.
struct layer_times {
  std::map<std::string, double> self_ms;
  std::size_t roots = 0;
};
layer_times self_times(const std::string& root_name);

}  // namespace pb
