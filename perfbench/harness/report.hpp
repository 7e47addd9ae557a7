// The metric catalog and the result line. Every metric the benchmark can
// print is declared once in kMetrics (name, unit, end-to-end or
// per-layer); BENCHMARK.json lists the same names and units, which
// `perfbench --list-metrics` lets the self-test compare.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct metric_def {
  const char* name;
  const char* unit;
  bool end_to_end;
};

const std::vector<metric_def>& metric_catalog();

/// Command-line arguments of one run.
struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";      ///< where result and trace files go
  std::string source_digest = "unknown";
  int rank = 0;                   ///< solve-shm: the rank this process hosts
  std::string session = "pb";     ///< solve-shm: shared-memory session id
};

/// Accumulates one run's outcome and renders the final JSON line.
class report {
 public:
  report();

  /// Sets a catalogued metric (throws on an unknown name).
  void set(const std::string& name, double value);

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A correctness failure with a reason (first few are printed).
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::string> provenance;

  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` holding the
  /// end-to-end metrics (trace off) or the per-layer metrics (trace on).
  /// Throws if an end-to-end metric was never set.
  std::string result_json(bool trace) const;
  std::string provenance_json() const;
  /// Every metric, both kinds, for the result file.
  std::string all_metrics_json() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, bool> set_;
  int reasons_printed_ = 0;
};

}  // namespace pb
