// perfbench: runs one benchmark workload in this process and prints one
// JSON result line. Normally launched by run.py, which builds this binary,
// starts one process per workload (two for solve-shm) and forwards the
// result line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--source-digest HEX] [--rank R --session ID]
//   perfbench --list-metrics
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "util/simd.hpp"
#include "workload.hpp"

namespace {

using namespace pb;

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload solve-rmat|stream-churn|solve-shm"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]"
               " [--source-digest HEX] [--rank R --session ID]\n"
               "       perfbench --list-metrics\n";
  std::exit(2);
}

run_args parse(int argc, char** argv) {
  run_args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--source-digest") a.source_digest = v;
      else if (k == "--rank") a.rank = std::stoi(v);
      else if (k == "--session") a.session = v;
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (a.rank < 0 || a.rank >= static_cast<int>(kRanks)) usage("--rank out of range");
  return a;
}

void stamp_provenance(const run_args& a, report& rep) {
  rep.provenance["workload"] = a.workload;
  rep.provenance["seed"] = std::to_string(a.seed);
  // Fixed function of the seed, never used to tune anything: a later claim
  // made on `seed` is re-checked on this one.
  rep.provenance["heldout_seed"] = std::to_string(a.seed ^ 0x5eed5eed5eedull);
  rep.provenance["source_digest"] = a.source_digest;
  rep.provenance["nproc"] = std::to_string(std::thread::hardware_concurrency());
  rep.provenance["ranks"] = std::to_string(kRanks);
  rep.provenance["backend"] = a.workload == "solve-shm" ? "shm_ring" : "inproc";
  rep.provenance["simd_detected"] = dpg::simd::name(dpg::simd::detect());
  rep.provenance["simd_active"] = dpg::simd::name(dpg::simd::active());
  const char* forced = std::getenv("DPG_SIMD_LEVEL");
  rep.provenance["simd_forced"] = forced != nullptr ? forced : "";
  rep.provenance["build_type"] = PB_BUILD_TYPE;
  rep.provenance["build_flags"] = PB_BUILD_FLAGS;
  rep.provenance["compiler"] = PB_COMPILER;
  rep.provenance["run_seconds"] = std::to_string(a.seconds);
  rep.provenance["trace"] = a.trace ? "1" : "0";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    for (const metric_def& m : metric_catalog())
      std::cout << m.name << " " << m.unit << " "
                << (m.end_to_end ? "end_to_end" : "per_layer") << "\n";
    return 0;
  }
  const run_args a = parse(argc, argv);

#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to time an unoptimized build\n";
  return 3;
#endif

  const unsigned cores = std::thread::hardware_concurrency();
  const int busy = static_cast<int>(kRanks) * kConcurrentSolves;
  if (cores != 0 && busy > static_cast<int>(cores)) {
    std::cerr << "perfbench: " << a.workload << " keeps " << busy
              << " busy threads (ranks x concurrent solves) but only " << cores
              << " cores are available\n";
    return 3;
  }

  report rep;
  stamp_provenance(a, rep);
  try {
    if (a.workload == "solve-rmat") run_solve_rmat(a, rep);
    else if (a.workload == "stream-churn") run_stream_churn(a, rep);
    else if (a.workload == "solve-shm") run_solve_shm(a, rep);
    else usage("unknown workload " + a.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  // Only rank 0 of a multi-process machine reports.
  if (a.rank != 0) return 0;

  if (rep.attempted > 0)
    rep.set("failed_frac", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted));
  const std::string tag = a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                          (a.trace ? "1" : "0");
  if (a.trace) {
    const std::string path = a.out_dir + "/trace-" + tag + ".json";
    if (!global_tracer().write_chrome_trace_file(path))
      std::cerr << "perfbench: could not write " << path << "\n";
    if (global_tracer().dropped() > 0)
      std::cerr << "perfbench: the span buffer overflowed; " << global_tracer().dropped()
                << " spans are missing from the self times\n";
  }
  std::string line;
  try {
    line = rep.result_json(a.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  {
    std::ofstream f(a.out_dir + "/result-" + tag + ".json");
    f << "{\"provenance\": " << rep.provenance_json()
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": " << rep.all_metrics_json() << "}\n";
  }
  std::cout << "provenance " << rep.provenance_json() << "\n";
  std::cout << line << std::endl;
  return rep.correct && rep.failed == 0 && rep.attempted > 0 ? 0 : 4;
}
