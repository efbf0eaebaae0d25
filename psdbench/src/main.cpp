// psdbench: one workload per invocation, printed as one JSON record.
//
//   psdbench --workload campaign|serve|cluster_overload --seed N
//            --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no timers inside the
// drive; --trace 1 replays the workload with spans around every call into
// a layer and reports the per-layer metrics.  run.py wraps this binary.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: psdbench --workload campaign|serve|cluster_overload "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psdbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = val == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || a.seconds <= 0.0) return usage();

  // Traced runs report every layer: the workload's own drive gets most of
  // the budget, the other two run as short probes.
  const double probe_s = std::max(0.5, 0.1 * a.seconds);
  const double own_s = std::max(1.0, a.seconds - 2.0 * probe_s);
  Report r;
  try {
    if (a.workload == "campaign") {
      if (!a.trace) {
        run_campaign(a, r);
      } else {
        trace_campaign(a, own_s, true, r);
        trace_serve(a, probe_s, false, r);
        trace_cluster_overload(a, probe_s, false, r);
      }
    } else if (a.workload == "serve") {
      if (!a.trace) {
        run_serve(a, r);
      } else {
        trace_serve(a, own_s, true, r);
        trace_campaign(a, probe_s, false, r);
        trace_cluster_overload(a, probe_s, false, r);
      }
    } else if (a.workload == "cluster_overload") {
      if (!a.trace) {
        run_cluster_overload(a, r);
      } else {
        trace_cluster_overload(a, own_s, true, r);
        trace_campaign(a, probe_s, false, r);
        trace_serve(a, probe_s, false, r);
      }
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "psdbench: " << e.what() << "\n";
    return 1;
  }
  const bool has_rss = std::any_of(r.metrics.begin(), r.metrics.end(),
                                   [](const Metric& m) {
                                     return m.name == "peak_rss_mb";
                                   });
  if (!has_rss) r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  r.note("compiler", "\"" PSDBENCH_COMPILER "\"");
  r.note("build_type", "\"" PSDBENCH_BUILD_TYPE "\"");
  std::cout << r.json() << std::endl;
  return 0;
}
