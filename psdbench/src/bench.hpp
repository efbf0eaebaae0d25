// Shared plumbing of the benchmark binary: command-line arguments, the
// result record every workload fills, wall-clock timing and the in-memory
// span log the traced runs record around calls into each layer.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "logic.hpp"
#include "stats/interval_series.hpp"

namespace psd {
namespace rt {
struct RtReport;
class Runtime;
}  // namespace rt
}  // namespace psd

namespace psdbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seed for sub-stream `index` of the workload seed (SplitMix64 finalizer),
/// so the library only ever sees derived seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Peak resident set of this process in MB.
double peak_rss_mb();

double median(std::vector<double> v);

/// `v` as a JSON array, for the record's diagnostic notes.
std::string json_array(const std::vector<double>& v);

/// The gated form of a ratio error e = |achieved / target - 1|: 1 / (1 + e).
/// Near-perfect differentiation puts e near 0, where a relative bound would
/// only measure noise; the fidelity sits near 1 and moves by about the
/// absolute change in e.
inline double ratio_fidelity(double ratio_err) { return 1.0 / (1.0 + ratio_err); }

/// Every field of an rt report, doubles as raw bits: equal strings mean
/// bitwise-identical reports.
std::string rt_report_digest(const psd::rt::RtReport& r);

/// Pins the calling thread to one of the CPUs it may run on, chosen by
/// `segment` round-robin, and restores the previous affinity on
/// destruction.  On a VM the vCPUs run at different and changing speeds;
/// single-threaded timed segments rotate CPUs, so the median over segments
/// weighs every vCPU alike instead of whichever the scheduler happened to
/// keep the work on.
class CpuPin {
 public:
  explicit CpuPin(std::size_t segment);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Per-window slowdown series of finished runtimes, kept so one windowed
/// ratio median pools every added replication's windows, as campaign
/// aggregation pools every run's windows.
class WindowPool {
 public:
  /// One replication: the closed windows of every shard of `runtimes`,
  /// merged index-wise into one system-wide series per class (call after
  /// finish()).
  void add(const std::vector<psd::rt::Runtime*>& runtimes);
  /// Median over pooled windows of class c's slowdown over class 0's.
  double ratio_p50(std::size_t c) const;

 private:
  /// [replication][class] -> windows.
  std::vector<std::vector<std::vector<psd::IntervalStat>>> series_;
};

/// Worst class |p50[c] / (delta[c] / delta[0]) - 1| over c >= 1, where
/// p50[c] is class c's windowed-median slowdown ratio to class 0 (p50[0]
/// unused); NaN when any ratio is missing.
double worst_ratio_err(const std::vector<double>& p50,
                       const std::vector<double>& delta);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< Observations behind the value.
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run reports.  run.py picks the metrics named
/// in BENCHMARK.json for the result line; the rest go to the record.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> info;  ///< Raw JSON.

  void metric(std::string name, double value, std::string unit,
              std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void note(std::string key, std::string json_value) {
    info.emplace_back(std::move(key), std::move(json_value));
  }
  bool correct() const;
  std::string json() const;
};

/// Spans kept in memory during a traced drive; self times are computed
/// once the drive ends.  The drives time sibling calls, so every span is a
/// root and its self time is its duration.
class SpanLog {
 public:
  /// Span names are small integers below `num_names`.
  explicit SpanLog(std::size_t num_names) : num_names_(num_names) {
    spans_.reserve(1 << 16);
  }
  std::int32_t open(std::uint32_t name) {
    spans_.push_back({name, -1, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }
  /// Self time per name, in ns.
  std::vector<double> self_ns() const {
    return self_times_ns(spans_, num_names_);
  }

 private:
  std::size_t num_names_;
  std::vector<Span> spans_;
};

// One entry per workload: the untraced run measures the end-to-end
// metrics; the traced run measures per-layer metrics.  `primary` traced
// runs own the run's budget and report trace overhead and coverage; the
// others are short probes so every traced run reports every layer.
void run_campaign(const Args& a, Report& r);
void run_serve(const Args& a, Report& r);
void run_cluster_overload(const Args& a, Report& r);
void trace_campaign(const Args& a, double seconds, bool primary, Report& r);
void trace_serve(const Args& a, double seconds, bool primary, Report& r);
void trace_cluster_overload(const Args& a, double seconds, bool primary,
                            Report& r);

}  // namespace psdbench
