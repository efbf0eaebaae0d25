// Helpers shared by the workloads: seeds, memory, medians, the report's
// JSON form, and the window pool replications are aggregated through.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "rt/runtime.hpp"
#include "stats/convergence.hpp"

namespace psdbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  psd::SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return sm.next();
}

double peak_rss_mb() {
  // VmHWM is this image's own high-water mark.  getrusage's ru_maxrss is
  // not: Linux carries it across exec, so it would report the launching
  // process's resident size whenever that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_array(const std::vector<double>& v) {
  std::ostringstream o;
  o << '[';
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << ']';
  return o.str();
}

bool Report::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? "," : "") << json_string(m.name)
      << ":{\"value\":" << json_number(m.value)
      << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples
      << "}";
  }
  o << "},\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    o << (i ? "," : "") << "{\"name\":" << json_string(checks[i].name)
      << ",\"ok\":" << (checks[i].ok ? "true" : "false")
      << ",\"detail\":" << json_string(checks[i].detail) << "}";
  }
  o << "],\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    o << (i ? "," : "") << json_string(info[i].first) << ":"
      << info[i].second;
  }
  o << "}}";
  return o.str();
}

CpuPin::CpuPin(std::size_t segment) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
  }
  if (allowed.size() <= 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[segment % allowed.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void WindowPool::add(const std::vector<psd::rt::Runtime*>& runtimes) {
  std::vector<std::vector<psd::IntervalStat>> merged;
  for (psd::rt::Runtime* rt : runtimes) {
    for (std::size_t s = 0; s < rt->num_shards(); ++s) {
      const psd::MetricsCollector& m = rt->shard(s).server().metrics();
      merged.resize(m.num_classes());
      for (std::size_t c = 0; c < m.num_classes(); ++c) {
        psd::merge_windows_into(merged[c],
                                m.windows(static_cast<psd::ClassId>(c)));
      }
    }
  }
  series_.push_back(std::move(merged));
}

double WindowPool::ratio_p50(std::size_t c) const {
  std::vector<const std::vector<psd::IntervalStat>*> base, cls;
  for (const auto& rep : series_) {
    base.push_back(&rep[0]);
    cls.push_back(&rep[c]);
  }
  return psd::pooled_window_ratio_median(base, cls);
}

double worst_ratio_err(const std::vector<double>& p50,
                       const std::vector<double>& delta) {
  double worst = 0.0;
  for (std::size_t c = 1; c < delta.size(); ++c) {
    const double err = std::abs(p50[c] / (delta[c] / delta[0]) - 1.0);
    if (!std::isfinite(err)) return std::nan("");
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace psdbench
