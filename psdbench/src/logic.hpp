// The benchmark's own arithmetic: which percentile a sample supports, the
// capacity-knee search, request conservation, span self time and the record
// digest.  Pure functions with no dependency on the library under test, so
// tests/test_logic.cpp can pin each rule exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psdbench {

// ------------------------------------------------------------ percentiles

/// Percentiles the benchmark reports, in hundredths of a percent.
inline constexpr std::uint32_t kPercentileLadder[] = {5000, 9000, 9900, 9990,
                                                      9999};

/// Samples strictly beyond the p-th percentile of `n` samples, where the
/// percentile is the sample at rank ceil(n * p) (p in hundredths of a
/// percent, so the arithmetic is exact).
inline std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t p_centi) {
  const std::uint64_t rank = (n * p_centi + 9999) / 10000;
  return n - rank;
}

struct SupportedPercentile {
  double percent = 0.0;       ///< 0 when no ladder percentile is supported.
  std::uint64_t beyond = 0;   ///< Samples beyond it.
};

/// Highest ladder percentile with at least `min_beyond` samples beyond it.
inline SupportedPercentile highest_supported_percentile(
    std::uint64_t n, std::uint64_t min_beyond = 10) {
  SupportedPercentile best;
  for (const std::uint32_t p : kPercentileLadder) {
    const std::uint64_t beyond = samples_beyond(n, p);
    if (beyond >= min_beyond) best = {p / 100.0, beyond};
  }
  return best;
}

// ------------------------------------------------------------ knee search

struct Rung {
  double rate = 0.0;
  bool pass = false;
};

struct KneeResult {
  double rate = 0.0;    ///< Highest passing rate; 0 when none passed.
  bool bracketed = false;  ///< A failing rate above `rate` was observed.
  std::vector<Rung> rungs;  ///< Every rate tried, in order.
};

/// Search for the highest rate `pass` accepts: start at `start`, step
/// geometrically by `factor` (up while it passes, down while it fails, at
/// most `max_steps` rungs either way), then bisect the bracket on a
/// geometric scale `bisect_steps` times.  Assumes pass/fail is monotone
/// in rate; a noisy oracle only narrows the bracket around its flip.
template <typename Oracle>
KneeResult knee_search(double start, double factor, std::size_t max_steps,
                       std::size_t bisect_steps, Oracle&& pass) {
  KneeResult out;
  auto probe = [&](double rate) {
    const bool ok = pass(rate);
    out.rungs.push_back({rate, ok});
    return ok;
  };
  double lo = 0.0;
  double hi = 0.0;
  if (probe(start)) {
    lo = start;
    for (std::size_t i = 0; i < max_steps; ++i) {
      const double r = lo * factor;
      if (!probe(r)) {
        hi = r;
        break;
      }
      lo = r;
    }
  } else {
    hi = start;
    for (std::size_t i = 0; i < max_steps; ++i) {
      const double r = hi / factor;
      if (probe(r)) {
        lo = r;
        break;
      }
      hi = r;
    }
  }
  if (lo > 0.0 && hi > 0.0) {
    out.bracketed = true;
    for (std::size_t i = 0; i < bisect_steps; ++i) {
      const double mid = std::sqrt(lo * hi);
      if (probe(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  out.rate = lo;
  return out;
}

// ------------------------------------------------------------ conservation

/// One class's request accounting at the end of a run.
struct ClassFlow {
  std::uint64_t produced = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;       ///< Ingress ring full.
  std::uint64_t shed = 0;          ///< Admission policy.
  std::uint64_t lost_to_kill = 0;  ///< Stranded on a killed node.
  std::uint64_t outstanding = 0;   ///< Accepted, not yet completed.
};

/// produced - (completed + dropped + shed + lost_to_kill + outstanding);
/// zero when every request is accounted for.
inline std::int64_t conservation_residual(const ClassFlow& f) {
  const std::uint64_t accounted =
      f.completed + f.dropped + f.shed + f.lost_to_kill + f.outstanding;
  return static_cast<std::int64_t>(f.produced) -
         static_cast<std::int64_t>(accounted);
}

/// Sum of |residual| over classes; `why` names the first unbalanced class.
inline std::uint64_t conservation_violations(
    const std::vector<ClassFlow>& flows, std::string* why = nullptr) {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < flows.size(); ++c) {
    const std::int64_t r = conservation_residual(flows[c]);
    if (r != 0 && why != nullptr && why->empty()) {
      *why = "class " + std::to_string(c) + " residual " + std::to_string(r);
    }
    total += static_cast<std::uint64_t>(r < 0 ? -r : r);
  }
  return total;
}

// ------------------------------------------------------------ spans

/// One timed call, recorded by the benchmark around a call into a layer.
/// `parent` indexes the enclosing span (-1 for a root).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name self time: each span's duration minus the durations of its
/// direct children, summed by name.  Children must lie inside their parent.
inline std::vector<double> self_times_ns(const std::vector<Span>& spans,
                                         std::size_t num_names) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> by_name(num_names, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

// ------------------------------------------------------------ digest

/// FNV-1a 64 — folds record bytes into a run-comparable digest.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace psdbench
