// Workload `serve`: a threaded, embedded rt::Runtime (2 shards, controller,
// telemetry on; 2 classes delta = (1, 2); bexp:1,0.1,10 sizes; load 0.9 per
// shard) fed by the benchmark's own open-loop Poisson generator through
// RuntimeHandle::submit.  Each request is stamped with the time it was due,
// so ingress wait includes any stall of the generator or the shards.
//
// Phase 1 holds a reference rate (mean service 4 us, ~450 k req/s).
// Phase 2 searches the capacity knee on a geometric rate ladder, shrinking
// the mean service time at fixed model load: the model is scale-free, so
// only the runtime's own cost and batching change with rate.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dist/sampler.hpp"
#include "rt/handle.hpp"
#include "rt/runtime.hpp"
#include "stats/histogram.hpp"
#include "workload/arrival.hpp"

namespace psdbench {
namespace {

constexpr double kRefMeanService = 4e-6;  // seconds; ~450 k req/s in total
constexpr double kLoad = 0.9;
constexpr std::size_t kShards = 2;
// Knee criteria for one ladder rung.  Below the knee, shards that find
// their ring empty sleep 100 us and ingress-wait p99 sits at 2-6 ms on a
// 4-vCPU VM, set by wake-up latency rather than load; past the knee the
// ring (16 Ki per shard) fills and waits reach 10 ms and more.  The limits
// sit at that boundary, so a rung fails on backlog, not on timer noise.
constexpr double kMaxDropShare = 1e-3;
constexpr double kMaxIngressP99 = 10e-3;  // seconds
constexpr double kMaxGenLagP99 = 10e-3;   // seconds
// Ladder shape: doublings from the reference rate, then 5 bisections
// (resolution 2^(1/32), about 2 %).  A rung passes when any of its
// attempts does: a vCPU preempted for ~10 ms fills a 16 Ki ring at these
// rates, and that failure says nothing about the runtime's cost.
constexpr double kLadderFactor = 2.0;
constexpr std::size_t kLadderSteps = 6;
constexpr std::size_t kBisections = 5;
constexpr int kRungAttempts = 3;

psd::rt::RtConfig make_config(double mean_service, double warmup,
                              double measured, std::uint64_t seed) {
  psd::rt::RtConfig cfg;
  cfg.delta = {1.0, 2.0};
  cfg.load = kLoad;
  cfg.size_dist = psd::DistSpec::parse("bexp:1,0.1,10");
  cfg.mean_service_seconds = mean_service;
  cfg.shards = kShards;
  cfg.warmup = warmup;
  cfg.duration = warmup + measured;
  cfg.seed = seed;
  cfg.obs.enabled = true;
  return cfg;
}

double total_rate(const psd::rt::RtConfig& cfg) {
  double sum = 0.0;
  for (const double l : cfg.lambdas()) sum += l;
  return sum;
}

/// The open-loop arrival schedule: Poisson at the config's total rate,
/// equal class shares, sizes from the config's distribution.  Every draw
/// comes from one stream seeded by the workload seed.
class Schedule {
 public:
  Schedule(const psd::rt::RtConfig& cfg, std::uint64_t seed)
      : rng_(seed),
        gaps_(total_rate(cfg)),
        sizes_(psd::make_sampler(cfg.size_dist)),
        classes_(cfg.num_classes()) {}

  void begin(psd::Time t0) { due_ = t0 + gaps_.next_interarrival(rng_); }
  psd::Time due() const { return due_; }

  psd::Request next() {
    psd::Request req;
    req.id = id_++;
    req.cls = static_cast<psd::ClassId>(rng_.below(classes_));
    req.arrival = due_;
    req.size = sizes_.sample(rng_);
    due_ += gaps_.next_interarrival(rng_);
    return req;
  }

 private:
  psd::Rng rng_;
  psd::PoissonArrivals gaps_;
  psd::SamplerVariant sizes_;
  std::size_t classes_;
  psd::Time due_ = 0.0;
  psd::RequestId id_ = 0;
};

struct GenStats {
  std::vector<std::uint64_t> produced;
  double max_lag = 0.0;
  std::vector<double> lag_samples;  ///< Every 16th request.
  std::uint64_t n = 0;
};

/// Submit every request when it falls due on the runtime's clock; spin
/// when the next one is close, sleep when it is far.
void generate(psd::rt::RuntimeHandle& h, psd::rt::ClockVariant& clock,
              Schedule& s, psd::Time end, GenStats& g) {
  while (s.due() < end) {
    const psd::Time now = clock.now();
    if (now < s.due()) {
      const double ahead = s.due() - now;
      if (ahead > 3e-4) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead - 2e-4));
      }
      continue;
    }
    do {
      const psd::Request req = s.next();
      const double lag = now - req.arrival;
      g.max_lag = std::max(g.max_lag, lag);
      if ((g.n++ & 15) == 0) g.lag_samples.push_back(lag);
      ++g.produced[req.cls];
      h.submit(req);  // a full ring is counted by the shard
    } while (s.due() <= now && s.due() < end);
  }
}

/// One threaded run, from construction to report.
struct Phase {
  std::unique_ptr<psd::rt::Runtime> rt;
  std::unique_ptr<psd::rt::RuntimeHandle> handle;
  std::unique_ptr<Schedule> sched;
};

Phase build(const psd::rt::RtConfig& cfg, std::uint64_t sched_seed) {
  Phase p;
  p.sched = std::make_unique<Schedule>(cfg, sched_seed);
  p.rt = std::make_unique<psd::rt::Runtime>(cfg, psd::rt::SteadyClock{},
                                            psd::rt::EmbeddedTag{});
  p.handle = std::make_unique<psd::rt::RuntimeHandle>(*p.rt);
  return p;
}

struct PhaseResult {
  psd::rt::RtReport report;
  std::vector<ClassFlow> flows;
  GenStats gen;
  psd::obs::Log2Hist ingress;  ///< Due -> pop, all shards and classes.
  std::vector<double> slowdown_q;  ///< p50, p99 of pooled model slowdowns.
  std::uint64_t slowdown_n = 0;
  std::uint64_t popped = 0;
  double goodput_share = 0.0;
  std::uint64_t produced = 0;
  std::uint64_t failed = 0;  ///< Drops + unfinished + conservation residual.
  std::string conservation;
};

PhaseResult run_threaded(Phase& p) {
  const psd::rt::RtConfig& cfg = p.rt->config();
  const std::size_t n = cfg.num_classes();
  PhaseResult out;
  out.gen.produced.assign(n, 0);
  psd::rt::ClockVariant& clock = p.rt->clock();
  p.sched->begin(clock.now() + 2e-3);
  std::thread gen([&] {
    generate(*p.handle, clock, *p.sched, cfg.duration, out.gen);
  });
  try {
    out.report = p.rt->run();
  } catch (...) {
    gen.join();  // the generator stops at cfg.duration on its own
    throw;
  }
  gen.join();

  out.flows.assign(n, ClassFlow{});
  psd::LogHistogram slowdown = p.rt->shard(0).slowdown_hists()[0];
  bool first = true;
  for (std::size_t i = 0; i < p.rt->num_shards(); ++i) {
    psd::rt::Shard& sh = p.rt->shard(i);
    const psd::rt::ShardTelemetry tel = sh.telemetry();
    const psd::rt::ShardSnapshot snap = sh.snapshot();
    for (std::size_t c = 0; c < n; ++c) {
      out.flows[c].completed += tel.completions[c];
      out.flows[c].outstanding += snap.outstanding[c];
      out.flows[c].dropped += sh.dropped(static_cast<psd::ClassId>(c));
      out.flows[c].shed += snap.sheds_cls[c];
      out.popped += tel.accepted[c];
      out.ingress.merge(tel.ingress_wait[c]);
      if (!first) slowdown.merge(sh.slowdown_hists()[c]);
      first = false;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    out.flows[c].produced = out.gen.produced[c];
    out.produced += out.gen.produced[c];
  }
  const std::uint64_t residual =
      conservation_violations(out.flows, &out.conservation);
  out.failed = out.report.dropped + out.report.outstanding + residual;
  out.slowdown_n = slowdown.count();
  out.slowdown_q = {slowdown.quantile(0.5), slowdown.quantile(0.99)};
  // Completed work per unit of capacity over the measured interval: a
  // mean request occupies a shard for mean_service_seconds.
  out.goodput_share = static_cast<double>(out.report.completed_total) *
                      cfg.mean_service_seconds /
                      ((cfg.duration - cfg.warmup) *
                       static_cast<double>(cfg.shards));
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool rung_passes(const PhaseResult& r) {
  return static_cast<double>(r.report.dropped) <=
             kMaxDropShare * static_cast<double>(r.produced) &&
         r.report.outstanding == 0 &&
         r.ingress.quantile(0.99) <= kMaxIngressP99 &&
         quantile(r.gen.lag_samples, 0.99) <= kMaxGenLagP99;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One scheduled arrival of a replay, drawn before the timed drive.
struct Arrival {
  psd::Time t;
  double size;
  psd::ClassId cls;
};

std::vector<Arrival> draw_schedule(const psd::rt::RtConfig& cfg,
                                   std::uint64_t seed) {
  Schedule sched(cfg, seed);
  sched.begin(0.0);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(total_rate(cfg) * cfg.duration * 1.01));
  while (sched.due() < cfg.duration) {
    const psd::Request req = sched.next();
    out.push_back({req.arrival, req.size, req.cls});
  }
  return out;
}

struct Replay {
  psd::rt::RtReport report;
  double setup = 0.0;  ///< Runtime construction, seconds.
  double wall = 0.0;   ///< The drive, seconds.
  std::uint64_t submits = 0;
  std::uint64_t popped = 0;
  std::uint64_t ticks = 0;
};

// Span names of a traced replay.
enum : std::uint32_t { kSubmit, kDrain, kTick, kSnapshot, kSpanNames };

/// A pre-drawn schedule on one thread under a ManualClock: every `step`
/// seconds submit what fell due, drain each shard, tick the controller;
/// then drain the backlog.  With a log, each call of each step is a span.
Replay replay(const psd::rt::RtConfig& cfg, const std::vector<Arrival>& arr,
              double step, SpanLog* log, WindowPool* windows = nullptr) {
  const std::int64_t t_setup = now_ns();
  psd::rt::Runtime rt(cfg, psd::rt::ManualClock{}, psd::rt::EmbeddedTag{});
  psd::rt::RuntimeHandle h(rt);
  Replay out;
  out.setup = seconds_since(t_setup);
  psd::Time next_tick = cfg.controller_period;
  auto span = [&](std::uint32_t name) { return log ? log->open(name) : -1; };
  auto close = [&](std::int32_t s) {
    if (log) log->close(s);
  };
  std::size_t next = 0;
  const std::int64_t t0 = now_ns();
  const psd::Time drain_limit = cfg.duration + 1.0;
  for (std::uint64_t k = 1;; ++k) {
    const psd::Time t = std::min(static_cast<double>(k) * step, drain_limit);
    rt.clock().manual()->advance_to(t);
    std::int32_t s = span(kSubmit);
    for (; next < arr.size() && arr[next].t <= t; ++next) {
      psd::Request req;
      req.id = next;
      req.cls = arr[next].cls;
      req.arrival = arr[next].t;
      req.size = arr[next].size;
      h.submit(req);
      ++out.submits;
    }
    close(s);
    for (std::size_t i = 0; i < rt.num_shards(); ++i) {
      s = span(kDrain);
      out.popped += rt.shard(i).drain(t);
      close(s);
    }
    while (next_tick <= t) {
      s = span(kTick);
      rt.controller_mut().tick(next_tick);
      close(s);
      s = span(kSnapshot);
      const psd::rt::ShardSnapshot snap = rt.shard(0).snapshot();
      close(s);
      if (snap.num_classes == 0) throw std::runtime_error("empty snapshot");
      next_tick += cfg.controller_period;
      ++out.ticks;
    }
    if (t >= drain_limit ||
        (next == arr.size() && rt.total_outstanding() == 0)) {
      break;
    }
  }
  rt.finish();
  out.wall = seconds_since(t0);
  out.report = rt.report();
  if (windows != nullptr) windows->add({&rt});
  return out;
}

}  // namespace

std::string rt_report_digest(const psd::rt::RtReport& r) {
  std::ostringstream o;
  o << std::hex << r.produced << '/' << r.dropped << '/' << r.shed_total << '/'
    << r.completed_total << '/' << r.completed_all << '/' << r.outstanding
    << '/' << r.controller_ticks << '/' << r.reallocations << '/' << r.drains
    << '/' << bits(r.max_window_ratio_error) << '/' << bits(r.max_ratio_error)
    << '/' << bits(r.goodput) << '/' << bits(r.survivor_window_ratio_error);
  for (const auto& c : r.cls) {
    o << '|' << c.completed << '/' << c.dropped << '/' << c.shed << '/'
      << bits(c.mean_slowdown) << '/' << bits(c.slowdown_p50) << '/'
      << bits(c.slowdown_p99) << '/' << bits(c.window_ratio_p50) << '/'
      << bits(c.mean_ingress_wait) << '/' << bits(c.shed_rate);
  }
  return o.str();
}

constexpr double kReplayStep = 20e-6;  // ManualClock step of a replay
constexpr double kReplayModelSeconds = 0.3;  // one replay segment

/// One replay segment: schedule `index` of the workload seed, on a CPU
/// chosen by `index`.
Replay replay_segment(std::uint64_t rt_seed, std::uint64_t sched_seed,
                      std::size_t index, WindowPool* windows) {
  const psd::rt::RtConfig cfg = make_config(
      kRefMeanService, 0.0, kReplayModelSeconds, derive_seed(rt_seed, 100 + index));
  const std::vector<Arrival> arrivals =
      draw_schedule(cfg, derive_seed(sched_seed, 100 + index));
  const CpuPin pin(index);
  return replay(cfg, arrivals, kReplayStep, nullptr, windows);
}

void run_serve(const Args& a, Report& r) {
  const double ref_s = 0.2 * a.seconds;
  const double replay_s = 0.4 * a.seconds;
  const double rung_s = std::max(0.3, 0.01 * a.seconds);
  const std::uint64_t sched_seed = derive_seed(a.seed, 1);
  const std::uint64_t rt_seed = derive_seed(a.seed, 2);

  Phase ref =
      build(make_config(kRefMeanService, 0.5, ref_s, rt_seed), sched_seed);
  const double ref_rate = total_rate(ref.rt->config());
  const PhaseResult base = run_threaded(ref);
  ref = Phase{};

  // The runtime's CPU cost and differentiation at the reference rate, free
  // of thread-scheduling noise: independent schedules replayed on one
  // thread under a ManualClock, so each one's work and report are fixed by
  // its seed.  Many short segments over a long span sample the vCPUs'
  // changing speeds evenly.  Segment 0, replayed twice more, must give
  // bitwise-identical reports.
  std::vector<double> replay_ns;
  std::vector<double> setup;  // runtime construction of every segment
  WindowPool replay_windows;
  std::uint64_t replayed = 0;
  const std::int64_t replay_start = now_ns();
  for (std::size_t i = 0; i < 8 || seconds_since(replay_start) < replay_s; ++i) {
    const Replay rep = replay_segment(rt_seed, sched_seed, i, &replay_windows);
    replay_ns.push_back(rep.wall * 1e9 / static_cast<double>(rep.submits));
    setup.push_back(rep.setup);
    replayed += rep.submits;
  }
  const bool replays_agree =
      rt_report_digest(replay_segment(rt_seed, sched_seed, 0, nullptr).report) ==
      rt_report_digest(replay_segment(rt_seed, sched_seed, 0, nullptr).report);
  // Memory of the serving phases; the ladder below deliberately overloads.
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);

  std::uint64_t attempt = 0;
  // Per attempt: rate, pass, drop share, ingress p99, generator lag p99.
  std::ostringstream rungs;
  rungs << '[';
  const KneeResult knee = knee_search(
      ref_rate, kLadderFactor, kLadderSteps, kBisections, [&](double rate) {
        for (int i = 0; i < kRungAttempts; ++i) {
          ++attempt;
          Phase p = build(make_config(kRefMeanService * ref_rate / rate, 0.1,
                                      rung_s, derive_seed(rt_seed, attempt)),
                          derive_seed(sched_seed, attempt));
          const PhaseResult res = run_threaded(p);
          const bool pass = rung_passes(res);
          rungs << (attempt > 1 ? ",[" : "[") << rate << ','
                << (pass ? "true" : "false") << ','
                << double(res.report.dropped) / double(res.produced) << ','
                << res.ingress.quantile(0.99) << ','
                << quantile(res.gen.lag_samples, 0.99) << ']';
          if (pass) return true;
        }
        return false;
      });

  const double produced = static_cast<double>(base.produced);
  r.attempted = base.produced;
  r.failed = base.failed;
  r.check("serve.conservation", base.conservation.empty(), base.conservation);
  r.check("serve.reference_drained", base.report.outstanding == 0);
  r.check("serve.replays_bitwise_identical", replays_agree);
  r.check("serve.knee_found", knee.rate > 0.0);

  const SupportedPercentile wp =
      highest_supported_percentile(base.ingress.count);
  r.metric("setup_s", median(setup), "s", setup.size());
  r.note("ns_per_request_segments", json_array(replay_ns));
  r.metric("ns_per_request", median(replay_ns), "ns", replayed);
  r.metric("success_share", 1.0 - base.failed / produced, "ratio",
           base.produced);
  r.metric("goodput_share", base.goodput_share, "ratio",
           base.report.completed_total);
  // Windowed ratios of every replay (shards merged), pooled.
  const std::vector<double> delta =
      make_config(kRefMeanService, 0.0, kReplayModelSeconds, rt_seed).delta;
  std::vector<double> p50(delta.size());
  for (std::size_t c = 1; c < delta.size(); ++c) {
    p50[c] = replay_windows.ratio_p50(c);
  }
  const double ratio_err = worst_ratio_err(p50, delta);
  r.metric("ratio_fidelity", ratio_fidelity(ratio_err), "ratio", replayed);
  r.metric("ratio_err", ratio_err, "ratio", replayed);
  r.metric("threaded_ratio_err", base.report.max_window_ratio_error, "ratio",
           base.report.completed_total);
  r.metric("serve_max_rps", knee.rate, "req/s", attempt);
  r.metric("ingress_wait_p50_us", base.ingress.quantile(0.5) * 1e6, "us",
           base.ingress.count);
  r.metric("ingress_wait_p99_us", base.ingress.quantile(0.99) * 1e6, "us",
           base.ingress.count);
  r.metric("slowdown_p50", base.slowdown_q[0], "ratio", base.slowdown_n);
  r.metric("slowdown_p99", base.slowdown_q[1], "ratio", base.slowdown_n);
  r.metric("failed_share", base.failed / produced, "ratio", base.produced);
  r.note("serve_reference_rps", std::to_string(ref_rate));
  r.note("serve_gen_max_lag_us", std::to_string(base.gen.max_lag * 1e6));
  // The highest percentile with at least ten samples beyond it.
  r.metric("ingress_wait_tail_us", base.ingress.quantile(wp.percent / 100.0) * 1e6,
           "us", base.ingress.count);
  r.note("ingress_wait_tail_percentile", std::to_string(wp.percent));
  rungs << ']';
  r.note("serve_ladder", rungs.str());
  // false: no rung failed, so serve_max_rps is only a lower bound.
  r.note("serve_knee_bracketed", knee.bracketed ? "true" : "false");
}

void trace_serve(const Args& a, double seconds, bool primary, Report& r) {
  const std::uint64_t sched_seed = derive_seed(a.seed, 1);
  const std::uint64_t rt_seed = derive_seed(a.seed, 2);

  // Threaded reference run: generator lag, drops and drain batching.
  const double threaded_s = std::max(0.3, 0.3 * seconds);
  Phase ref = build(make_config(kRefMeanService, 0.2, threaded_s, rt_seed),
                    sched_seed);
  const PhaseResult base = run_threaded(ref);
  ref = Phase{};

  // ManualClock replays of one schedule: untraced, traced, and traced with
  // telemetry off.
  const double model_s = std::clamp(0.1 * seconds, 0.1, 3.0);
  const psd::rt::RtConfig on =
      make_config(kRefMeanService, 0.0, model_s, rt_seed);
  psd::rt::RtConfig off = on;
  off.obs.enabled = false;
  const std::vector<Arrival> arrivals = draw_schedule(on, sched_seed);
  const Replay plain = replay(on, arrivals, kReplayStep, nullptr);
  SpanLog log(kSpanNames);
  const Replay traced = replay(on, arrivals, kReplayStep, &log);
  SpanLog log_off(kSpanNames);
  const Replay traced_off = replay(off, arrivals, kReplayStep, &log_off);
  const auto self = log.self_ns();
  const auto self_off = log_off.self_ns();

  r.check("serve.replay_report_unperturbed_by_tracing",
          rt_report_digest(plain.report) == rt_report_digest(traced.report));
  r.check("serve.conservation", base.conservation.empty(), base.conservation);

  const double drain_on = self[kDrain] / double(traced.popped);
  const double drain_off = self_off[kDrain] / double(traced_off.popped);
  r.metric("rt.submit_ns", self[kSubmit] / double(traced.submits), "ns",
           traced.submits);
  r.metric("rt.drain_ns_per_request", drain_on, "ns", traced.popped);
  r.metric("rt.drain_batch",
           double(base.popped) /
               double(std::max<std::uint64_t>(1, base.report.drains)),
           "count", base.report.drains);
  r.metric("rt.controller_tick_us", self[kTick] / double(traced.ticks) * 1e-3,
           "us", traced.ticks);
  r.metric("rt.snapshot_ns", self[kSnapshot] / double(traced.ticks), "ns",
           traced.ticks);
  r.metric("rt.drop_share",
           double(base.report.dropped) / double(base.produced), "ratio",
           base.produced);
  r.metric("obs.telemetry_drain_overhead", drain_on / drain_off - 1.0,
           "ratio", traced.popped);
  r.metric("bench.gen_lag_p99_us", quantile(base.gen.lag_samples, 0.99) * 1e6,
           "us", base.gen.lag_samples.size());
  if (primary) {
    r.attempted = base.produced;
    r.failed = base.failed;
    r.metric("bench.trace_overhead", traced.wall / plain.wall - 1.0, "ratio",
             traced.submits);
    double covered = 0.0;
    for (const double v : self) covered += v;
    r.metric("bench.unattributed_share", 1.0 - covered * 1e-9 / traced.wall,
             "ratio", traced.submits);
  }
}

}  // namespace psdbench
