// Workload `cluster_overload`: a rt::ClusterRuntime of 3 nodes x 1 shard
// behind JSQ(2), delta = (1, 2, 4), load 1.5 per shard, delta-aware:0.8
// admission and the adaptive allocator, with node 0 killed at mid-run.  A
// ManualClock steps it by 0.2 ms on one thread, so every quality figure is
// exact for its seed and the CPU cost is single-threaded.  It drives the
// router, the global controller, the admission shed path and failover,
// which the other workloads leave idle; most arrivals are shed at pop.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "admission/admission.hpp"
#include "bench.hpp"
#include "cluster/cluster_runtime.hpp"
#include "cluster/router.hpp"
#include "dist/sampler.hpp"

namespace psdbench {
namespace {

constexpr double kStep = 2e-4;
constexpr double kWarmup = 0.5;
constexpr double kDuration = 4.0;
constexpr double kKillAt = 2.0;
constexpr std::size_t kNodes = 3;
// After the load stops, a class the controller has starved pays off its
// token deficit slowly: its last requests can take over 100 model seconds
// to finish.  The drain runs until every admitted request on an alive node
// has completed; only requests still waiting after kDrainLimit count as
// failed.
constexpr double kDrainLimit = 600.0;
constexpr double kDrainStep = 0.01;

// Span names of the traced run.
enum : std::uint32_t { kStepSpan, kRoute, kAdmit, kGlobalTick, kSpanNames };

psd::rt::ClusterRtConfig make_config(std::uint64_t seed) {
  psd::rt::ClusterRtConfig c;
  c.node.delta = {1.0, 2.0, 4.0};
  c.node.load = 1.5;
  c.node.shards = 1;
  c.node.size_dist = psd::DistSpec::parse("bexp:1,0.1,10");
  c.node.admission = psd::AdmissionSpec::parse("delta-aware:0.8");
  c.node.allocator = psd::AllocatorKind::kAdaptivePsd;
  c.node.warmup = kWarmup;
  c.node.duration = kDuration;
  c.node.seed = seed;
  c.node.obs.enabled = true;
  c.nodes = kNodes;
  c.assignment = psd::AssignmentSpec(psd::AssignmentPolicy::kJsq, 2);
  c.kill_at = kKillAt;
  c.kill_node = 0;
  return c;
}

/// One replication's outcome, kept small: a run holds hundreds.
struct Rep {
  double wall = 0.0;  ///< Of the ManualClock drive.
  std::uint64_t steps = 0;
  std::uint64_t produced = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost_to_kill = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t failed = 0;  ///< Drops + unfinished + conservation residual.
  std::string conservation;  ///< Empty when every request is accounted for.
  double drain_s = 0.0;  ///< Model seconds from the end of load to empty.
  double goodput_share = 0.0;
  double settle_s = 0.0;
  double report_ratio_err = 0.0;  ///< The cluster report's own statistic.
  std::vector<double> ratio_p50;  ///< Per class, cluster-wide windows.
  double slowdown_p50 = 0.0;
  double slowdown_p99 = 0.0;
  std::string digest;  ///< The whole report, bit for bit.
};

std::string cluster_digest(const psd::rt::ClusterReport& r) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::ostringstream o;
  o << std::hex << r.produced << '/' << r.dropped << '/' << r.shed_total << '/'
    << r.completed_total << '/' << r.outstanding << '/' << r.lost_to_kill
    << '/' << r.rebalances << '/' << r.global_ticks << '/'
    << bits(r.max_window_ratio_error) << '/' << bits(r.cross_node_ratio_error)
    << '/' << bits(r.max_settle_seconds);
  for (const auto& c : r.cls) {
    o << '|' << c.completed << '/' << c.shed << '/' << bits(c.mean_slowdown)
      << '/' << bits(c.window_ratio_p50) << '/' << bits(c.settle_seconds);
  }
  for (const auto& n : r.node) {
    o << '#' << n.dispatched << '/' << rt_report_digest(n.rt);
  }
  return o.str();
}

/// Drive one replication to completion.  The wall time and, with a log,
/// the spans cover the loaded phase, every step_to call up to the end of
/// load; the drain after it is untimed.
Rep drive(psd::rt::ClusterRuntime& cl, SpanLog* log) {
  Rep out;
  const auto& cfg = cl.config();
  const std::int64_t t0 = now_ns();
  for (std::uint64_t k = 1;; ++k) {
    const psd::Time t = std::min(static_cast<double>(k) * kStep,
                                 cfg.node.duration);
    const std::int32_t s = log ? log->open(kStepSpan) : -1;
    cl.step_to(t);
    if (log) log->close(s);
    ++out.steps;
    if (t >= cfg.node.duration) break;
  }
  out.wall = seconds_since(t0);
  cl.quiesce(kDrainLimit, kDrainStep);
  out.drain_s = cl.clock().now() - cfg.node.duration;
  cl.finish();
  const psd::rt::ClusterReport report = cl.report();
  out.digest = cluster_digest(report);
  out.produced = report.produced;
  out.shed = report.shed_total;
  out.lost_to_kill = report.lost_to_kill;
  out.unfinished = report.outstanding;
  out.settle_s = report.max_settle_seconds;
  out.report_ratio_err = report.max_window_ratio_error;

  // Per-class accounting from each node's shard counters, checked against
  // the generators' production count.
  const std::size_t n = cfg.num_classes();
  std::vector<ClassFlow> flows(n);
  std::uint64_t arrived = 0;
  std::vector<psd::rt::Runtime*> nodes;
  psd::LogHistogram slowdown =
      cl.node(0).runtime().shard(0).slowdown_hists()[0];
  bool first = true;
  for (std::size_t i = 0; i < cl.nodes(); ++i) {
    const bool alive = cl.router().alive(i);
    psd::rt::Runtime& node = cl.node(i).runtime();
    nodes.push_back(&node);
    for (std::size_t s = 0; s < node.num_shards(); ++s) {
      psd::rt::Shard& sh = node.shard(s);
      const psd::rt::ShardTelemetry tel = sh.telemetry();
      const psd::rt::ShardSnapshot snap = sh.snapshot();
      for (std::size_t c = 0; c < n; ++c) {
        ClassFlow& f = flows[c];
        const std::uint64_t drops = sh.dropped(static_cast<psd::ClassId>(c));
        f.produced += tel.accepted[c] + snap.sheds_cls[c] + drops;
        f.completed += tel.completions[c];
        f.dropped += drops;
        f.shed += snap.sheds_cls[c];
        (alive ? f.outstanding : f.lost_to_kill) += snap.outstanding[c];
        arrived += tel.accepted[c] + snap.sheds_cls[c] + drops;
        if (!first) slowdown.merge(sh.slowdown_hists()[c]);
        first = false;
      }
    }
  }
  const std::uint64_t residual = conservation_violations(flows, &out.conservation);
  if (arrived != report.produced && out.conservation.empty()) {
    out.conservation = "produced " + std::to_string(report.produced) +
                       " but shards saw " + std::to_string(arrived);
  }
  const std::uint64_t gap = arrived > report.produced
                                ? arrived - report.produced
                                : report.produced - arrived;
  out.failed = report.dropped + report.outstanding + residual + gap;
  out.slowdown_p50 = slowdown.quantile(0.5);
  out.slowdown_p99 = slowdown.quantile(0.99);

  WindowPool windows;
  windows.add(nodes);
  out.ratio_p50.assign(n, 0.0);
  for (std::size_t c = 1; c < n; ++c) out.ratio_p50[c] = windows.ratio_p50(c);

  // Post-warmup completions against the capacity of the nodes alive at
  // each instant; a node serves one mean request per mean_service_seconds.
  const double node_seconds =
      static_cast<double>(kNodes) * (kKillAt - kWarmup) +
      static_cast<double>(kNodes - 1) * (kDuration - kKillAt);
  out.goodput_share = static_cast<double>(report.completed_total) *
                      cfg.node.mean_service_seconds /
                      (node_seconds * static_cast<double>(cfg.node.shards));
  return out;
}

std::unique_ptr<psd::rt::ClusterRuntime> make_cluster(std::uint64_t seed) {
  return std::make_unique<psd::rt::ClusterRuntime>(make_config(seed),
                                                   psd::rt::ManualClock{});
}

struct Totals {
  std::vector<Rep> reps;
  double wall = 0.0;
  std::uint64_t produced = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t shed = 0;
  std::uint64_t steps = 0;
  bool conserved = true;
  std::string why;

  void add(Rep rep) {
    wall += rep.wall;
    produced += rep.produced;
    failed += rep.failed;
    lost += rep.lost_to_kill;
    unfinished += rep.unfinished;
    shed += rep.shed;
    steps += rep.steps;
    if (!rep.conservation.empty() && conserved) {
      conserved = false;
      why = rep.conservation;
    }
    rep.digest = std::string();  // compared by the caller; not kept
    reps.push_back(std::move(rep));
  }
  /// Finite values of `f` over replications.
  template <typename F>
  std::vector<double> each(F f) const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      const double x = f(r);
      if (std::isfinite(x)) v.push_back(x);
    }
    return v;
  }
};

std::uint64_t rep_seed(std::uint64_t seed, std::size_t i) {
  return derive_seed(seed, 3000 + i);
}

}  // namespace

void run_cluster_overload(const Args& a, Report& r) {
  // Each replication's cluster construction is one set-up sample.
  std::vector<double> setup;
  Totals t;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < 3 || seconds_since(start) < a.seconds; ++i) {
    const CpuPin pin(i);
    const std::int64_t t0 = now_ns();
    auto cl = make_cluster(rep_seed(a.seed, i));
    setup.push_back(seconds_since(t0));
    t.add(drive(*cl, nullptr));
  }
  const double produced = static_cast<double>(t.produced);
  const std::uint64_t reps = t.reps.size();
  const std::vector<double> rep_ns = t.each([](const Rep& x) {
    return x.wall * 1e9 / static_cast<double>(x.produced);
  });
  // Each replication's cluster-wide windowed ratio, median over them.
  const std::vector<double> delta = make_config(0).node.delta;
  std::vector<double> p50(delta.size());
  for (std::size_t c = 1; c < delta.size(); ++c) {
    p50[c] = median(t.each([c](const Rep& x) { return x.ratio_p50[c]; }));
  }
  const double ratio_err = worst_ratio_err(p50, delta);
  const std::vector<double> settle =
      t.each([](const Rep& x) { return x.settle_s; });

  r.attempted = t.produced;
  r.failed = t.failed;
  r.check("cluster.conservation", t.conserved, t.why);
  r.metric("setup_s", median(setup), "s", setup.size());
  r.metric("ns_per_request", median(rep_ns), "ns", t.produced);
  r.metric("success_share", 1.0 - double(t.failed + t.lost) / produced,
           "ratio", t.produced);
  r.metric("goodput_share",
           median(t.each([](const Rep& x) { return x.goodput_share; })),
           "ratio", reps);
  r.metric("ratio_fidelity", ratio_fidelity(ratio_err), "ratio", reps);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  r.metric("ratio_err", ratio_err, "ratio", reps);
  r.metric("ratio_err_per_replication_p50",
           median(t.each([](const Rep& x) { return x.report_ratio_err; })),
           "ratio", reps);
  r.metric("cluster_ns_per_request", median(rep_ns), "ns", t.produced);
  r.metric("settle_s", median(settle), "s", settle.size());
  r.metric("drain_s", median(t.each([](const Rep& x) { return x.drain_s; })),
           "s", reps);
  r.metric("slowdown_p50",
           median(t.each([](const Rep& x) { return x.slowdown_p50; })),
           "ratio", reps);
  r.metric("slowdown_p99",
           median(t.each([](const Rep& x) { return x.slowdown_p99; })),
           "ratio", reps);
  r.metric("failed_share", double(t.failed + t.lost) / produced, "ratio",
           t.produced);
  r.note("cluster_replications", std::to_string(reps));
  r.note("cluster_lost_to_kill", std::to_string(t.lost));
  r.note("cluster_unfinished", std::to_string(t.unfinished));
  const std::vector<double> drains =
      t.each([](const Rep& x) { return x.drain_s; });
  r.note("cluster_drain_max_s",
         std::to_string(*std::max_element(drains.begin(), drains.end())));
  r.note("ns_per_request_segments", json_array(rep_ns));
}

void trace_cluster_overload(const Args& a, double seconds, bool primary,
                            Report& r) {
  SpanLog log(kSpanNames);

  // Drive replications untraced then traced; the reports must match bit
  // for bit, so timing from outside does not perturb results.
  const double budget = primary ? 0.4 * seconds : 0.5 * seconds;
  Totals plain;
  Totals traced;
  const std::int64_t start = now_ns();
  bool identical = true;
  for (std::size_t i = 0; i < 1 || seconds_since(start) < budget; ++i) {
    std::string plain_digest;
    if (primary) {
      auto cl = make_cluster(rep_seed(a.seed, i));
      Rep rep = drive(*cl, nullptr);
      plain_digest = rep.digest;
      plain.add(std::move(rep));
    }
    auto cl = make_cluster(rep_seed(a.seed, i));
    Rep rep = drive(*cl, &log);
    identical = identical && (!primary || rep.digest == plain_digest);
    traced.add(std::move(rep));
  }
  r.check("cluster.report_unperturbed_by_tracing", identical);
  r.check("cluster.conservation", traced.conserved, traced.why);

  // Layer probes on the workload's configuration.
  const double probe_budget = 0.1 * seconds;
  const auto cfg = make_config(rep_seed(a.seed, 0));
  psd::AssignmentRouter router(cfg.assignment, kNodes,
                               psd::Rng(derive_seed(a.seed, 4000)));
  psd::Rng rng(derive_seed(a.seed, 4001));
  std::vector<double> load(kNodes, 0.0);
  std::size_t sink = 0;
  std::uint64_t routes = 0;
  for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
    const std::int32_t s = log.open(kRoute);
    for (int i = 0; i < 4096; ++i) {
      const std::size_t node = router.route(1.0, load);
      load[node] += 1.0;
      load[i % kNodes] = std::max(0.0, load[i % kNodes] - 1.0);
      sink += node;
    }
    log.close(s);
    routes += 4096;
  }

  const psd::SamplerVariant sizes = psd::make_sampler(cfg.node.size_dist);
  const double capacity = cfg.node.shard_capacity();
  auto gate = psd::make_admission(cfg.node.admission, cfg.node.delta, sizes,
                                  capacity);
  const auto lambdas = cfg.node.lambdas();
  gate->update(lambdas);
  std::uint64_t verdicts = 0;
  std::uint64_t admitted = 0;
  psd::Time now = 0.0;
  for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
    const std::int32_t s = log.open(kAdmit);
    for (int i = 0; i < 4096; ++i) {
      now += 1e-6;
      admitted += gate->admit_request(static_cast<psd::ClassId>(i % 3), now,
                                      sizes.sample(rng));
    }
    log.close(s);
    verdicts += 4096;
  }

  // Global controller ticks on a cluster driven to just before the kill.
  std::uint64_t ticks = 0;
  {
    auto cl = make_cluster(rep_seed(a.seed, 0));
    for (psd::Time t = kStep; t < kKillAt - kStep; t += kStep) cl->step_to(t);
    std::vector<psd::rt::RuntimeHandle*> handles;
    for (std::size_t i = 0; i < cl->nodes(); ++i) {
      handles.push_back(&cl->node(i));
    }
    psd::rt::GlobalController::Config gc;
    gc.delta = cfg.node.delta;
    gc.node_capacity = capacity * static_cast<double>(cfg.node.shards);
    gc.mean_size = sizes.mean();
    gc.allocator = cfg.node.allocator;
    gc.adaptive = cfg.node.adaptive;
    psd::rt::GlobalController global(gc, handles, &cl->router());
    psd::Time t = cl->clock().now();
    for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
      t += cfg.rebalance_period;
      const std::int32_t s = log.open(kGlobalTick);
      global.tick(t);
      log.close(s);
      ++ticks;
    }
  }

  const auto self = log.self_ns();
  const double produced = static_cast<double>(traced.produced);
  r.metric("cluster.step_us", self[kStepSpan] / double(traced.steps) * 1e-3,
           "us", traced.steps);
  r.metric("cluster.route_ns", self[kRoute] / double(routes), "ns", routes);
  r.metric("cluster.global_tick_us", self[kGlobalTick] / double(ticks) * 1e-3,
           "us", ticks);
  r.metric("cluster.lost_to_kill",
           double(traced.lost) / double(traced.reps.size()), "count",
           traced.reps.size());
  r.metric("admission.admit_ns", self[kAdmit] / double(verdicts), "ns",
           verdicts);
  r.metric("admission.shed_share", double(traced.shed) / produced, "ratio",
           traced.produced);
  if (sink == 0 && admitted == 0) r.note("sink", "0");
  if (primary) {
    r.attempted = traced.produced;
    r.failed = traced.failed;
    r.metric("bench.trace_overhead",
             (traced.wall / produced) / (plain.wall / double(plain.produced)) -
                 1.0,
             "ratio", traced.reps.size());
    // What the step spans leave uncovered is the benchmark's own loop
    // between steps.
    r.metric("bench.unattributed_share",
             1.0 - self[kStepSpan] * 1e-9 / traced.wall,
             "ratio", traced.reps.size());
  }
}

}  // namespace psdbench
