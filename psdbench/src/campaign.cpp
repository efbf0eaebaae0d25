// Workload `campaign`: repeated run_campaign grids over load x delta x
// backend, BP(1.5, 0.1, 100) sizes, 8 replications per point on a pool of
// two threads in lockstep groups of 8.  Only the simulation stack works;
// rt, cluster and obs code is never called.  The dedicated points run the
// lockstep kernel, the sfq points fall back to per-task runs, and the
// 8-class points load the per-class loops and the allocator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/psd_rate_allocator.hpp"
#include "dist/sampler.hpp"
#include "experiment/lockstep.hpp"
#include "experiment/scenario_build.hpp"
#include "sim/simulator.hpp"
#include "sweep/campaign.hpp"
#include "sweep/grid.hpp"
#include "workload/arrival.hpp"

namespace psdbench {
namespace {

constexpr std::size_t kRuns = 8;
constexpr std::size_t kLanes = 8;
constexpr std::size_t kPoolThreads = 2;

psd::GridSpec make_grid() {
  psd::GridSpec g;
  g.base.size_dist = psd::DistSpec::bounded_pareto(1.5, 0.1, 100.0);
  g.loads = {0.5, 0.9};
  g.deltas = {{1.0, 2.0}, {1.0, 2.0, 4.0, 8.0}};
  g.backends = {psd::BackendKind::kDedicated, psd::BackendKind::kSfq};
  return g;
}

psd::CampaignOptions make_options(std::uint64_t master_seed) {
  psd::CampaignOptions o;
  o.runs = kRuns;
  o.master_seed = master_seed;
  o.threads = kPoolThreads;
  o.resume = false;
  o.replication_mode = psd::ReplicationMode::kLockstep;
  o.lockstep_lanes = kLanes;
  return o;
}

/// Worst class |windowed-median ratio / delta target - 1| of one point.
double point_ratio_error(const psd::ScenarioConfig& cfg,
                         const psd::ReplicatedResult& res) {
  std::vector<double> p50(cfg.delta.size());
  for (std::size_t j = 1; j < cfg.delta.size(); ++j) {
    p50[j] = res.ratio[j - 1].p50;
  }
  return worst_ratio_err(p50, cfg.delta);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Bitwise comparison of the fields a campaign record is built from.
bool same_run(const psd::RunResult& x, const psd::RunResult& y) {
  auto same = [](double p, double q) {
    return std::memcmp(&p, &q, sizeof p) == 0;
  };
  if (x.cls.size() != y.cls.size() || x.submitted != y.submitted ||
      x.reallocations != y.reallocations ||
      !same(x.system_slowdown, y.system_slowdown)) {
    return false;
  }
  for (std::size_t c = 0; c < x.cls.size(); ++c) {
    const auto& a = x.cls[c];
    const auto& b = y.cls[c];
    if (a.completed != b.completed || !same(a.mean_slowdown, b.mean_slowdown) ||
        !same(a.mean_delay, b.mean_delay) ||
        a.windows.size() != b.windows.size()) {
      return false;
    }
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
      if (a.windows[w].count != b.windows[w].count ||
          !same(a.windows[w].mean, b.windows[w].mean)) {
        return false;
      }
    }
  }
  return true;
}

/// The 8-class dedicated point at load 0.9, seeded from the workload seed.
psd::ScenarioConfig probe_point(std::uint64_t seed) {
  psd::ScenarioConfig cfg = make_grid().base;
  cfg.load = 0.9;
  cfg.delta = {1.0, 2.0, 4.0, 8.0};
  cfg.seed = derive_seed(seed, 7000);
  return cfg;
}

struct RoundStats {
  std::size_t rounds = 0;
  std::size_t points = 0;
  std::size_t bad_points = 0;
  std::uint64_t requests = 0;
  double wall = 0.0;
  double busy = 0.0;        ///< Pool busy seconds.
  double worker_wall = 0.0;  ///< Wall x pool threads.
  double goodput_sum = 0.0;
  std::vector<double> round_ns;  ///< Wall ns per simulated request, by round.
  std::vector<double> setup;     ///< Set-up seconds, by round.
  std::uint64_t round0_digest = 0;
  /// Per point (expansion order), the error of every round.
  std::vector<std::vector<double>> errors;
};

std::uint64_t record_digest(const psd::CampaignResult& res) {
  std::uint64_t h = fnv1a("");
  for (const auto& p : res.points) h = fnv1a(p.record, h);
  return h;
}

/// Run grids until `budget` seconds pass (at least two rounds), optionally
/// wrapping each run_campaign call in a span.  Every round sets up afresh
/// (expands the grid, starts the pool), so set-up is sampled per round.
RoundStats run_rounds(std::uint64_t seed, double budget, SpanLog* log,
                      std::uint32_t span_name) {
  const psd::GridSpec grid = make_grid();
  RoundStats st;
  const std::int64_t start = now_ns();
  while (st.rounds < 2 || seconds_since(start) < budget) {
    const std::int64_t t0 = now_ns();
    if (psd::expand_grid(grid).size() != 8) {
      throw std::runtime_error("grid must hold 8 points");
    }
    psd::WorkStealingPool pool(kPoolThreads);
    st.setup.push_back(seconds_since(t0));
    const std::int32_t span = log ? log->open(span_name) : -1;
    const psd::CampaignResult res = psd::run_campaign(
        grid, make_options(derive_seed(seed, st.rounds)), &pool);
    if (log) log->close(span);
    if (st.rounds == 0) {
      st.round0_digest = record_digest(res);
      st.errors.resize(res.points.size());
    }
    std::uint64_t round_requests = 0;
    st.wall += res.wall_seconds;
    st.busy += res.pool_busy_seconds;
    st.worker_wall += res.wall_seconds * static_cast<double>(res.threads);
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      const auto& po = res.points[i];
      const double err = point_ratio_error(po.point.cfg, po.result);
      round_requests += po.result.completed_total;
      // Completed work per unit of capacity over the measured interval:
      // one paper tu is the service time of a mean request at capacity.
      st.goodput_sum += static_cast<double>(po.result.completed_total) /
                        (static_cast<double>(kRuns) * po.point.cfg.measure_tu);
      if (!std::isfinite(err) || po.result.completed_total == 0) {
        ++st.bad_points;
      } else {
        st.errors[i].push_back(err);
      }
    }
    st.requests += round_requests;
    st.round_ns.push_back(res.wall_seconds * 1e9 /
                          static_cast<double>(round_requests));
    st.points += res.points.size();
    ++st.rounds;
  }
  return st;
}

/// Output checks shared by both run modes: the first round's records
/// repeat byte for byte, and lockstep lanes equal per-task replications.
void check_outputs(std::uint64_t seed, const RoundStats& st, Report& r) {
  const psd::CampaignResult again = psd::run_campaign(
      make_grid(), make_options(derive_seed(seed, 0)));
  const std::uint64_t d = record_digest(again);
  r.check("campaign.jsonl_digest_repeats", d == st.round0_digest,
          "round 0 digest " + hex64(st.round0_digest) + " rerun " + hex64(d));
  r.note("campaign_round0_digest", hex64(st.round0_digest));

  const psd::ScenarioConfig cfg = probe_point(seed);
  const auto lanes = psd::run_scenario_lanes(cfg, 0, kLanes);
  bool equal = lanes.size() == kLanes;
  for (std::size_t i = 0; equal && i < kLanes; ++i) {
    equal = same_run(lanes[i], psd::run_scenario(cfg, i));
  }
  r.check("campaign.lockstep_equals_per_task", equal);
  r.check("campaign.points_valid", st.bad_points == 0,
          std::to_string(st.bad_points) + " points without finite ratios");
}

}  // namespace

void run_campaign(const Args& a, Report& r) {
  const RoundStats st = run_rounds(a.seed, a.seconds, nullptr, 0);
  check_outputs(a.seed, st, r);

  // Each point's error is its median over rounds; the workload's is the
  // mean over points, so every point's differentiation counts.
  double err_sum = 0.0;
  for (const auto& e : st.errors) err_sum += median(e);
  const double ratio_err = err_sum / static_cast<double>(st.errors.size());
  const double ns_per_req = median(st.round_ns);
  const double points = static_cast<double>(st.points);

  r.attempted = st.points;
  r.failed = st.bad_points;
  r.metric("setup_s", median(st.setup), "s", st.setup.size());
  r.metric("ns_per_request", ns_per_req, "ns", st.requests);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  r.metric("success_share", 1.0 - st.bad_points / points, "ratio", st.points);
  r.metric("goodput_share", st.goodput_sum / points, "ratio", st.points);
  r.metric("ratio_fidelity", ratio_fidelity(ratio_err), "ratio", st.points);
  r.metric("ratio_err", ratio_err, "ratio", st.points);
  r.metric("sim_ns_per_request", ns_per_req, "ns", st.requests);
  r.metric("campaign_points_per_s", points / st.wall, "1/s", st.points);
  r.metric("failed_share", st.bad_points / points, "ratio", st.points);
  r.note("campaign_rounds", std::to_string(st.rounds));
  r.note("ns_per_request_segments", json_array(st.round_ns));
}

void trace_campaign(const Args& a, double seconds, bool primary, Report& r) {
  // Span names: one per layer call the traced run times.
  enum : std::uint32_t { kRound, kDraw, kGap, kEvent, kServer, kAlloc2,
                         kAlloc8, kPerTask, kLockstep, kSpanNames };
  SpanLog log(kSpanNames);

  // sweep: one grid expansion, averaged over repeats; pool occupancy over
  // the traced rounds below.
  const std::int64_t t_expand = now_ns();
  constexpr int kExpands = 200;
  for (int i = 0; i < kExpands; ++i) {
    if (psd::expand_grid(make_grid()).size() != 8) {
      throw std::runtime_error("grid must hold 8 points");
    }
  }
  const double expand_ms = seconds_since(t_expand) * 1e3 / kExpands;
  // Untraced and traced passes over the same rounds alternate, so drift in
  // machine speed cancels out of the trace-overhead figure.
  const double loop_budget = 0.7 * seconds;
  RoundStats traced;
  double plain_wall = 0.0;
  double traced_wall = 0.0;
  const std::int64_t t_traced = now_ns();
  for (int pass = 0; pass == 0 || seconds_since(t_traced) < loop_budget;
       ++pass) {
    if (primary) {
      const std::int64_t t0 = now_ns();
      run_rounds(a.seed, 0.0, nullptr, 0);
      plain_wall += seconds_since(t0);
    }
    const std::int64_t t0 = now_ns();
    const RoundStats st = run_rounds(a.seed, 0.0, &log, kRound);
    traced_wall += seconds_since(t0);
    traced.rounds += st.rounds;
    traced.points += st.points;
    traced.bad_points += st.bad_points;
    traced.busy += st.busy;
    traced.worker_wall += st.worker_wall;
  }

  // Layer probes on the workload's own inputs.
  const std::int64_t t_probes = now_ns();
  const double probe_budget = primary ? 0.05 * seconds : 0.1 * seconds;
  psd::Rng rng(derive_seed(a.seed, 100));
  const psd::SamplerVariant bp =
      psd::make_sampler(psd::DistSpec::bounded_pareto(1.5, 0.1, 100.0));
  std::vector<double> block(64);
  double sink = 0.0;
  std::uint64_t draws = 0;
  for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
    const std::int32_t s = log.open(kDraw);
    for (int i = 0; i < 256; ++i) {
      bp.sample_n(rng, block.data(), block.size());
      sink += block[0];
    }
    log.close(s);
    draws += 256 * block.size();
  }
  psd::ArrivalVariant poisson = psd::PoissonArrivals(0.9);
  std::uint64_t gaps = 0;
  for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
    const std::int32_t s = log.open(kGap);
    for (int i = 0; i < 256; ++i) {
      poisson.fill_interarrivals(rng, block.data(), block.size());
      sink += block[0];
    }
    log.close(s);
    gaps += 256 * block.size();
  }

  // sim: 8 self-rescheduling event chains (one per class of the widest
  // point) through the pooled event core, gaps pre-drawn.
  std::uint64_t events = 0;
  {
    std::vector<double> gap_table(4096);
    poisson.fill_interarrivals(rng, gap_table.data(), gap_table.size());
    struct Chain {
      psd::Simulator* sim;
      const std::vector<double>* gaps;
      std::size_t i;
      void fire() {
        i = (i + 1) & 4095;
        Chain* self = this;
        sim->after_fast((*gaps)[i], [self] { self->fire(); });
      }
    };
    for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
      psd::Simulator sim;
      std::vector<Chain> chains(8);
      for (std::size_t c = 0; c < chains.size(); ++c) {
        chains[c] = {&sim, &gap_table, c * 512};
        chains[c].fire();
      }
      const std::int32_t s = log.open(kEvent);
      events += sim.run_until(20000.0);
      log.close(s);
    }
  }

  // server: a standalone single-node Server fed a pre-drawn stream.
  const psd::ScenarioConfig point = probe_point(a.seed);
  std::uint64_t served = 0;
  std::uint64_t server_events = 0;
  {
    const double unit = point.time_unit();
    const auto lambdas = point.true_lambdas();
    double total = 0.0;
    for (double l : lambdas) total += l;
    std::vector<psd::Request> stream(1 << 16);
    psd::Time t = 0.0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      t += rng.exponential(total);
      stream[i].id = i;
      stream[i].cls = static_cast<psd::ClassId>(rng.below(lambdas.size()));
      stream[i].arrival = t;
      stream[i].size = bp.sample(rng);
    }
    for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget;) {
      psd::Simulator sim;
      psd::Server server(
          sim, psd::detail::node_server_config(point, unit),
          psd::detail::make_scenario_backend(point, unit),
          psd::detail::make_scenario_allocator(point, bp.mean()),
          psd::Rng(point.seed));
      server.start(0.0);
      const std::int32_t s = log.open(kServer);
      for (const psd::Request& req : stream) {
        sim.run_until(req.arrival);
        server.submit(req);
      }
      sim.run_until(t);
      log.close(s);
      served += stream.size();
      server_events += sim.events_executed();
    }
  }

  // core: eq.-17 allocation at 2 and 8 classes.
  std::uint64_t allocs2 = 0;
  std::uint64_t allocs8 = 0;
  for (const std::size_t n : {std::size_t{2}, std::size_t{8}}) {
    psd::PsdAllocatorConfig pc;
    for (std::size_t c = 0; c < n; ++c) pc.delta.push_back(double(1u << c));
    pc.mean_size = bp.mean();
    psd::PsdRateAllocator alloc(pc);
    std::vector<double> lambda(n, 0.9 / (bp.mean() * double(n)));
    const std::uint32_t name = n == 2 ? kAlloc2 : kAlloc8;
    std::uint64_t& count = n == 2 ? allocs2 : allocs8;
    for (std::int64_t t0 = now_ns(); seconds_since(t0) < probe_budget / 2;) {
      const std::int32_t s = log.open(name);
      for (int i = 0; i < 1024; ++i) {
        lambda[i % n] *= (i & 1) ? 1.0001 : 0.9999;
        sink += alloc.allocate(lambda)[0];
      }
      log.close(s);
      count += 1024;
    }
  }

  // experiment: one point, per-task replications vs one lockstep group.
  std::uint64_t pt_req = 0;
  std::uint64_t ls_req = 0;
  bool equal = true;
  for (std::int64_t t0 = now_ns(); pt_req == 0 ||
                                   seconds_since(t0) < probe_budget * 2;) {
    std::vector<psd::RunResult> per_task;
    std::int32_t s = log.open(kPerTask);
    for (std::size_t i = 0; i < kLanes; ++i) {
      per_task.push_back(psd::run_scenario(point, i));
    }
    log.close(s);
    s = log.open(kLockstep);
    const auto lanes = psd::run_scenario_lanes(point, 0, kLanes);
    log.close(s);
    for (std::size_t i = 0; i < kLanes; ++i) {
      equal = equal && same_run(per_task[i], lanes[i]);
      for (const auto& c : per_task[i].cls) pt_req += c.completed;
      for (const auto& c : lanes[i].cls) ls_req += c.completed;
    }
  }
  r.check("campaign.lockstep_equals_per_task", equal);
  if (sink == 0.0) r.note("sink", "0");

  const auto self = log.self_ns();
  auto per = [&](std::uint32_t name, double n) { return self[name] / n; };
  r.metric("dist.size_draw_ns", per(kDraw, draws), "ns", draws);
  r.metric("workload.gap_draw_ns", per(kGap, gaps), "ns", gaps);
  r.metric("sim.event_ns", per(kEvent, events), "ns", events);
  r.metric("sim.events_per_request", double(server_events) / double(served),
           "count", served);
  r.metric("server.request_ns", per(kServer, served), "ns", served);
  r.metric("core.allocate_ns_2c", per(kAlloc2, allocs2), "ns", allocs2);
  r.metric("core.allocate_ns_8c", per(kAlloc8, allocs8), "ns", allocs8);
  r.metric("experiment.per_task_ns_per_request", per(kPerTask, pt_req), "ns",
           pt_req);
  r.metric("experiment.lockstep_ns_per_request", per(kLockstep, ls_req), "ns",
           ls_req);
  r.metric("sweep.pool_busy_share", traced.busy / traced.worker_wall, "ratio",
           traced.rounds);
  r.metric("sweep.expand_ms", expand_ms, "ms", kExpands);
  if (primary) {
    r.attempted = traced.points;
    r.failed = traced.bad_points;
    r.check("campaign.points_valid", traced.bad_points == 0);
    r.metric("bench.trace_overhead", traced_wall / plain_wall - 1.0, "ratio",
             traced.rounds);
    double covered = 0.0;
    for (double v : self) covered += v;
    // Spanned time: the traced rounds and the probes, not the untraced
    // rounds interleaved with them.
    const double wall = traced_wall * 1e9 + double(now_ns() - t_probes);
    r.metric("bench.unattributed_share", 1.0 - covered / wall, "ratio",
             traced.rounds);
  }
}

}  // namespace psdbench
