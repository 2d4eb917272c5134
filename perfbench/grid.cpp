// paper_grid: the paper's own experiment. The 4x4 concentrated mesh runs
// modes {none, lob, reroute} x attacks {none, single, multi} x profiles
// {blackscholes, facesim, ferret, fft} for a fixed horizon (figure mode),
// fanned out by SweepRunner::run over two workers. Fixed horizons matter:
// the mode=none x attacked points are DoS-wedged fabrics that never finish a
// completion-mode workload.
#include "perfbench.hpp"
#include "sweep/runner.hpp"
#include "traffic/app_profile.hpp"

namespace perfbench {
namespace {

using namespace htnoc;

constexpr Cycle kRunCycles = 3000;
constexpr Cycle kAttackAt = 1000;
constexpr int kWorkers = 2;
// Set-up is timed in samples of kSetupSweeps rebuilds of every run's rig
// (a single rebuild is about 15 ms, too short to time steadily); setup_s is
// the median sample divided by kSetupSweeps.
constexpr int kSetupSamples = 5;
constexpr int kSetupSweeps = 32;

sim::AttackSpec tasp_on(LinkRef link) {
  sim::AttackSpec a;
  a.link = link;
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = kAttackAt;
  return a;
}

sweep::SweepSpec grid_spec(std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kLOb,
                sim::MitigationMode::kReroute};
  // "single" is the paper's TASP on the column-0 northbound feeder into
  // router 0; "multi" is the 10% infected-link set of the Fig. 10 sweep.
  // Every link lies on a path to router 0 and leaves the mesh connected
  // when rerouting disables it.
  std::vector<sim::AttackSpec> multi;
  for (const LinkRef l : {LinkRef{2, Direction::kWest},
                          LinkRef{8, Direction::kNorth},
                          LinkRef{5, Direction::kWest},
                          LinkRef{9, Direction::kWest},
                          LinkRef{3, Direction::kWest}}) {
    multi.push_back(tasp_on(l));
  }
  spec.attack_scenarios = {{"none", {}},
                           {"single", {tasp_on({4, Direction::kNorth})}},
                           {"multi", multi}};
  spec.profiles = {"blackscholes", "facesim", "ferret", "fft"};
  spec.replicates = 1;
  spec.base_seed = seed;
  spec.run_cycles = kRunCycles;
  return spec;
}

/// Digest of one run's simulated statistics.
std::uint64_t run_digest(const sweep::RunResult& r) {
  std::uint64_t h = verify::fnv1a_u64(verify::kFnvOffsetBasis, r.ok ? 1 : 0);
  for (const double m : r.metrics()) h = fold_double(h, m);
  return verify::fnv1a_u64(h, r.sim.flits_purged_total);
}

std::uint64_t grid_digest(const std::vector<sweep::RunResult>& runs) {
  std::uint64_t h = verify::kFnvOffsetBasis;
  for (const sweep::RunResult& r : runs) {
    h = verify::fnv1a_u64(h, run_digest(r));
  }
  return h;
}

const char* class_of(const sweep::RunSpec& rs) {
  return run_class(rs.mode, !rs.attacks.empty());
}

/// Name of the rig's per-run span: "sim.run." + the run's class.
const char* run_span_name(const std::string& cls) {
  if (cls == "dos") return "sim.run.dos";
  if (cls == "lob") return "sim.run.lob";
  if (cls == "reroute") return "sim.run.reroute";
  return "sim.run.clean";
}

/// What SweepRunner::run_single builds before its first cycle, with the
/// same configuration and mix_seed derivations.
TrafficRig run_rig(const sweep::SweepSpec& spec, const sweep::RunSpec& rs,
                   Tracer* tr) {
  sim::SimConfig sc = spec.base;
  sc.mode = rs.mode;
  sc.attacks = rs.attacks;
  sc.seed = sweep::mix_seed(rs.seed, 1);
  sc.noc.seed = sweep::mix_seed(rs.seed, 2);
  sc.trace = rs.trace;
  traffic::AppProfile profile = traffic::profile_by_name(rs.profile);
  profile.injection_rate *= rs.rate_scale;
  traffic::TrafficGenerator::Params gp;
  gp.seed = sweep::mix_seed(rs.seed, 3);
  gp.total_requests = spec.total_requests;
  gp.domain = spec.primary_domain;
  return TrafficRig(std::move(sc), profile, gp, tr);
}

/// The traced replica of run_single: the same public calls, with the
/// traffic step and the network step as separate spans. Simulator::step is
/// the kill-switch schedule plus Network::step unless the mode is reroute,
/// whose policy is private to Simulator::step; reroute runs therefore step
/// through it as one "sim.step" span.
sweep::RunResult rig_run(const sweep::SweepSpec& spec,
                         const sweep::RunSpec& rs, Tracer& tr,
                         Network::StepStats& spanned,
                         Network::StepStats& all) {
  const Tracer::Scope run_span(&tr, run_span_name(class_of(rs)), "sim");
  sweep::RunResult res;
  res.spec = rs;
  TrafficRig o = run_rig(spec, rs, &tr);
  sim::Simulator& simulator = *o.simulator;
  Network& net = simulator.network();
  const bool reroute = rs.mode == sim::MitigationMode::kReroute;
  for (Cycle c = 0; c < spec.run_cycles; ++c) {
    {
      const Tracer::Scope s(&tr, "traffic.step", "traffic");
      o.gen->step();
    }
    if (reroute) {
      const Tracer::Scope s(&tr, "sim.step", "sim");
      simulator.step();
    } else {
      apply_kill_switches(simulator);
      const Tracer::Scope s(&tr, "noc.step", "noc");
      net.step();
    }
    ++res.cycles;
  }
  res.completed = true;
  res.traffic = o.gen->stats();
  res.sim = simulator.stats();
  const AttackCounts ac = attack_counts(simulator);
  res.trojan_injections = ac.trojan_injections;
  res.lob_successes = ac.lob_successes;
  res.lob_log_hits = ac.lob_log_hits;
  res.final_util = net.sample_utilization();
  res.ok = true;

  const Network::StepStats& ss = net.step_stats();
  all.router_steps += ss.router_steps;
  all.router_skips += ss.router_skips;
  if (!reroute) {
    spanned.router_steps += ss.router_steps;
    spanned.router_skips += ss.router_skips;
  }
  return res;
}

Result traced(const sweep::SweepSpec& spec,
              const std::vector<sweep::RunSpec>& runs, Tracer& tr) {
  Result r;
  sweep::SweepResult par;
  std::vector<sweep::RunResult> serial;
  std::vector<sweep::RunResult> rig;
  Network::StepStats spanned;
  Network::StepStats all;
  {
    const Tracer::Scope root(&tr, "perfbench", nullptr);
    {
      const Tracer::Scope s(&tr, "sweep.run", "sweep");
      par = sweep::SweepRunner({kWorkers}).run(spec);
    }
    for (const sweep::RunSpec& rs : runs) {
      const Tracer::Scope s(&tr, "sweep.run_single", "sweep");
      serial.push_back(sweep::SweepRunner::run_single(spec, rs));
    }
    for (const sweep::RunSpec& rs : runs) {
      rig.push_back(rig_run(spec, rs, tr, spanned, all));
    }
  }
  r.run_attempts = par.runs.size() + serial.size() + rig.size();
  r.run_failures = par.failures();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    r.run_failures += (serial[i].ok ? 0 : 1) + (rig[i].ok ? 0 : 1);
    const std::string label = runs[i].label();
    r.check("run_single equals the sweep: " + label,
            run_digest(serial[i]) == run_digest(par.runs[i]));
    r.check("traced rig equals run_single: " + label,
            run_digest(rig[i]) == run_digest(serial[i]));
  }

  const double wall = tr.durations_of("perfbench").front();
  const std::vector<double> single_ns = tr.durations_of("sweep.run_single");
  std::map<std::string, std::vector<double>> by_class;
  double rig_ns = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    by_class[class_of(runs[i])].push_back(single_ns[i] * 1e-6);
  }
  for (const char* cls : {"clean", "dos", "lob", "reroute"}) {
    rig_ns += sum(tr.durations_of(run_span_name(cls)));
    r.layers[std::string("sim.run_ms.") + cls] = median(by_class[cls]);
  }
  const double noc_step_ns = sum(tr.self_ns_of("noc.step"));
  r.layers["noc.step_share"] = noc_step_ns / wall;
  r.layers["noc.ns_per_router_step"] =
      noc_step_ns / static_cast<double>(spanned.router_steps);
  r.layers["noc.active_router_ratio"] =
      static_cast<double>(all.router_steps) /
      static_cast<double>(all.router_steps + all.router_skips);
  r.layers["traffic.step_share"] = sum(tr.self_ns_of("traffic.step")) / wall;
  r.layers["traffic.model_build_ms"] =
      median(tr.durations_of("traffic.model_build")) * 1e-6;
  r.layers["sim.build_ms"] = median(tr.durations_of("sim.build")) * 1e-6;
  r.layers["sweep.fanout_efficiency"] =
      sum(single_ns) / (kWorkers * tr.durations_of("sweep.run").front());

  std::uint64_t cycles = 0, injections = 0, lob_ok = 0, lob_hits = 0,
                purged = 0;
  for (const sweep::RunResult& s : serial) {
    cycles += s.cycles;
    injections += s.trojan_injections;
    lob_ok += s.lob_successes;
    lob_hits += s.lob_log_hits;
    purged += s.sim.flits_purged_total;
  }
  r.layers["trojan.injections_per_kcycle"] =
      1000.0 * static_cast<double>(injections) / static_cast<double>(cycles);
  r.layers["mitigation.lob_successes"] = static_cast<double>(lob_ok);
  r.layers["mitigation.lob_log_hits"] = static_cast<double>(lob_hits);
  r.layers["mitigation.flits_purged"] = static_cast<double>(purged);
  r.layers["tracing.overhead_share"] = rig_ns / sum(single_ns) - 1.0;
  r.layers["tracing.unaccounted_share"] =
      tr.self_ns_of("perfbench").front() / wall;
  return r;
}

}  // namespace

Result run_paper_grid(const Options& opt, Tracer* tracer) {
  const sweep::SweepSpec spec = grid_spec(opt.seed);
  const std::vector<sweep::RunSpec> runs = sweep::expand(spec);
  if (tracer != nullptr) return traced(spec, runs, *tracer);

  Result r;
  for (int k = 0; k < kSetupSamples; ++k) {
    const std::int64_t t0 = now_ns();
    for (int rep = 0; rep < kSetupSweeps; ++rep) {
      for (const sweep::RunSpec& rs : runs) {
        const TrafficRig rig = run_rig(spec, rs, nullptr);
      }
    }
    r.setup_s.push_back(seconds_since(t0) / kSetupSweeps);
  }

  RunClock clock;
  sweep::SweepRunner::Options ro;
  ro.num_threads = kWorkers;
  ro.should_stop = [&clock] { return clock.on_claim(); };
  ro.progress = [&clock](std::size_t, std::size_t) { clock.on_done(); };
  const sweep::SweepRunner runner(ro);

  sweep::SweepResult last;
  const std::int64_t start = now_ns();
  double unit_s = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    last = runner.run(spec);
    unit_s = seconds_since(t0);
    Result::Unit unit{unit_s, 0, grid_digest(last.runs), {}, {}};
    for (const RunClock::Interval& iv : clock.take()) {
      const double ms = static_cast<double>(iv.end - iv.start) * 1e-6;
      unit.run_ms.push_back(ms);
      unit.step_us.push_back(ms * 1e3 / static_cast<double>(spec.run_cycles));
    }
    r.check("one timing per run", unit.run_ms.size() == last.runs.size());
    for (const sweep::RunResult& rr : last.runs) unit.cycles += rr.cycles;
    r.units.push_back(std::move(unit));
    r.run_attempts += last.runs.size();
    r.run_failures += last.failures();
  } while (another_unit_fits(start, opt.seconds, unit_s));

  // Spot-check one run of each class against a serial run_single replay.
  std::map<std::string, std::size_t> first_of_class;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    first_of_class.emplace(class_of(runs[i]), i);
  }
  for (const auto& [cls, i] : first_of_class) {
    const sweep::RunResult replay =
        sweep::SweepRunner::run_single(spec, runs[i]);
    r.check("run_single equals the sweep: " + runs[i].label(),
            run_digest(replay) == run_digest(last.runs[i]));
  }
  return r;
}

}  // namespace perfbench
