// campaign_audited: the default cold FaultCampaign (4x4 cmesh scenarios,
// auditor every cycle, no warm-up snapshot) on two workers, as CI and the
// nightly soak run it. A Simulator is built per 300-1500-cycle scenario,
// so construction cost shows here, and the auditor is about half the time.
#include "perfbench.hpp"
#include "sweep/spec.hpp"
#include "traffic/app_profile.hpp"
#include "verify/campaign.hpp"

namespace perfbench {
namespace {

using namespace htnoc;

// Scenario costs vary several-fold with the drawn configuration, so a timed
// unit needs hundreds of scenarios for its figures to be steady from one
// seed to the next.
constexpr std::uint64_t kScenarios = 720;       ///< Per timed unit.
constexpr std::uint64_t kTracedScenarios = 48;  ///< Per traced pass.
constexpr int kWorkers = 2;
constexpr int kSetupReps = 3;
constexpr Cycle kRigCycles = 2000;

verify::CampaignSpec campaign_spec(std::uint64_t seed,
                                   std::uint64_t scenarios) {
  verify::CampaignSpec spec;
  spec.seed = seed;
  spec.scenarios = scenarios;
  spec.threads = kWorkers;
  return spec;
}

std::uint64_t text_digest(const std::string& s) {
  std::uint64_t h = verify::kFnvOffsetBasis;
  for (const char c : s) {
    h = verify::fnv1a_u64(h, static_cast<unsigned char>(c));
  }
  return h;
}

/// The campaign's default fabric (4x4 cmesh, auditor every cycle) under
/// blackscholes traffic: what every cold scenario builds before its first
/// cycle, minus the randomized draws that FaultCampaign keeps private.
TrafficRig audited_rig(std::uint64_t seed, Tracer* tr) {
  sim::SimConfig sc;
  sc.seed = sweep::mix_seed(seed, 1);
  sc.noc.seed = sweep::mix_seed(seed, 2);
  sc.audit.enabled = true;
  traffic::TrafficGenerator::Params gp;
  gp.seed = sweep::mix_seed(seed, 3);
  return TrafficRig(std::move(sc), traffic::blackscholes_profile(), gp, tr);
}

/// Parse "mode=<m>" and "attacks=<n>" out of a scenario descriptor.
std::string scenario_class(const std::string& descriptor) {
  const auto field = [&](const char* key) {
    const std::string k = std::string(" ") + key + "=";
    const auto pos = descriptor.find(k);
    if (pos == std::string::npos) return std::string();
    const auto begin = pos + k.size();
    return descriptor.substr(begin, descriptor.find(' ', begin) - begin);
  };
  const std::string mode = field("mode");
  const bool attacked = field("attacks") != "0";
  return run_class(mode == "lob"       ? sim::MitigationMode::kLOb
                   : mode == "reroute" ? sim::MitigationMode::kReroute
                                       : sim::MitigationMode::kNone,
                   attacked);
}

bool same_outcome(const verify::ScenarioResult& a,
                  const verify::ScenarioResult& b) {
  return a.ok == b.ok && a.cycles == b.cycles && a.delivered == b.delivered &&
         a.purged == b.purged && a.audits == b.audits &&
         a.flits_tracked == b.flits_tracked && a.violations == b.violations;
}

Result traced(std::uint64_t seed, Tracer& tr) {
  Result r;
  const verify::CampaignSpec spec = campaign_spec(seed, kTracedScenarios);

  // Untraced reference for the audited rig: Simulator::step as the
  // campaign calls it.
  std::uint64_t ref_digest = 0;
  double ref_s = 0.0;
  {
    TrafficRig rig = audited_rig(seed, nullptr);
    const std::int64_t t0 = now_ns();
    for (Cycle c = 0; c < kRigCycles; ++c) {
      rig.gen->step();
      rig.simulator->step();
    }
    ref_s = seconds_since(t0);
    ref_digest = verify::state_digest(rig.simulator->network());
    r.check("reference audited rig is clean",
            rig.simulator->auditor()->clean());
  }

  verify::CampaignResult par;
  std::vector<verify::ScenarioResult> serial;
  std::uint64_t rig_digest = 0;
  bool rig_clean = false;
  Network::StepStats ss;
  {
    const Tracer::Scope root(&tr, "perfbench", nullptr);
    {
      const Tracer::Scope s(&tr, "verify.campaign_run", "verify");
      par = verify::FaultCampaign(spec).run();
    }
    for (std::uint64_t i = 0; i < spec.scenarios; ++i) {
      const Tracer::Scope s(&tr, "verify.run_scenario", "verify");
      serial.push_back(verify::FaultCampaign::run_scenario(spec, i));
    }
    // With no attack and mode none, Simulator::step is exactly
    // Network::step followed by the auditor's end-of-cycle pass.
    TrafficRig rig = audited_rig(seed, &tr);
    const Tracer::Scope window(&tr, "sim.window", "sim");
    for (Cycle c = 0; c < kRigCycles; ++c) {
      {
        const Tracer::Scope s(&tr, "traffic.step", "traffic");
        rig.gen->step();
      }
      {
        const Tracer::Scope s(&tr, "noc.step", "noc");
        rig.simulator->network().step();
      }
      const Tracer::Scope s(&tr, "verify.audit", "verify");
      rig.simulator->auditor()->on_cycle_end();
    }
    rig_digest = verify::state_digest(rig.simulator->network());
    rig_clean = rig.simulator->auditor()->clean();
    ss = rig.simulator->network().step_stats();
  }
  r.run_attempts = par.scenarios.size() + serial.size() + 2;
  r.run_failures = par.failures() + (rig_clean ? 0 : 1);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    r.run_failures += serial[i].ok ? 0 : 1;
    r.check("run_scenario equals the campaign: " +
                verify::format_repro({spec.seed, i, 0}),
            same_outcome(serial[i], par.scenarios[i]));
  }
  r.check("traced audited rig equals Simulator::step",
          rig_digest == ref_digest);

  const double wall = tr.durations_of("perfbench").front();
  const std::vector<double> scen_ns = tr.durations_of("verify.run_scenario");
  std::uint64_t audits = 0, flits = 0;
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    audits += serial[i].audits;
    flits += serial[i].flits_tracked;
    by_class[scenario_class(serial[i].descriptor)].push_back(scen_ns[i] * 1e-6);
  }
  for (const auto& [cls, ms] : by_class) {
    r.layers["sim.run_ms." + cls] = median(ms);
  }

  const double step_ns = sum(tr.self_ns_of("noc.step"));
  const double audit_ns = sum(tr.self_ns_of("verify.audit"));
  r.layers["verify.audit_share"] = audit_ns / (step_ns + audit_ns);
  r.layers["verify.audited_step_ratio"] = (step_ns + audit_ns) / step_ns;
  r.layers["verify.ns_per_audited_cycle"] =
      sum(scen_ns) / static_cast<double>(audits);
  r.layers["verify.flits_tracked"] = static_cast<double>(flits);
  r.layers["verify.audits"] = static_cast<double>(audits);
  r.layers["verify.campaign_fanout_efficiency"] =
      sum(scen_ns) /
      (kWorkers * tr.durations_of("verify.campaign_run").front());
  r.layers["noc.step_share"] = step_ns / wall;
  r.layers["noc.ns_per_router_step"] =
      step_ns / static_cast<double>(ss.router_steps);
  r.layers["noc.active_router_ratio"] =
      static_cast<double>(ss.router_steps) /
      static_cast<double>(ss.router_steps + ss.router_skips);
  r.layers["traffic.step_share"] = sum(tr.self_ns_of("traffic.step")) / wall;
  r.layers["traffic.model_build_ms"] =
      tr.durations_of("traffic.model_build").front() * 1e-6;
  r.layers["sim.build_ms"] = tr.durations_of("sim.build").front() * 1e-6;
  r.layers["tracing.overhead_share"] =
      tr.durations_of("sim.window").front() * 1e-9 / ref_s - 1.0;
  r.layers["tracing.unaccounted_share"] =
      tr.self_ns_of("perfbench").front() / wall;
  return r;
}

}  // namespace

Result run_campaign_audited(const Options& opt, Tracer* tracer) {
  if (tracer != nullptr) return traced(opt.seed, *tracer);
  Result r;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kScenarios; ++i) {
      const TrafficRig rig = audited_rig(sweep::mix_seed(opt.seed, i), nullptr);
    }
    r.setup_s.push_back(seconds_since(t0));
  }

  RunClock clock;
  verify::CampaignSpec spec = campaign_spec(opt.seed, kScenarios);
  spec.should_stop = [&clock] { return clock.on_claim(); };
  spec.progress = [&clock](std::uint64_t, std::uint64_t) { clock.on_done(); };
  const verify::FaultCampaign campaign(spec);

  const std::int64_t start = now_ns();
  double unit_s = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    const verify::CampaignResult res = campaign.run();
    unit_s = seconds_since(t0);
    Result::Unit unit{unit_s, 0, text_digest(res.summary_text()), {}, {}};
    const std::vector<RunClock::Interval> ivs = clock.take();
    r.check("one timing per scenario", ivs.size() == res.scenarios.size());
    for (std::size_t i = 0; i < ivs.size() && i < res.scenarios.size(); ++i) {
      const double ms = static_cast<double>(ivs[i].end - ivs[i].start) * 1e-6;
      unit.run_ms.push_back(ms);
      unit.step_us.push_back(ms * 1e3 /
                             static_cast<double>(res.scenarios[i].cycles));
    }
    for (const verify::ScenarioResult& s : res.scenarios) {
      unit.cycles += s.cycles;
    }
    r.units.push_back(std::move(unit));
    r.run_attempts += res.scenarios.size();
    r.run_failures += res.failures();
  } while (another_unit_fits(start, opt.seconds, unit_s));
  return r;
}

}  // namespace perfbench
