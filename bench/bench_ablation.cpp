// Ablation studies for the design choices DESIGN.md calls out:
//   1. TASP payload-counter width Y: disguise quality (time to trojan
//      classification) vs area.
//   2. TASP duty cycle (min_gap): attack abruptness vs stealth.
//   3. L-Ob escalation threshold (faults on one flit before obfuscating):
//      mitigation latency vs false-positive obfuscation.
//   4. L-Ob per-flow success log on/off: cycles spent escalating.
//   5. Retransmission-buffer placement (paper Fig. 5): shared output pool
//      vs per-VC slots — the DoS blast radius differs sharply.
//   6. Routing under attack+mitigation: deterministic x-y vs West-First
//      adaptive.
//   7. Detection baselines: our syndrome-based threat detector vs the
//      related-work runtime latency auditor (NOCS'15 [13]).
//   8. Link ECC scheme x trojan payload: the attacker-knows-the-ECC
//      assumption (Sec. III-B) — the same trojan flips between DoS and
//      silent corruption depending on the code it faces.
//
// Each section's simulations are independent runs fanned out over
// `--jobs N` / $HTNOC_JOBS workers; the printed tables are identical for
// any count.
#include <cstdio>
#include <iterator>

#include "bench_common.hpp"
#include "mitigation/latency_auditor.hpp"
#include "power/blocks.hpp"

namespace {

using namespace htnoc;

/// Cycles from kill-switch enable until the receiver-side detector
/// classifies the attacked link as TROJAN; 0 if never within the horizon.
Cycle detection_latency(int payload_states, Cycle min_gap) {
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  sim::AttackSpec a = bench::paper_attack(1000);
  a.tasp.payload_states = payload_states;
  a.tasp.min_gap = min_gap;
  sc.attacks = {a};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 7;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  for (Cycle c = 0; c < 20000; ++c) {
    gen.step();
    simulator.step();
    if (simulator.detector(0).classification(
            direction_port(Direction::kSouth)) ==
        mitigation::LinkThreatClass::kTrojan) {
      return net.now() - 1000;
    }
  }
  return 0;
}

struct MitigationCost {
  Cycle completion = 0;
  std::uint64_t obfuscated_attempts = 0;
  std::uint64_t log_hits = 0;
};

MitigationCost lob_cost(int escalate_after, bool use_log) {
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  sc.detector.escalate_after = escalate_after;
  sc.lob.use_success_log = use_log;
  sc.attacks = {bench::paper_attack(1000)};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 8;
  gp.total_requests = 1500;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  MitigationCost res;
  while (!gen.done() && res.completion < 1000000) {
    gen.step();
    simulator.step();
    ++res.completion;
  }
  const auto& lob = simulator.lob(4, direction_port(Direction::kNorth));
  res.obfuscated_attempts = lob.stats().obfuscated_attempts;
  res.log_hits = lob.stats().log_hits;
  return res;
}

struct BlastRadius {
  std::uint64_t healthy_rate_x100 = 0;  ///< pkts per 100 cycles pre-attack
  std::uint64_t attacked_rate_x100 = 0;
  int blocked = 0;
  int cores_full = 0;
};

BlastRadius blast_radius(RetransmissionScheme scheme) {
  sim::SimConfig sc;
  sc.noc.retrans_scheme = scheme;
  sc.mode = sim::MitigationMode::kNone;
  sc.attacks = {bench::paper_attack(1500)};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 21;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  BlastRadius res;
  std::uint64_t at_attack = 0;
  for (Cycle c = 0; c < 3000; ++c) {
    gen.step();
    simulator.step();
    if (c == 1499) at_attack = gen.stats().packets_delivered;
  }
  res.healthy_rate_x100 = at_attack * 100 / 1500;
  res.attacked_rate_x100 =
      (gen.stats().packets_delivered - at_attack) * 100 / 1500;
  const auto u = net.sample_utilization();
  res.blocked = u.routers_with_blocked_port;
  res.cores_full = u.routers_all_cores_full;
  return res;
}

struct RoutingRun {
  bool done = false;
  Cycle cycles = 0;
  double avg_latency = 0.0;
};

RoutingRun routing_run(bool adaptive, bool attack) {
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  sim::AttackSpec a = bench::paper_attack(attack ? 500 : 100000000ULL);
  sc.attacks = {a};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  if (adaptive) net.use_west_first_routing();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  auto profile = traffic::blackscholes_profile();
  profile.injection_rate *= 3.0;  // press hard enough for routing to matter
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 22;
  gp.total_requests = 1500;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  RoutingRun res;
  while (!gen.done() && res.cycles < 1000000) {
    gen.step();
    simulator.step();
    ++res.cycles;
  }
  res.done = gen.done();
  res.avg_latency = gen.stats().avg_latency();
  return res;
}

struct DetectionRace {
  Cycle detector_at = 0;  ///< cycles after killsw; 0 = never
  Cycle auditor_at = 0;
  std::uint64_t auditor_false_alarms = 0;  ///< alarms raised pre-attack
};

DetectionRace detection_race() {
  sim::SimConfig sc;
  sc.mode = sim::MitigationMode::kLOb;
  // Keep retransmissions flowing but never hide the dest field, so both
  // detectors face a persistent attack.
  sc.lob.sequence = {{ObfMethod::kInvert, ObfGranularity::kPayload}};
  constexpr Cycle kAttackAt = 3000;
  sc.attacks = {bench::paper_attack(kAttackAt)};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  mitigation::LatencyAuditor auditor;
  disp.add_listener([&](Cycle now, const PacketInfo&, Cycle lat) {
    auditor.observe(now, lat);
  });
  auto profile = traffic::blackscholes_profile();
  profile.injection_rate *= 2.0;  // bursty enough to tempt false alarms
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 33;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  DetectionRace res;
  for (Cycle c = 0; c < kAttackAt + 3000; ++c) {
    gen.step();
    simulator.step();
    if (c == kAttackAt - 1) res.auditor_false_alarms = auditor.stats().alarms;
    if (c >= kAttackAt) {
      if (res.detector_at == 0 &&
          simulator.detector(0).classification(
              direction_port(Direction::kSouth)) ==
              mitigation::LinkThreatClass::kTrojan) {
        res.detector_at = c - kAttackAt;
      }
      if (res.auditor_at == 0 &&
          auditor.stats().alarms > res.auditor_false_alarms) {
        res.auditor_at = c - kAttackAt;
      }
    }
  }
  return res;
}

struct EccOutcome {
  std::uint64_t delivered_after = 0;
  std::uint64_t sdc = 0;
  int blocked = 0;
};

EccOutcome ecc_outcome(EccScheme scheme, trojan::PayloadPattern pattern) {
  sim::SimConfig sc;
  sc.noc.ecc_scheme = scheme;
  sc.mode = sim::MitigationMode::kNone;
  sim::AttackSpec a = bench::paper_attack(800);
  a.tasp.ecc = scheme;
  a.tasp.pattern = pattern;
  sc.attacks = {a};
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppTrafficModel model(net.geometry(),
                                 traffic::blackscholes_profile());
  traffic::TrafficGenerator::Params gp;
  gp.seed = 34;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  std::uint64_t at_attack = 0;
  for (Cycle c = 0; c < 2200; ++c) {
    gen.step();
    simulator.step();
    if (c == 799) at_attack = gen.stats().packets_delivered;
  }
  EccOutcome out;
  out.delivered_after = gen.stats().packets_delivered - at_attack;
  for (RouterId r = 0; r < 16; ++r) {
    for (int p = 0; p < net.router(r).num_ports(); ++p) {
      out.sdc += net.router(r).input(p).stats().silent_corruptions;
    }
  }
  out.blocked = net.sample_utilization().routers_with_blocked_port;
  return out;
}

const char* classify_outcome(const EccOutcome& o) {
  if (o.blocked >= 8) return "DoS";
  if (o.sdc >= 10) return "silent corruption";
  return "absorbed";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htnoc;
  const int jobs = bench::parse_jobs(argc, argv);
  bench::print_header("Ablations", "design-choice sweeps (DESIGN.md Sec. 5)");

  std::printf("\n1) TASP payload-counter width Y: area vs time-to-detection\n");
  std::printf("%6s %12s %18s\n", "Y", "area(um2)", "detect_lat(cyc)");
  const int widths[] = {2, 4, 8, 16, 32};
  const auto width_lat = bench::parallel_map(
      std::size(widths), jobs,
      [&](std::size_t i) { return detection_latency(widths[i], 1); });
  for (std::size_t i = 0; i < std::size(widths); ++i) {
    const double area =
        power::tasp_block(trojan::TargetKind::kDest, widths[i]).area_um2();
    std::printf("%6d %12.2f %18llu\n", widths[i], area,
                static_cast<unsigned long long>(width_lat[i]));
  }

  std::printf("\n2) TASP duty cycle (min_gap): stealth vs abruptness\n");
  std::printf("%10s %18s\n", "min_gap", "detect_lat(cyc)");
  const Cycle gaps[] = {1, 4, 16, 64};
  const auto gap_lat = bench::parallel_map(
      std::size(gaps), jobs,
      [&](std::size_t i) { return detection_latency(8, gaps[i]); });
  for (std::size_t i = 0; i < std::size(gaps); ++i) {
    const auto gap = static_cast<unsigned long long>(gaps[i]);
    if (gap_lat[i] == 0) {
      std::printf("%10llu %18s\n", gap, "undetected");
    } else {
      std::printf("%10llu %18llu\n", gap,
                  static_cast<unsigned long long>(gap_lat[i]));
    }
  }

  std::printf("\n3) detector escalation threshold: completion & obfuscation "
              "volume\n");
  std::printf("%16s %14s %14s\n", "escalate_after", "T_done(cyc)",
              "obf_attempts");
  const int thresholds[] = {2, 3, 4};
  const auto thr_cost = bench::parallel_map(
      std::size(thresholds), jobs,
      [&](std::size_t i) { return lob_cost(thresholds[i], true); });
  for (std::size_t i = 0; i < std::size(thresholds); ++i) {
    const MitigationCost& c = thr_cost[i];
    std::printf("%16d %14llu %14llu\n", thresholds[i],
                static_cast<unsigned long long>(c.completion),
                static_cast<unsigned long long>(c.obfuscated_attempts));
  }

  std::printf("\n4) L-Ob per-flow success log on/off\n");
  std::printf("%8s %14s %14s %10s\n", "log", "T_done(cyc)", "obf_attempts",
              "log_hits");
  const bool logs[] = {true, false};
  const auto log_cost = bench::parallel_map(
      std::size(logs), jobs,
      [&](std::size_t i) { return lob_cost(2, logs[i]); });
  for (std::size_t i = 0; i < std::size(logs); ++i) {
    const MitigationCost& c = log_cost[i];
    std::printf("%8s %14llu %14llu %10llu\n", logs[i] ? "on" : "off",
                static_cast<unsigned long long>(c.completion),
                static_cast<unsigned long long>(c.obfuscated_attempts),
                static_cast<unsigned long long>(c.log_hits));
  }
  std::printf("\n5) retransmission-buffer placement vs DoS blast radius "
              "(no mitigation, single TASP)\n");
  std::printf("%14s %16s %17s %9s %12s\n", "scheme", "healthy(p/100c)",
              "attacked(p/100c)", "blocked", "cores_full");
  const RetransmissionScheme schemes[] = {RetransmissionScheme::kOutputBuffer,
                                          RetransmissionScheme::kPerVcBuffer};
  const auto blasts = bench::parallel_map(
      std::size(schemes), jobs,
      [&](std::size_t i) { return blast_radius(schemes[i]); });
  for (std::size_t i = 0; i < std::size(schemes); ++i) {
    const BlastRadius& b = blasts[i];
    std::printf("%14s %16llu %17llu %9d %12d\n", to_string(schemes[i]).c_str(),
                static_cast<unsigned long long>(b.healthy_rate_x100),
                static_cast<unsigned long long>(b.attacked_rate_x100),
                b.blocked, b.cores_full);
  }
  std::printf("(the wedge lives on the request-class VCs either way, so the "
              "chip-level collapse is similar; per-VC slots do keep the "
              "reply class's dedicated slots free at the attacked port — "
              "see test_retrans_scheme for the port-level containment)\n");

  std::printf("\n6) routing algorithm under attack + L-Ob (3x load)\n");
  std::printf("%12s %8s %14s %10s\n", "routing", "attack", "T_done(cyc)",
              "avg_lat");
  // Index i: adaptive = i / 2, attack = i % 2 (x-y first, unattacked first).
  const auto routing = bench::parallel_map(4, jobs, [](std::size_t i) {
    return routing_run(i / 2 == 1, i % 2 == 1);
  });
  for (std::size_t i = 0; i < routing.size(); ++i) {
    const RoutingRun& r = routing[i];
    std::printf("%12s %8s %14llu %10.1f\n",
                i / 2 == 1 ? "west_first" : "xy", i % 2 == 1 ? "yes" : "no",
                static_cast<unsigned long long>(r.cycles), r.avg_latency);
  }
  std::printf("\n7) detection race: threat detector vs latency auditor "
              "(NOCS'15 baseline)\n");
  const DetectionRace race = detection_race();
  std::printf("  threat detector classifies the link at t+%llu cycles\n",
              static_cast<unsigned long long>(race.detector_at));
  if (race.auditor_at > 0) {
    std::printf("  latency auditor first alarms at t+%llu cycles "
                "(%llu false alarms before the attack)\n",
                static_cast<unsigned long long>(race.auditor_at),
                static_cast<unsigned long long>(race.auditor_false_alarms));
  } else {
    std::printf("  latency auditor never alarms within t+3000 "
                "(%llu false alarms before the attack) — the wedged flow "
                "produces no late deliveries to observe\n",
                static_cast<unsigned long long>(race.auditor_false_alarms));
  }
  std::printf("  (the paper's critique of delay-based detection, "
              "quantified)\n");

  std::printf("\n8) link ECC scheme x trojan payload: attack outcome matrix\n");
  std::printf("%10s | %14s %14s %14s\n", "link ECC", "1-bit payload",
              "2-bit payload", "3-bit payload");
  const EccScheme codes[] = {EccScheme::kSecded, EccScheme::kParity,
                             EccScheme::kNone};
  const trojan::PayloadPattern payloads[] = {
      trojan::PayloadPattern::kSingleCorrectable,
      trojan::PayloadPattern::kDoubleDetectable,
      trojan::PayloadPattern::kTripleSdc};
  const auto outcomes = bench::parallel_map(
      std::size(codes) * std::size(payloads), jobs, [&](std::size_t i) {
        return ecc_outcome(codes[i / std::size(payloads)],
                           payloads[i % std::size(payloads)]);
      });
  for (std::size_t c = 0; c < std::size(codes); ++c) {
    const EccOutcome* row = &outcomes[c * std::size(payloads)];
    std::printf("%10s | %14s %14s %14s\n", to_string(codes[c]).c_str(),
                classify_outcome(row[0]), classify_outcome(row[1]),
                classify_outcome(row[2]));
  }
  std::printf("(the paper's TASP is the secded/2-bit cell; every other cell "
              "is what an attacker tuned to a different code would get)\n\n");
  return 0;
}
