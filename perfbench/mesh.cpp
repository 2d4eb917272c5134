// mesh64_attacked: a 64x64 mesh under a TASP on router k's northbound
// feeder targeting dest 0, with L-Ob mitigation, driven by hand through
// Network::try_inject as bench_microbench's drive_loaded_fabric does, so the
// measurement is the router datapath rather than the traffic model. By
// cycle 400 the trojan has fired and most routers have a blocked port.
//
// Each run first simulates a fixed warm-up once and snapshots the fabric.
// One unit of work then builds a fresh fabric, restores the snapshot (the
// set-up) and steps a fixed timed window; a run repeats the unit while it
// fits in --seconds. Every unit of a run is the same simulation, so every
// unit digest agrees.
//
// Timed windows step serially. With two step threads the 64x64 figures
// spread up to 0.26 from run to run on a shared 4-core host, against 0.04-0.10
// serially, so the step pool is measured by the traced run instead: the
// same window with two threads, timed against the serial one and checked
// bit-identical to it.
#include <optional>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "sweep/spec.hpp"
#include "verify/snapshot.hpp"

namespace perfbench {
namespace {

using namespace htnoc;

constexpr int kK = 64;          ///< Mesh width and height.
constexpr Cycle kWarmup = 400;  ///< Cycles simulated once per run.
constexpr Cycle kWindow = 100;  ///< Timed cycles per unit.

/// Step threads of the traced step-pool window. Results are bit-identical
/// at any count.
constexpr int kPoolThreads = 2;

sim::SimConfig mesh_config(std::uint64_t seed, int step_threads) {
  sim::SimConfig sc;
  sc.noc.topology = TopologyKind::kMesh;
  sc.noc.mesh_width = kK;
  sc.noc.mesh_height = kK;
  sc.noc.concentration = 1;
  sc.noc.step_threads = step_threads;
  sc.noc.seed = sweep::mix_seed(seed, 2);
  sc.seed = sweep::mix_seed(seed, 1);
  sc.mode = sim::MitigationMode::kLOb;
  sim::AttackSpec a;
  a.link = {static_cast<RouterId>(kK), Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = 0;
  sc.attacks.push_back(a);
  return sc;
}

/// The fabric after the warm-up, and the injection stream at that point.
struct Warmed {
  std::vector<std::uint8_t> blob;
  Rng rng{0};
};

/// A fabric plus its injection stream, both derived from the run seed.
class MeshUnit {
 public:
  /// A fresh fabric at cycle 0, or one restored from `warm`.
  MeshUnit(std::uint64_t seed, int step_threads, const Warmed* warm,
           Tracer* tr)
      : rng_(sweep::mix_seed(seed, 3)) {
    {
      const Tracer::Scope s(tr, "sim.build", "sim");
      sim_.emplace(mesh_config(seed, step_threads));
    }
    if (warm != nullptr) {
      const Tracer::Scope s(tr, "verify.restore", "verify");
      verify::load_snapshot(*sim_, {}, warm->blob);
      rng_ = warm->rng;
    }
    cores_ = sim_->network().geometry().num_cores();
    per_cycle_ = cores_ / 32 > 0 ? cores_ / 32 : 1;
  }

  [[nodiscard]] sim::Simulator& sim() { return *sim_; }
  [[nodiscard]] Network& net() { return sim_->network(); }
  [[nodiscard]] const Rng& rng() const { return rng_; }

  /// Offer this cycle's packets: cores/32 uniform-random packets of 1-4
  /// flits. A refused packet is dropped, as in drive_loaded_fabric.
  void inject(Tracer* tr) {
    Network& n = net();
    const MeshGeometry& geom = n.geometry();
    for (int i = 0; i < per_cycle_; ++i) {
      PacketInfo info;
      info.id = n.next_packet_id();
      info.src_core = static_cast<NodeId>(
          rng_.next_below(static_cast<std::uint64_t>(cores_)));
      info.dest_core = static_cast<NodeId>(
          rng_.next_below(static_cast<std::uint64_t>(cores_)));
      info.src_router = geom.router_of_core(info.src_core);
      info.dest_router = geom.router_of_core(info.dest_core);
      info.length = static_cast<int>(rng_.next_in(1, 4));
      info.inject_cycle = n.now();
      payload_.assign(static_cast<std::size_t>(info.length), 0xDA7Aull);
      bool accepted = false;
      {
        const Tracer::Scope s(tr, "noc.inject", "noc");
        accepted = n.try_inject(info, payload_);
      }
      ++attempts;
      refused += accepted ? 0 : 1;
    }
  }

  /// Simulated state at the end of the unit.
  [[nodiscard]] std::uint64_t digest() {
    return verify::fnv1a_u64(verify::state_digest(net()),
                             net().packets_delivered());
  }

  std::uint64_t attempts = 0;
  std::uint64_t refused = 0;

 private:
  std::optional<sim::Simulator> sim_;
  Rng rng_;
  int cores_ = 0;
  int per_cycle_ = 1;
  std::vector<std::uint64_t> payload_;
};

// Serial, like the timed windows: step-pool workers allocate from their own
// malloc arenas, which made the process's peak RSS depend on allocator
// timing.
Warmed warm_up(std::uint64_t seed) {
  MeshUnit u(seed, 1, nullptr, nullptr);
  for (Cycle c = 0; c < kWarmup; ++c) {
    u.inject(nullptr);
    u.sim().step();
  }
  return {verify::save_snapshot(u.sim()), u.rng()};
}

/// Timings of one untraced unit.
struct UnitTiming {
  double setup_s = 0.0;   ///< Build + snapshot restore.
  double unit_s = 0.0;    ///< Set-up + window.
  double window_s = 0.0;
  std::uint64_t digest = 0;
  AttackCounts attack;
  std::uint64_t flits_purged = 0;
};

/// Runs a unit; with `timed` set, records its samples there. A mesh
/// "run" is one tenth of the window.
UnitTiming run_unit(std::uint64_t seed, int step_threads, const Warmed& warm,
                    Result::Unit* timed) {
  UnitTiming t;
  const std::int64_t t0 = now_ns();
  MeshUnit u(seed, step_threads, &warm, nullptr);
  const std::int64_t tw = now_ns();
  t.setup_s = static_cast<double>(tw - t0) * 1e-9;
  const Cycle slice = kWindow / 10;
  std::int64_t prev = tw;
  std::int64_t slice_start = tw;
  for (Cycle c = 1; c <= kWindow; ++c) {
    u.inject(nullptr);
    u.sim().step();
    const std::int64_t now = now_ns();
    if (timed != nullptr) {
      timed->step_us.push_back(static_cast<double>(now - prev) * 1e-3);
      if (c % slice == 0) {
        timed->run_ms.push_back(static_cast<double>(now - slice_start) * 1e-6);
        slice_start = now;
      }
    }
    prev = now;
  }
  t.window_s = static_cast<double>(prev - tw) * 1e-9;
  t.unit_s = static_cast<double>(prev - t0) * 1e-9;
  t.digest = u.digest();
  t.attack = attack_counts(u.sim());
  t.flits_purged = u.sim().stats().flits_purged_total;
  return t;
}

Result traced(std::uint64_t seed, Tracer& tr) {
  Result r;
  const Warmed warm = warm_up(seed);
  // Untraced references first: the timed unit, and the same unit on the
  // step pool.
  const UnitTiming ref = run_unit(seed, 1, warm, nullptr);
  const UnitTiming pool = run_unit(seed, kPoolThreads, warm, nullptr);
  r.run_attempts = 2;
  r.check("step_threads=" + std::to_string(kPoolThreads) + " equals serial",
          pool.digest == ref.digest);
  r.layers["noc.step_pool_efficiency"] =
      ref.window_s / (kPoolThreads * pool.window_s);

  Network::StepStats before;
  Network::StepStats after;
  std::uint64_t attempts = 0;
  std::uint64_t refused = 0;
  std::uint64_t digest = 0;
  {
    const Tracer::Scope root(&tr, "perfbench", nullptr);
    MeshUnit u(seed, 1, &warm, &tr);
    before = u.net().step_stats();
    // With no auditor and a mode other than reroute, Simulator::step is
    // the kill-switch schedule plus Network::step.
    const Tracer::Scope window(&tr, "sim.window", "sim");
    for (Cycle c = 0; c < kWindow; ++c) {
      u.inject(&tr);
      apply_kill_switches(u.sim());
      const Tracer::Scope s(&tr, "noc.step", "noc");
      u.net().step();
    }
    after = u.net().step_stats();
    attempts = u.attempts;
    refused = u.refused;
    digest = u.digest();
  }
  ++r.run_attempts;
  r.check("traced rig equals the timed unit", digest == ref.digest);

  const double wall = tr.durations_of("perfbench").front();
  const double noc_step_ns = sum(tr.self_ns_of("noc.step"));
  const double steps =
      static_cast<double>(after.router_steps - before.router_steps);
  const double skips =
      static_cast<double>(after.router_skips - before.router_skips);
  r.layers["noc.step_share"] = noc_step_ns / wall;
  r.layers["noc.ns_per_router_step"] = noc_step_ns / steps;
  r.layers["noc.active_router_ratio"] = steps / (steps + skips);
  r.layers["noc.inject_ns"] = median(tr.durations_of("noc.inject"));
  r.layers["noc.inject_refused_ratio"] =
      static_cast<double>(refused) / static_cast<double>(attempts);
  r.layers["sim.build_ms"] = tr.durations_of("sim.build").front() * 1e-6;
  r.layers["sim.run_ms.lob"] = ref.unit_s * 1e3;
  // Counted over warm-up and window: the attack state is restored from the
  // snapshot with the rest of the fabric.
  r.layers["trojan.injections_per_kcycle"] =
      1000.0 * static_cast<double>(ref.attack.trojan_injections) /
      static_cast<double>(kWarmup + kWindow);
  r.layers["mitigation.lob_successes"] =
      static_cast<double>(ref.attack.lob_successes);
  r.layers["mitigation.lob_log_hits"] =
      static_cast<double>(ref.attack.lob_log_hits);
  r.layers["mitigation.flits_purged"] = static_cast<double>(ref.flits_purged);
  r.layers["tracing.overhead_share"] =
      tr.durations_of("sim.window").front() * 1e-9 / ref.window_s - 1.0;
  r.layers["tracing.unaccounted_share"] =
      tr.self_ns_of("perfbench").front() / wall;
  return r;
}

}  // namespace

Result run_mesh64_attacked(const Options& opt, Tracer* tracer) {
  if (tracer != nullptr) return traced(opt.seed, *tracer);
  Result r;
  const Warmed warm = warm_up(opt.seed);
  const std::int64_t start = now_ns();
  double unit_s = 0.0;
  do {
    Result::Unit unit;
    const UnitTiming t = run_unit(opt.seed, 1, warm, &unit);
    unit_s = t.unit_s;
    unit.seconds = t.window_s;
    unit.cycles = kWindow;
    unit.digest = t.digest;
    r.units.push_back(std::move(unit));
    r.setup_s.push_back(t.setup_s);
    ++r.run_attempts;
  } while (another_unit_fits(start, opt.seconds, unit_s));
  return r;
}

}  // namespace perfbench
