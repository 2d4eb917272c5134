// Shared pieces of the repository benchmark: run options, the raw result a
// workload hands back to main.cpp, and the in-memory span tracer used by the
// traced (--trace 1) runs.
//
// Spans are recorded only around calls into the library's public API from
// this directory; nothing inside src/ is instrumented. All spans are opened
// and closed on the main thread.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/generator.hpp"
#include "verify/census_digest.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Every per-layer metric a traced run reports, in output order.
inline constexpr const char* kLayerMetrics[] = {
    "noc.step_share",
    "noc.ns_per_router_step",
    "noc.active_router_ratio",
    "noc.inject_ns",
    "noc.inject_refused_ratio",
    "noc.step_pool_efficiency",
    "traffic.step_share",
    "traffic.model_build_ms",
    "sim.build_ms",
    "sim.run_ms.clean",
    "sim.run_ms.dos",
    "sim.run_ms.lob",
    "sim.run_ms.reroute",
    "verify.audit_share",
    "verify.audited_step_ratio",
    "verify.ns_per_audited_cycle",
    "verify.flits_tracked",
    "verify.audits",
    "verify.campaign_fanout_efficiency",
    "sweep.fanout_efficiency",
    "trojan.injections_per_kcycle",
    "mitigation.lob_successes",
    "mitigation.lob_log_hits",
    "mitigation.flits_purged",
    "tracing.overhead_share",
    "tracing.unaccounted_share",
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Raw measurements of one benchmark process. main.cpp writes them as JSON;
/// perfbench/run.py turns them into the reported metrics.
struct Result {
  /// Host seconds of each set-up (construction before timing).
  std::vector<double> setup_s;
  /// One timed repetition of the workload's fixed unit of work. A unit is
  /// short (seconds), so it sees one state of a noisy host; run.py takes
  /// percentiles within each unit and averages them over the run's units.
  struct Unit {
    double seconds = 0.0;     ///< Host time inside the timed region.
    std::uint64_t cycles = 0; ///< Simulated cycles it stepped.
    std::uint64_t digest = 0; ///< Digest of its simulated statistics.
    /// Host milliseconds of each run it completed: sweep run, campaign
    /// scenario, or one tenth of a mesh window.
    std::vector<double> run_ms;
    /// Host microseconds per simulated cycle: each step on the mesh
    /// workloads, each run's time over its cycles elsewhere.
    std::vector<double> step_us;
  };
  std::vector<Unit> units;

  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  /// Internal-consistency checks (any seed).
  std::vector<Check> checks;

  /// Simulation runs attempted and failed (threw or tripped the auditor).
  std::uint64_t run_attempts = 0;
  std::uint64_t run_failures = 0;

  /// Per-layer metrics (names from kLayerMetrics); filled by traced runs
  /// only. A metric a workload does not exercise is left out and reported
  /// as 0.
  std::map<std::string, double> layers;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// Fold a double's bit pattern into an FNV-1a digest.
[[nodiscard]] inline std::uint64_t fold_double(std::uint64_t h, double v) {
  return htnoc::verify::fnv1a_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// The kill-switch schedule Simulator::step applies before the network
/// step. Rigs that call Network::step directly run this first, which makes
/// them equal to Simulator::step whenever the mode is not reroute and the
/// auditor is off.
inline void apply_kill_switches(htnoc::sim::Simulator& sim) {
  const auto& attacks = sim.config().attacks;
  const htnoc::Cycle now = sim.network().now();
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    if (attacks[i].enable_killsw_at == now) sim.tasp(i).set_kill_switch(true);
  }
}

/// Whether one more unit of work, as long as the last one, still ends
/// within the run's `seconds` (the first unit always runs).
[[nodiscard]] inline bool another_unit_fits(std::int64_t start_ns,
                                            double seconds,
                                            double last_unit_s) {
  return seconds_since(start_ns) + last_unit_s <= seconds;
}

/// Attack and mitigation counters, summed the way SweepRunner::run_single
/// sums them into its RunResult.
struct AttackCounts {
  std::uint64_t trojan_injections = 0;
  std::uint64_t lob_successes = 0;
  std::uint64_t lob_log_hits = 0;
};

[[nodiscard]] inline AttackCounts attack_counts(htnoc::sim::Simulator& sim) {
  AttackCounts c;
  for (std::size_t t = 0; t < sim.num_trojans(); ++t) {
    c.trojan_injections += sim.tasp(t).stats().injections;
  }
  if (sim.has_lob()) {
    const htnoc::MeshGeometry& geom = sim.network().geometry();
    for (htnoc::RouterId r = 0; r < geom.num_routers(); ++r) {
      for (int port = 0; port < 4; ++port) {
        if (!geom.has_neighbor(r, htnoc::port_direction(port))) continue;
        const auto& ls = sim.lob(r, port).stats();
        c.lob_successes += ls.successes;
        c.lob_log_hits += ls.log_hits;
      }
    }
  }
  return c;
}

/// A run's cost class: "clean" without an attack, else what faces the
/// attack — "dos" (no mitigation), "lob" or "reroute".
[[nodiscard]] inline const char* run_class(htnoc::sim::MitigationMode mode,
                                           bool attacked) {
  if (!attacked) return "clean";
  switch (mode) {
    case htnoc::sim::MitigationMode::kNone: return "dos";
    case htnoc::sim::MitigationMode::kLOb: return "lob";
    case htnoc::sim::MitigationMode::kReroute: return "reroute";
  }
  return "clean";
}

/// Lower median; 0 for an empty sample.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

/// In-memory span recorder. A span has a name, a layer (one of the
/// repository's modules), start and end, and a parent: the span that was
/// open when it started. Self time is a span's duration minus the time its
/// direct children cover.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;  ///< nullptr for the root span (no layer).
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, const char* layer) : t_(t) {
      if (t_ != nullptr) idx_ = t_->open(name, layer);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  Tracer() { spans_.reserve(1u << 16); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self nanoseconds of every span.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    return self;
  }

  /// Self nanoseconds of every span with this name, in start order.
  [[nodiscard]] std::vector<double> self_ns_of(const std::string& name) const {
    const std::vector<std::int64_t> self = self_ns();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) out.push_back(static_cast<double>(self[i]));
    }
    return out;
  }

  /// Durations (nanoseconds) of every span with this name, in start order.
  [[nodiscard]] std::vector<double> durations_of(
      const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
  }

 private:
  int open(const char* name, const char* layer) {
    spans_.push_back({name, layer, now_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end = now_ns();
    current_ = s.parent;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

/// Per-run host time inside SweepRunner::run and FaultCampaign::run. Both
/// engines poll their should_stop hook on the worker thread right before it
/// claims a run and call their progress hook on the same thread right after
/// the run finishes, so the pair brackets exactly one run.
class RunClock {
 public:
  struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  bool on_claim() {
    claim_start() = now_ns();
    return false;  // never stop the engine
  }
  void on_done() {
    const Interval iv{claim_start(), now_ns()};
    const std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(iv);
  }
  /// Finished runs in claim order (start time order; the engines hand out
  /// run indices in claim order).
  [[nodiscard]] std::vector<Interval> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Interval> out = std::move(runs_);
    runs_.clear();
    std::sort(out.begin(), out.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    return out;
  }

 private:
  static std::int64_t& claim_start() {
    thread_local std::int64_t t = 0;
    return t;
  }
  std::mutex mu_;  ///< Guards runs_.
  std::vector<Interval> runs_;
};

/// A Simulator driven by one application traffic generator, built in the
/// order SweepRunner::run_single and FaultCampaign build theirs, with each
/// construction step as a span.
class TrafficRig {
 public:
  TrafficRig(htnoc::sim::SimConfig sc,
             const htnoc::traffic::AppProfile& profile,
             const htnoc::traffic::TrafficGenerator::Params& gp, Tracer* tr) {
    {
      const Tracer::Scope s(tr, "sim.build", "sim");
      simulator.emplace(std::move(sc));
    }
    htnoc::Network& net = simulator->network();
    disp.install(net);
    {
      const Tracer::Scope s(tr, "traffic.model_build", "traffic");
      model.emplace(net.geometry(), profile);
    }
    {
      const Tracer::Scope s(tr, "traffic.generator_build", "traffic");
      gen.emplace(net, *model, gp, disp);
    }
    simulator->set_drop_callback(
        [this](htnoc::PacketId id) { gen->requeue(id); });
  }
  TrafficRig(const TrafficRig&) = delete;
  TrafficRig& operator=(const TrafficRig&) = delete;

  std::optional<htnoc::sim::Simulator> simulator;
  htnoc::traffic::DeliveryDispatcher disp;
  std::optional<htnoc::traffic::AppTrafficModel> model;
  std::optional<htnoc::traffic::TrafficGenerator> gen;
};

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The three workloads (grid.cpp, mesh.cpp, campaign.cpp). A traced run
// records spans into `tracer` and fills Result::layers.
Result run_paper_grid(const Options& opt, Tracer* tracer);
Result run_mesh64_attacked(const Options& opt, Tracer* tracer);
Result run_campaign_audited(const Options& opt, Tracer* tracer);

}  // namespace perfbench
