// Shared helpers for the experiment benches. Each bench binary regenerates
// one table or figure of the paper (see DESIGN.md, experiment index) and
// prints the corresponding rows/series to stdout.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/simulator.hpp"
#include "sweep/runner.hpp"
#include "traffic/generator.hpp"

namespace htnoc::bench {

/// Worker-thread count for the multi-run benches: `--jobs N` / `--jobs=N`
/// on the command line, else 0. Any integer <= 0 means auto ($HTNOC_JOBS,
/// then the core count; see SweepRunner::resolve_threads). A missing or
/// non-integer value exits with status 2.
inline int parse_jobs(int argc, char** argv) {
  const auto parse = [&](const char* text) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < INT_MIN ||
        v > INT_MAX) {
      std::fprintf(stderr, "usage: %s [--jobs N] (N an integer, <= 0: auto)\n",
                   argv[0]);
      std::exit(2);
    }
    return static_cast<int>(v);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      return parse(i + 1 < argc ? argv[i + 1] : "");
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) return parse(argv[i] + 7);
  }
  return 0;
}

/// fn(i) for every i in [0, n), fanned out over `jobs` workers (resolved
/// like the sweep benches' --jobs) on sweep::fan_out, returned in index
/// order — so whatever is printed from the results is identical for any
/// worker count. Each fn(i) must own its simulation state and not throw.
template <typename Fn>
auto parallel_map(std::size_t n, int jobs, const Fn& fn) {
  using R = decltype(fn(std::size_t{}));
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> packs slots into shared words");
  std::vector<R> out(n);
  sweep::fan_out(n, sweep::SweepRunner::resolve_threads(jobs, n),
                 [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// The attack configuration used across the network-behaviour benches:
/// a single TASP on the column-0 northbound feeder into router 0, tuned to
/// the victim application's destination (Sec. V-B2 setup).
inline sim::AttackSpec paper_attack(Cycle enable_at) {
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  return a;
}

/// Infected-link sets for the Fig. 10 sweep. All lie on destination-router-0
/// paths and leave the mesh connected when the rerouting policy disables
/// them bidirectionally. 48 mesh links total, so the sets correspond to
/// roughly 0 / 5 / 10 / 15 percent.
inline std::vector<LinkRef> infected_links(int percent) {
  switch (percent) {
    case 0: return {};
    case 5: return {{2, Direction::kWest}, {8, Direction::kNorth}};
    case 10:
      return {{2, Direction::kWest},
              {8, Direction::kNorth},
              {5, Direction::kWest},
              {9, Direction::kWest},
              {3, Direction::kWest}};
    case 15:
      return {{2, Direction::kWest},
              {8, Direction::kNorth},
              {5, Direction::kWest},
              {9, Direction::kWest},
              {3, Direction::kWest},
              {6, Direction::kWest},
              {10, Direction::kWest}};
    default: throw ContractViolation("unsupported infection percentage");
  }
}

struct CompletionResult {
  bool done = false;
  Cycle cycles = 0;
  double avg_latency = 0.0;
  std::uint64_t delivered = 0;
};

/// Run `profile` to completion of `requests` request packets under the
/// given mitigation mode and infected-link set.
inline CompletionResult run_completion(const std::string& profile_name,
                                       sim::MitigationMode mode,
                                       const std::vector<LinkRef>& infected,
                                       std::uint64_t requests,
                                       Cycle budget = 2000000,
                                       std::uint64_t seed = 1,
                                       double rate_scale = 1.0) {
  sim::SimConfig sc;
  sc.mode = mode;
  for (const LinkRef& l : infected) {
    sim::AttackSpec a;
    a.link = l;
    a.tasp.kind = trojan::TargetKind::kDest;
    a.tasp.target_dest = 0;
    a.enable_killsw_at = 1000;
    sc.attacks.push_back(a);
  }
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();
  traffic::DeliveryDispatcher disp;
  disp.install(net);
  auto profile = traffic::profile_by_name(profile_name);
  profile.injection_rate *= rate_scale;
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = seed;
  gp.total_requests = requests;
  traffic::TrafficGenerator gen(net, model, gp, disp);
  simulator.set_drop_callback([&](PacketId id) { gen.requeue(id); });

  CompletionResult res;
  while (!gen.done() && res.cycles < budget) {
    gen.step();
    simulator.step();
    ++res.cycles;
  }
  res.done = gen.done();
  res.avg_latency = gen.stats().avg_latency();
  res.delivered = gen.stats().packets_delivered;
  return res;
}

inline void print_header(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("(reproduction; see EXPERIMENTS.md for paper-vs-measured notes)\n");
  std::printf("==============================================================\n");
}

}  // namespace htnoc::bench
