// Figure 10 — speedup of continuing to use infected links through s2s L-Ob
// obfuscation versus disabling them and rerouting (the Ariadne baseline),
// for four application profiles at 0/5/10/15% infected links.
//
// Speedup is completion time of the rerouting run divided by completion
// time of the L-Ob run for the same workload; the rerouting series is the
// 1.0 reference, matching the paper's presentation.
//
// The 16 L-Ob/reroute pairs are independent runs fanned out over `--jobs N`
// / $HTNOC_JOBS workers; the printed table is identical for any count.
#include <cstdio>
#include <iterator>

#include "bench_common.hpp"

namespace {

struct PolicyPair {
  htnoc::bench::CompletionResult lob;
  htnoc::bench::CompletionResult rr;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace htnoc;
  const int jobs = bench::parse_jobs(argc, argv);
  bench::print_header("Figure 10",
                      "s2s L-Ob vs rerouting (Ariadne) speedup sweep");

  const char* apps[] = {"blackscholes", "facesim", "ferret", "fft"};
  const int percents[] = {0, 5, 10, 15};
  constexpr std::uint64_t kRequests = 2500;
  // Offered load scaled so the network — not the injection process — is
  // the bottleneck: completion time then reflects sustained network
  // capacity under each mitigation.
  constexpr double kRateScale = 5.0;
  const auto pairs = bench::parallel_map(
      std::size(apps) * std::size(percents), jobs, [&](std::size_t i) {
        const char* app = apps[i / std::size(percents)];
        const auto infected =
            bench::infected_links(percents[i % std::size(percents)]);
        return PolicyPair{
            bench::run_completion(app, sim::MitigationMode::kLOb, infected,
                                  kRequests, 2000000, 1, kRateScale),
            bench::run_completion(app, sim::MitigationMode::kReroute,
                                  infected, kRequests, 2000000, 1,
                                  kRateScale)};
      });

  std::printf("\n%-14s %6s | %12s %12s | %10s %10s\n", "app", "links%",
              "T_lob(cyc)", "T_rr(cyc)", "lob spdup", "rr spdup");
  std::size_t next = 0;
  for (const char* app : apps) {
    for (const int pct : percents) {
      const auto& [lob, rr] = pairs[next++];
      if (!lob.done || !rr.done) {
        std::printf("%-14s %5d%% | %12s %12s | did not complete in budget\n",
                    app, pct, lob.done ? "done" : "STUCK",
                    rr.done ? "done" : "STUCK");
        continue;
      }
      const double speedup =
          static_cast<double>(rr.cycles) / static_cast<double>(lob.cycles);
      std::printf("%-14s %5d%% | %12llu %12llu | %10.2f %10.2f\n", app, pct,
                  static_cast<unsigned long long>(lob.cycles),
                  static_cast<unsigned long long>(rr.cycles), speedup, 1.0);
    }
    std::printf("\n");
  }
  std::printf("(paper Fig. 10: L-Ob speedup grows with infection rate, up to "
              "~2.5-3x at 15%%)\n\n");
  return 0;
}
