// Unit coverage for the sweep engine: grid expansion and seeding,
// aggregation math, worker-count resolution, the fan_out claim loop, and
// error containment when a run throws mid-sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "common/expect.hpp"
#include "sweep/emit.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/spec_json.hpp"

namespace htnoc {
namespace {

sweep::SweepSpec tiny_spec() {
  sweep::SweepSpec spec;
  spec.modes = {sim::MitigationMode::kNone};
  spec.attack_scenarios = {{"none", {}}};
  spec.profiles = {"blackscholes"};
  spec.rate_scales = {1.0};
  spec.replicates = 1;
  spec.run_cycles = 120;  // keep unit tests fast
  return spec;
}

sim::AttackSpec single_tasp(Cycle enable_at) {
  sim::AttackSpec a;
  a.link = {4, Direction::kNorth};
  a.tasp.kind = trojan::TargetKind::kDest;
  a.tasp.target_dest = 0;
  a.enable_killsw_at = enable_at;
  return a;
}

TEST(GridExpansion, CountsAndOrder) {
  sweep::SweepSpec spec = tiny_spec();
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kLOb};
  spec.attack_scenarios = {{"none", {}}, {"single", {single_tasp(50)}}};
  spec.profiles = {"blackscholes", "fft", "ferret"};
  spec.rate_scales = {0.5, 1.0};
  spec.replicates = 3;

  const auto runs = sweep::expand(spec);
  EXPECT_EQ(spec.num_grid_points(), 2u * 2u * 3u * 2u);
  ASSERT_EQ(runs.size(), spec.num_grid_points() * 3u);

  // Replicates of a point are adjacent; points are mode-major.
  EXPECT_EQ(runs[0].point.linear, 0u);
  EXPECT_EQ(runs[0].replicate, 0);
  EXPECT_EQ(runs[1].point.linear, 0u);
  EXPECT_EQ(runs[1].replicate, 1);
  EXPECT_EQ(runs[3].point.linear, 1u);
  EXPECT_EQ(runs.front().mode, sim::MitigationMode::kNone);
  EXPECT_EQ(runs.back().mode, sim::MitigationMode::kLOb);
  EXPECT_EQ(runs.back().point.linear, spec.num_grid_points() - 1);
  EXPECT_EQ(runs.back().replicate, 2);
  // Rate is the innermost axis.
  EXPECT_EQ(runs[0].rate_scale, 0.5);
  EXPECT_EQ(runs[3].rate_scale, 1.0);
  EXPECT_EQ(runs[6].profile, "fft");
  // Attacks resolved by value.
  EXPECT_TRUE(runs[0].attacks.empty());
  const std::size_t runs_per_attack = 3 * 2 * 3;  // profiles*rates*reps
  EXPECT_EQ(runs[runs_per_attack].attack_name, "single");
  ASSERT_EQ(runs[runs_per_attack].attacks.size(), 1u);
}

TEST(GridExpansion, SeedsAreStableAndDistinct) {
  sweep::SweepSpec spec = tiny_spec();
  spec.modes = {sim::MitigationMode::kNone, sim::MitigationMode::kReroute};
  spec.rate_scales = {1.0, 1.5};
  spec.replicates = 4;

  const auto a = sweep::expand(spec);
  const auto b = sweep::expand(spec);
  ASSERT_EQ(a.size(), b.size());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "expansion must be reproducible";
    EXPECT_EQ(a[i].seed,
              sweep::derive_run_seed(spec.base_seed, a[i].point.linear,
                                     static_cast<std::uint64_t>(
                                         a[i].replicate)));
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size()) << "per-run seeds must not collide";

  // Seeds must not alias across the (point, replicate) diagonal.
  EXPECT_NE(sweep::derive_run_seed(1, 0, 1), sweep::derive_run_seed(1, 1, 0));
}

TEST(GridExpansion, EmptyAxesRejected) {
  {
    sweep::SweepSpec s = tiny_spec();
    s.modes.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.attack_scenarios.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.profiles.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.rate_scales.clear();
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.replicates = 0;
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
  {
    sweep::SweepSpec s = tiny_spec();
    s.attack_scenarios = {{"", {}}};  // unnamed scenarios break labels
    EXPECT_THROW((void)sweep::expand(s), ContractViolation);
  }
}

TEST(Aggregation, HandComputedMeanStddevMinMax) {
  const auto a = sweep::aggregate_values({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_NEAR(a.stddev, std::sqrt(5.0 / 3.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);

  const auto b = sweep::aggregate_values({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(b.mean, 5.0);
  EXPECT_NEAR(b.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(b.min, 2.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);

  const auto single = sweep::aggregate_values({42.0});
  EXPECT_DOUBLE_EQ(single.mean, 42.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);  // n < 2: no spread estimate
  EXPECT_DOUBLE_EQ(single.min, 42.0);
  EXPECT_DOUBLE_EQ(single.max, 42.0);

  const auto empty = sweep::aggregate_values({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
}

TEST(Aggregation, GroupsReplicatesByGridPoint) {
  sweep::SweepSpec spec = tiny_spec();
  spec.rate_scales = {0.5, 1.0};
  spec.replicates = 3;
  const auto result = sweep::SweepRunner({1}).run(spec);
  ASSERT_EQ(result.runs.size(), 6u);
  ASSERT_EQ(result.summary.size(), 2u);
  for (const auto& gs : result.summary) {
    EXPECT_EQ(gs.replicates, 3);
    EXPECT_EQ(gs.failures, 0);
    ASSERT_EQ(gs.metrics.size(), sweep::RunResult::metric_names().size());
  }
  // The aggregate of `delivered` must equal the hand-aggregated per-run
  // values of the same grid point.
  std::vector<double> delivered;
  for (const auto& r : result.runs) {
    if (r.spec.point.linear == 0) {
      delivered.push_back(static_cast<double>(r.traffic.packets_delivered));
    }
  }
  const auto expect = sweep::aggregate_values(delivered);
  const auto& got = result.summary[0].metrics[0];  // "delivered"
  EXPECT_DOUBLE_EQ(got.mean, expect.mean);
  EXPECT_DOUBLE_EQ(got.stddev, expect.stddev);
  EXPECT_DOUBLE_EQ(got.min, expect.min);
  EXPECT_DOUBLE_EQ(got.max, expect.max);
  // Replicates actually differ (the seeds decorrelate them), so the spread
  // of the (continuous-valued) mean latency is non-zero — the aggregation
  // is not degenerate.
  EXPECT_GT(result.summary[0].metrics[1].stddev, 0.0);  // "avg_latency"
}

TEST(SweepRunner, WorkerCountResolution) {
  EXPECT_GE(sweep::SweepRunner::resolve_threads(0, 100), 1);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(3, 100), 3);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(64, 5), 5)
      << "never more workers than runs";
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(-2, 1), 1);
  EXPECT_EQ(sweep::SweepRunner::resolve_threads(8, 0), 8)
      << "zero runs: any positive count is fine";
}

TEST(FanOut, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t n : {0, 1, 37}) {
      std::vector<std::atomic<int>> hits(n);
      const std::size_t claimed = sweep::fan_out(
          n, threads, [&hits](std::size_t i) { hits[i].fetch_add(1); });
      EXPECT_EQ(claimed, n) << "threads=" << threads;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(FanOut, StopAfterKClaimsRunsExactlyThePrefix) {
  // The token answers "go" to its first k polls only; every poll that says
  // go is followed by a claim, so exactly k indices are claimed whatever
  // the thread count, and they are the prefix [0, k).
  constexpr std::size_t kN = 37;
  constexpr std::size_t kStop = 5;
  for (const int threads : {1, 2, 8}) {
    std::atomic<std::size_t> polls{0};
    std::vector<std::atomic<int>> hits(kN);
    const std::size_t claimed = sweep::fan_out(
        kN, threads, [&hits](std::size_t i) { hits[i].fetch_add(1); },
        [&polls] { return polls.fetch_add(1) >= kStop; });
    EXPECT_EQ(claimed, kStop) << "threads=" << threads;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), i < kStop ? 1 : 0)
          << "threads=" << threads << " i=" << i;
    }
  }
}

// Per-thread hook trace for the ordering test: a poll, then at most one
// item, then that item's progress call, all on one thread.
struct HookTrace {
  bool polled = false;
  bool ran_item = false;
};
thread_local HookTrace tls_hooks;

TEST(FanOut, ProgressFollowsEachItemOnItsPollingThread) {
  constexpr std::size_t kN = 37;
  for (const int threads : {1, 2, 8}) {
    tls_hooks = {};  // the calling thread is the worker when threads == 1
    std::atomic<int> violations{0};
    std::mutex mu;
    std::vector<std::size_t> dones;
    const std::size_t claimed = sweep::fan_out(
        kN, threads,
        [&violations](std::size_t) {
          if (!tls_hooks.polled || tls_hooks.ran_item) ++violations;
          tls_hooks.ran_item = true;
        },
        [&violations] {
          if (tls_hooks.ran_item) ++violations;  // last item had no progress
          tls_hooks.polled = true;
          return false;
        },
        [&](std::size_t done, std::size_t total) {
          if (!tls_hooks.polled || !tls_hooks.ran_item || total != kN) {
            ++violations;
          }
          tls_hooks = {};
          const std::lock_guard<std::mutex> lock(mu);
          dones.push_back(done);
        });
    EXPECT_EQ(claimed, kN);
    EXPECT_EQ(violations.load(), 0) << "threads=" << threads;
    // Once per item, counting 1..n, so the last call reports (n, n).
    std::sort(dones.begin(), dones.end());
    std::vector<std::size_t> expected(kN);
    std::iota(expected.begin(), expected.end(), std::size_t{1});
    EXPECT_EQ(dones, expected) << "threads=" << threads;
  }
}

TEST(SweepRunner, ExceptionMidSweepIsContained) {
  sweep::SweepSpec spec = tiny_spec();
  // Second grid point throws inside the run (unknown profile); the sweep
  // must still finish the good runs and report the error per-slot.
  spec.profiles = {"blackscholes", "no_such_profile"};
  spec.replicates = 2;
  const auto result = sweep::SweepRunner({2}).run(spec);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.failures(), 2u);
  for (const auto& r : result.runs) {
    if (r.spec.profile == "no_such_profile") {
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.error.empty());
    } else {
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_GT(r.traffic.packets_delivered, 0u);
    }
  }
  ASSERT_EQ(result.summary.size(), 2u);
  EXPECT_EQ(result.summary[0].replicates, 2);
  EXPECT_EQ(result.summary[0].failures, 0);
  EXPECT_EQ(result.summary[1].replicates, 0);
  EXPECT_EQ(result.summary[1].failures, 2);
  // Failed runs serialize with their error instead of metrics.
  const std::string json = sweep::to_json(result);
  EXPECT_NE(json.find("no_such_profile"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST(SweepRunner, ProbeSeriesRecordedWhenEnabled) {
  sweep::SweepSpec spec = tiny_spec();
  spec.run_cycles = 200;
  spec.probe_period = 50;
  const auto result = sweep::SweepRunner({1}).run(spec);
  ASSERT_EQ(result.runs.size(), 1u);
  const auto& r = result.runs[0];
  ASSERT_EQ(r.util_series.size(), 4u);  // cycles 50,100,150,200
  ASSERT_EQ(r.throughput_series.size(), 4u);
  EXPECT_EQ(r.util_series[0].cycle, 50u);
  EXPECT_EQ(r.throughput_series.back().cycle, 200u);
  EXPECT_EQ(r.throughput_series.back().primary_delivered,
            r.traffic.packets_delivered);
}

TEST(CancelDeterminism, CancelledSweepHoldsClaimedPrefix) {
  // The cancelled result holds exactly the claimed prefix of the expansion
  // order, and its runs match a direct run truncated to the same prefix.
  const sweep::SweepSpec spec = sweep::parse_sweep_spec(R"({
    "modes": ["none", "lob", "reroute"], "attacks": ["single"],
    "profiles": ["blackscholes"], "rates": [1.0],
    "replicates": 2, "seed": "0x5eed", "cycles": 120})");

  std::atomic<std::uint64_t> completed{0};
  sweep::SweepRunner::Options opts;
  opts.num_threads = 1;
  opts.progress = [&completed](std::size_t done, std::size_t) {
    completed.store(done, std::memory_order_relaxed);
  };
  opts.should_stop = [&completed] {
    return completed.load(std::memory_order_relaxed) >= 2;
  };
  const sweep::SweepResult result = sweep::SweepRunner(opts).run(spec);
  EXPECT_TRUE(result.cancelled);
  ASSERT_GE(result.runs.size(), 2u);
  ASSERT_LT(result.runs.size(), 6u);

  const sweep::SweepResult full =
      sweep::SweepRunner(sweep::SweepRunner::Options{}).run(spec);
  ASSERT_EQ(full.runs.size(), 6u);
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    EXPECT_EQ(result.runs[i].spec.label(), full.runs[i].spec.label()) << i;
    EXPECT_EQ(result.runs[i].metrics(), full.runs[i].metrics()) << i;
  }
}

}  // namespace
}  // namespace htnoc
