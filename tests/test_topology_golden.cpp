// Golden-model differential suite for the topology/routing layer.
//
// The per-cycle FNV-1a census digests of the paper's 4x4 concentrated mesh
// were recorded from the legacy hard-coded fabric (the pre-topology-layer
// implementation) and checked in under tests/golden/. Every run since is
// byte-compared against that record under idle, loaded and attacked
// traffic, so any refactor of topology construction, routing selection or
// the step loop that changes even one flit placement on the seed fabric
// fails here at the exact cycle it diverges. A loaded 8x8 plain mesh
// (concentration 1) is locked the same way, so a change to the geometry
// both fabrics share shows on each of them.
//
// Regenerating (only after an *intended* behavior change, with review):
//   HTNOC_UPDATE_GOLDEN=1 ./build/tests/test_topology_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/app_profile.hpp"
#include "traffic/generator.hpp"
#include "verify/census_digest.hpp"

namespace {

using namespace htnoc;

enum class Load : std::uint8_t { kIdle, kLoaded, kAttacked };

enum class Fabric : std::uint8_t { kCmesh4x4, kMesh8x8 };

/// Drive a fixed-seed scenario on the given fabric and record the state
/// digest after every step() call.
std::vector<std::uint64_t> run_digests(Load load, Cycle cycles,
                                       Fabric fabric = Fabric::kCmesh4x4) {
  sim::SimConfig sc;
  if (fabric == Fabric::kMesh8x8) {
    sc.noc.topology = TopologyKind::kMesh;
    sc.noc.mesh_width = 8;
    sc.noc.mesh_height = 8;
    sc.noc.concentration = 1;
  }
  sc.noc.seed = 0xBEEF;
  sc.seed = 0xF00D;
  if (load == Load::kAttacked) {
    sc.mode = sim::MitigationMode::kLOb;
    sim::AttackSpec atk;
    atk.link = {5, Direction::kEast};
    atk.tasp.kind = trojan::TargetKind::kDest;
    atk.tasp.target_dest = 0;
    atk.enable_killsw_at = 150;
    sc.attacks.push_back(atk);
  }
  sim::Simulator simulator(std::move(sc));
  Network& net = simulator.network();

  traffic::DeliveryDispatcher disp;
  disp.install(net);
  traffic::AppProfile profile = traffic::profile_by_name("facesim");
  traffic::AppTrafficModel model(net.geometry(), profile);
  traffic::TrafficGenerator::Params gp;
  gp.seed = 0x5EED;
  traffic::TrafficGenerator gen(net, model, gp, disp);

  std::vector<std::uint64_t> out;
  out.reserve(cycles);
  for (Cycle c = 0; c < cycles; ++c) {
    if (load != Load::kIdle) gen.step();
    simulator.step();
    out.push_back(verify::state_digest(net));
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(HTNOC_GOLDEN_DIR) + "/" + name;
}

bool update_mode() { return std::getenv("HTNOC_UPDATE_GOLDEN") != nullptr; }

void write_golden(const std::string& name,
                  const std::vector<std::uint64_t>& digests) {
  std::ofstream os(golden_path(name));
  ASSERT_TRUE(os) << "cannot write " << golden_path(name);
  os << "# per-cycle FNV-1a census digests of " << name << "\n";
  char buf[32];
  for (const std::uint64_t d : digests) {
    std::snprintf(buf, sizeof buf, "%016llx\n",
                  static_cast<unsigned long long>(d));
    os << buf;
  }
}

std::vector<std::uint64_t> read_golden(const std::string& name) {
  std::ifstream is(golden_path(name));
  EXPECT_TRUE(is) << "missing golden file " << golden_path(name)
                  << " (regenerate with HTNOC_UPDATE_GOLDEN=1)";
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(std::stoull(line, nullptr, 16));
  }
  return out;
}

void check_against_golden(const std::string& name, Load load, Cycle cycles,
                          Fabric fabric = Fabric::kCmesh4x4) {
  const std::vector<std::uint64_t> got = run_digests(load, cycles, fabric);
  if (update_mode()) {
    write_golden(name, got);
    return;
  }
  const std::vector<std::uint64_t> want = read_golden(name);
  ASSERT_EQ(want.size(), got.size()) << name;
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(want[c], got[c])
        << name << ": first divergence from the recorded fabric at cycle " << c;
  }
}

TEST(TopologyGolden, IdleCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_idle.digests", Load::kIdle, 300);
}

TEST(TopologyGolden, LoadedCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_loaded.digests", Load::kLoaded, 600);
}

TEST(TopologyGolden, AttackedCmesh4x4MatchesLegacyFabric) {
  check_against_golden("cmesh4x4_attacked.digests", Load::kAttacked, 600);
}

TEST(TopologyGolden, LoadedMesh8x8MatchesRecordedFabric) {
  check_against_golden("mesh8x8_loaded.digests", Load::kLoaded, 600,
                       Fabric::kMesh8x8);
}

}  // namespace
