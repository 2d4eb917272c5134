// The fault campaign's scenario distribution is a stability contract: the
// nightly soak's (seed, index) -> scenario mapping must not drift when new
// scenario dimensions land, or historical repro specs stop replaying the
// failures they were filed against. The golden summary below was recorded
// before the topology dimension existed; a default-spec campaign (no
// topology axis configured) must reproduce it byte for byte. A second
// golden pins the snapshot-forked (warmed) draw sequence the same way.
//
// Regenerating (only after an *intended* distribution change, with review):
//   HTNOC_UPDATE_GOLDEN=1 ./build/tests/test_campaign_topology
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "verify/campaign.hpp"

namespace {

using namespace htnoc;

verify::CampaignSpec default_spec() {
  verify::CampaignSpec spec;
  spec.seed = 0x601D;
  spec.scenarios = 48;
  spec.threads = 2;
  return spec;
}

/// Compare `summary` with the named golden, or rewrite the golden when
/// HTNOC_UPDATE_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& summary) {
  const std::string path = std::string(HTNOC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("HTNOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << summary;
    return;
  }

  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path
                  << " (regenerate with HTNOC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << is.rdbuf();
  EXPECT_EQ(want.str(), summary)
      << "campaign distribution drifted from " << name;
}

TEST(CampaignTopologyDefault, SummaryByteIdenticalToPreTopologyGolden) {
  const verify::CampaignResult result =
      verify::FaultCampaign(default_spec()).run();
  ASSERT_EQ(result.failures(), 0u) << result.summary_text();
  expect_golden("campaign_default_summary.txt", result.summary_text());
}

TEST(CampaignTopologyDefault, WarmupSummaryByteIdenticalToGolden) {
  // The snapshot-forked draw skips the substrate and traffic draws and
  // shifts every scheduled cycle past the warmup window; its sequence is as
  // much a repro contract as the cold one.
  verify::CampaignSpec spec = default_spec();
  spec.warmup_cycles = 200;
  const verify::CampaignResult result = verify::FaultCampaign(spec).run();
  ASSERT_EQ(result.failures(), 0u) << result.summary_text();
  expect_golden("campaign_warmup_summary.txt", result.summary_text());
}

TEST(CampaignTopologyMixed, CmeshAndMeshScenariosRunCleanUnderAudit) {
  // The opt-in path: scenarios drawing fabrics from both families must run
  // failure-free with the invariant auditor armed, and the descriptors must
  // show the dimension actually varies.
  verify::CampaignSpec spec = default_spec();
  spec.scenarios = 24;
  spec.topologies = {TopologyKind::kConcentratedMesh, TopologyKind::kMesh};
  const verify::CampaignResult result = verify::FaultCampaign(spec).run();
  EXPECT_EQ(result.failures(), 0u) << result.summary_text();

  std::set<std::string> families;
  for (const verify::ScenarioResult& s : result.scenarios) {
    if (s.descriptor.starts_with("topo=cmesh")) families.insert("cmesh");
    if (s.descriptor.starts_with("topo=mesh")) families.insert("mesh");
  }
  EXPECT_EQ(families.size(), 2u)
      << "expected cmesh and mesh scenarios in 24 draws";
}

}  // namespace
