#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/expect.hpp"
#include "common/types.hpp"

namespace htnoc {
namespace {

TEST(Config, DefaultsMatchPaperPlatform) {
  const NocConfig cfg;
  EXPECT_EQ(cfg.mesh_width, 4);
  EXPECT_EQ(cfg.mesh_height, 4);
  EXPECT_EQ(cfg.concentration, 4);
  EXPECT_EQ(cfg.num_cores(), 64);
  EXPECT_EQ(cfg.num_routers(), 16);
  EXPECT_EQ(cfg.vcs_per_port, 4);
  EXPECT_EQ(cfg.buffer_depth, 4);
  EXPECT_EQ(cfg.pipeline_depth(), 5);  // BW/RC, VA, SA, ST, LT
  EXPECT_EQ(cfg.ports_per_router(), 8);
  EXPECT_EQ(cfg.ecc_scheme, EccScheme::kSecded);
  EXPECT_EQ(cfg.retrans_scheme, RetransmissionScheme::kOutputBuffer);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateRejectsEachBadField) {
  const auto expect_invalid = [](auto mutate) {
    NocConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), ContractViolation);
  };
  expect_invalid([](NocConfig& c) { c.mesh_width = 1; });
  expect_invalid([](NocConfig& c) { c.mesh_height = 0; });
  expect_invalid([](NocConfig& c) { c.concentration = 0; });
  expect_invalid([](NocConfig& c) { c.concentration = 17; });
  expect_invalid([](NocConfig& c) { c.vcs_per_port = 0; });
  expect_invalid([](NocConfig& c) { c.buffer_depth = 0; });
  expect_invalid([](NocConfig& c) { c.retrans_depth = 0; });
  expect_invalid([](NocConfig& c) { c.retrans_per_vc_depth = 0; });
  expect_invalid([](NocConfig& c) { c.stage_lt = 0; });
  expect_invalid([](NocConfig& c) { c.injection_queue_depth = 0; });
  expect_invalid([](NocConfig& c) {
    c.tdm_enabled = true;
    c.vcs_per_port = 3;  // TDM needs an even split
  });
  expect_invalid([](NocConfig& c) { c.topology = static_cast<TopologyKind>(2); });
}

TEST(Config, TopologyNamesRoundTrip) {
  for (const TopologyKind k : {TopologyKind::kConcentratedMesh, TopologyKind::kMesh}) {
    EXPECT_EQ(topology_kind_from_string(to_string(k)), k);
  }
  EXPECT_THROW((void)topology_kind_from_string("torus"), ContractViolation);
}

TEST(Contracts, MacrosThrowWithLocation) {
  try {
    HTNOC_EXPECT(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
  EXPECT_THROW(HTNOC_ENSURE(false), ContractViolation);
  EXPECT_THROW(HTNOC_INVARIANT(false), ContractViolation);
  EXPECT_NO_THROW(HTNOC_EXPECT(true));
}

TEST(Types, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
  EXPECT_EQ(opposite(Direction::kSouth), Direction::kNorth);
  EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
  EXPECT_EQ(opposite(Direction::kWest), Direction::kEast);
  EXPECT_EQ(opposite(Direction::kLocal), Direction::kLocal);
}

TEST(Types, HeadTailPredicates) {
  EXPECT_TRUE(is_head(FlitType::kHead));
  EXPECT_TRUE(is_head(FlitType::kHeadTail));
  EXPECT_FALSE(is_head(FlitType::kBody));
  EXPECT_FALSE(is_head(FlitType::kTail));
  EXPECT_TRUE(is_tail(FlitType::kTail));
  EXPECT_TRUE(is_tail(FlitType::kHeadTail));
  EXPECT_FALSE(is_tail(FlitType::kHead));
}

}  // namespace
}  // namespace htnoc
