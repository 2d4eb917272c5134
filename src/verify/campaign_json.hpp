// JSON codec for CampaignSpec — shared by `campaign_cli --spec` and the
// tests (the sweep-side counterpart lives in src/sweep/spec_json.hpp; same
// contract).
//
// Strict parse (unknown keys / wrong types / out-of-range values raise
// sweep::SpecError with the field path), canonical serialization (every
// supported field, fixed order, seeds as hex strings), and
// to_json(from_json(doc)) is a fixed point.
//
// Execution knobs that do not change the drawn scenarios — the worker
// thread count and the `progress` / `should_stop` runtime hooks — are
// deliberately NOT part of the spec document; they belong to the caller
// (`campaign_cli --jobs`, the benchmark's per-scenario timing hooks).
#pragma once

#include <string>

#include "common/json.hpp"
#include "sweep/spec_json.hpp"
#include "verify/campaign.hpp"

namespace htnoc::verify {

[[nodiscard]] CampaignSpec campaign_spec_from_json(const json::Value& doc);
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& text);
[[nodiscard]] json::Value campaign_spec_to_json(const CampaignSpec& spec);

}  // namespace htnoc::verify
