// campaign_cli — run the randomized fault campaign (invariant auditor armed
// on every scenario) or deterministically replay one failing scenario from
// its repro spec.
//
//   campaign_cli --scenarios 10000 --seed 0x20260806 --jobs 8
//                --summary-md summary.md --repro-dir repros/
//   campaign_cli --scenarios 10000 --shard 1/4 --shard-summary shard1.json
//   campaign_cli --merge shard0.json shard1.json shard2.json shard3.json
//                --dedup-report dedup.md
//   campaign_cli --repro "htnoc-campaign-repro seed=0x20260806 index=421"
//   campaign_cli --repro repros/repro-421.txt
//
// Exit status: 0 when every scenario passed, 1 on any failure (or a failing
// replay, or a merged campaign with failures), 2 on usage/merge errors.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "verify/campaign.hpp"
#include "verify/campaign_json.hpp"
#include "verify/shard_merge.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: campaign_cli [--spec FILE.json]\n"
         "                    [--scenarios N] [--seed S] [--jobs N]\n"
         "                    [--audit-period N] [--topologies LIST]\n"
         "                    [--shard I/N] [--snapshot-warmup CYCLES]\n"
         "                    [--summary-md FILE] [--shard-summary FILE]\n"
         "                    [--repro-dir DIR] [--quiet]\n"
         "       campaign_cli --merge SHARD.json... [--summary-md FILE]\n"
         "                    [--dedup-report FILE] [--quiet]\n"
         "       campaign_cli --repro SPEC-OR-FILE\n"
         "--spec loads a JSON campaign spec (rules: \"Spec files\" in\n"
         "docs/REPRODUCING.md); other flags override on top of it.\n"
         "--shard runs one strided slice of the campaign; --shard-summary\n"
         "writes the shard's mergeable JSON document, and --merge combines\n"
         "a complete shard set into the unsharded campaign verdict.\n";
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read spec file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Accept either a literal repro line or the path of a file whose first
/// matching line is one.
std::optional<htnoc::verify::ReproSpec> resolve_repro(const std::string& arg) {
  if (auto r = htnoc::verify::parse_repro(arg)) return r;
  std::ifstream in(arg);
  std::string line;
  while (in && std::getline(in, line)) {
    if (auto r = htnoc::verify::parse_repro(line)) return r;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using htnoc::verify::CampaignResult;
  using htnoc::verify::CampaignSpec;
  using htnoc::verify::FaultCampaign;
  using htnoc::verify::ScenarioResult;

  CampaignSpec spec;
  spec.seed = 0x5EED;
  spec.scenarios = 1000;
  std::string summary_md;
  std::string shard_summary;
  std::string dedup_report;
  std::string repro_dir;
  std::string repro_arg;
  std::vector<std::string> merge_files;
  bool merging = false;
  bool quiet = false;

  // --spec loads first (wherever it appears), so every other flag
  // overrides on top of the file.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--spec") {
      try {
        spec = htnoc::verify::parse_campaign_spec(read_file(argv[i + 1]));
      } catch (const std::exception& e) {
        std::cerr << "campaign_cli: " << e.what() << "\n";
        return 2;
      }
      break;
    }
  }

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--spec") {
      (void)value();  // consumed by the first pass
    } else if (a == "--scenarios") {
      spec.scenarios = std::stoull(value(), nullptr, 0);
    } else if (a == "--seed") {
      spec.seed = std::stoull(value(), nullptr, 0);
    } else if (a == "--jobs") {
      spec.threads = std::stoi(value());
    } else if (a == "--audit-period") {
      spec.audit.period = std::stoull(value(), nullptr, 0);
    } else if (a == "--topologies") {
      // Comma-separated kinds, e.g. "cmesh,mesh,torus". Omitting the flag
      // keeps the historical all-cmesh scenario distribution byte-for-byte.
      std::string list = value();
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        spec.topologies.push_back(
            htnoc::topology_kind_from_string(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (a == "--shard") {
      // I/N: run shard I of an N-way split (strided global indices).
      const std::string v = value();
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos) {
        std::cerr << "campaign_cli: --shard expects I/N, got '" << v << "'\n";
        return 2;
      }
      try {
        spec.shard_index = std::stoull(v.substr(0, slash), nullptr, 0);
        spec.shard_count = std::stoull(v.substr(slash + 1), nullptr, 0);
      } catch (const std::exception&) {
        std::cerr << "campaign_cli: --shard expects I/N, got '" << v << "'\n";
        return 2;
      }
      if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
        std::cerr << "campaign_cli: --shard needs I < N, got '" << v << "'\n";
        return 2;
      }
    } else if (a == "--snapshot-warmup") {
      spec.warmup_cycles = std::stoull(value(), nullptr, 0);
    } else if (a == "--merge") {
      // Consumes every following non-flag argument as a shard summary file.
      merging = true;
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        merge_files.emplace_back(argv[++i]);
      }
    } else if (a == "--summary-md") {
      summary_md = value();
    } else if (a == "--shard-summary") {
      shard_summary = value();
    } else if (a == "--dedup-report") {
      dedup_report = value();
    } else if (a == "--repro-dir") {
      repro_dir = value();
    } else if (a == "--repro") {
      repro_arg = value();
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  if (merging) {
    if (merge_files.empty()) {
      std::cerr << "campaign_cli: --merge needs at least one shard summary\n";
      return 2;
    }
    try {
      std::vector<htnoc::verify::ShardSummary> shards;
      shards.reserve(merge_files.size());
      for (const std::string& path : merge_files) {
        shards.push_back(
            htnoc::verify::parse_shard_summary(read_file(path)));
      }
      const htnoc::verify::MergedCampaign merged =
          htnoc::verify::merge_shards(shards);
      if (!quiet) std::cout << merged.summary_text();
      if (!summary_md.empty()) {
        std::ofstream out(summary_md);
        out << merged.summary_markdown();
      }
      if (!dedup_report.empty()) {
        std::ofstream out(dedup_report);
        out << merged.summary_markdown();
      }
      return merged.failures.empty() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "campaign_cli: " << e.what() << "\n";
      return 2;
    }
  }

  if (!repro_arg.empty()) {
    const auto r = resolve_repro(repro_arg);
    if (!r) {
      std::cerr << "campaign_cli: cannot parse repro spec from '" << repro_arg
                << "'\n";
      return 2;
    }
    CampaignSpec rspec = spec;
    rspec.seed = r->seed;
    rspec.warmup_cycles = r->warmup;
    const ScenarioResult res = FaultCampaign::run_scenario(rspec, r->index);
    std::cout << "replay " << htnoc::verify::format_repro(*r) << "\n"
              << "scenario: " << res.descriptor << "\n"
              << "cycles=" << res.cycles << " delivered=" << res.delivered
              << " purged=" << res.purged << " audits=" << res.audits
              << " flits_tracked=" << res.flits_tracked << "\n";
    if (res.ok) {
      std::cout << "result: CLEAN\n";
      return 0;
    }
    std::cout << "result: FAIL\n" << res.error << "\n";
    return 1;
  }

  FaultCampaign campaign(spec);
  const CampaignResult result = campaign.run();
  if (!quiet) std::cout << result.summary_text();

  if (!summary_md.empty()) {
    std::ofstream out(summary_md);
    out << result.summary_markdown();
  }
  if (!shard_summary.empty()) {
    std::ofstream out(shard_summary);
    out << htnoc::json::to_string(
               htnoc::verify::shard_summary_to_json(
                   htnoc::verify::summarize_shard(result)),
               2)
        << "\n";
  }
  if (!repro_dir.empty()) {
    for (const ScenarioResult& s : result.scenarios) {
      if (s.ok) continue;
      std::ofstream out(repro_dir + "/repro-" + std::to_string(s.index) +
                        ".txt");
      out << htnoc::verify::format_repro(
                 {spec.seed, s.index, spec.warmup_cycles})
          << "\n"
          << s.descriptor << "\n"
          << s.error << "\n";
    }
  }
  return result.failures() == 0 ? 0 : 1;
}
