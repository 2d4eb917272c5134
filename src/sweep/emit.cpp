#include "sweep/emit.hpp"

#include <sstream>

#include "common/json.hpp"

namespace htnoc::sweep {

using json::format_double;

void write_summary_csv(std::ostream& os, const SweepResult& result) {
  os << "point,label,replicates,failures,metric,mean,stddev,min,max\n";
  const auto& names = RunResult::metric_names();
  for (const GridSummary& gs : result.summary) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      const MetricAggregate& a = gs.metrics[k];
      os << gs.point_linear << ",\"" << gs.label << "\"," << gs.replicates
         << ',' << gs.failures << ',' << names[k] << ',' << format_double(a.mean)
         << ',' << format_double(a.stddev) << ',' << format_double(a.min) << ','
         << format_double(a.max) << '\n';
    }
  }
}

void write_runs_csv(std::ostream& os, const SweepResult& result) {
  const auto& names = RunResult::metric_names();
  os << "point,label,replicate,seed,ok";
  for (const std::string& n : names) os << ',' << n;
  os << '\n';
  for (const RunResult& r : result.runs) {
    os << r.spec.point.linear << ",\"" << r.spec.point_label() << "\","
       << r.spec.replicate << ',' << r.spec.seed << ',' << (r.ok ? 1 : 0);
    if (r.ok) {
      for (const double m : r.metrics()) os << ',' << format_double(m);
    } else {
      for (std::size_t k = 0; k < names.size(); ++k) os << ',';
    }
    os << '\n';
  }
}

void write_json(std::ostream& os, const SweepResult& result) {
  const auto& names = RunResult::metric_names();
  os << "{\n  \"metric_names\": [";
  for (std::size_t k = 0; k < names.size(); ++k) {
    os << (k ? ", " : "") << '"' << names[k] << '"';
  }
  os << "],\n  \"runs\": [\n";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const RunResult& r = result.runs[i];
    os << "    {\"point\": " << r.spec.point.linear
       << ", \"replicate\": " << r.spec.replicate
       // uint64 seeds exceed JSON's exact-integer range; keep as a string.
       << ", \"seed\": \"" << r.spec.seed << '"'
       << ", \"label\": " << json::quote(r.spec.point_label())
       << ", \"ok\": " << (r.ok ? "true" : "false");
    if (r.ok) {
      os << ", \"completed\": " << (r.completed ? "true" : "false")
         << ", \"metrics\": [";
      const std::vector<double> m = r.metrics();
      for (std::size_t k = 0; k < m.size(); ++k) {
        os << (k ? ", " : "") << format_double(m[k]);
      }
      os << ']';
    } else {
      os << ", \"error\": " << json::quote(r.error);
    }
    os << '}' << (i + 1 < result.runs.size() ? "," : "") << '\n';
  }
  os << "  ],\n  \"summary\": [\n";
  for (std::size_t i = 0; i < result.summary.size(); ++i) {
    const GridSummary& gs = result.summary[i];
    os << "    {\"point\": " << gs.point_linear
       << ", \"label\": " << json::quote(gs.label)
       << ", \"replicates\": " << gs.replicates
       << ", \"failures\": " << gs.failures << ", \"metrics\": {";
    for (std::size_t k = 0; k < names.size(); ++k) {
      const MetricAggregate& a = gs.metrics[k];
      os << (k ? ", " : "") << '"' << names[k] << "\": {\"mean\": "
         << format_double(a.mean) << ", \"stddev\": " << format_double(a.stddev)
         << ", \"min\": " << format_double(a.min)
         << ", \"max\": " << format_double(a.max) << '}';
    }
    os << "}}" << (i + 1 < result.summary.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

std::string to_json(const SweepResult& result) {
  std::ostringstream os;
  write_json(os, result);
  return os.str();
}

}  // namespace htnoc::sweep
