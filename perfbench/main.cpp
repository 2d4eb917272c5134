// htnoc_perfbench: runs one benchmark workload in this process and prints
// its raw measurements as one JSON object on stdout. perfbench/run.py builds
// this binary, runs it, checks the digests and reports the metrics.
//
//   htnoc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <file>]
//
// With --trace 1 the spans are kept in memory and, with --spans, written
// once at the end as CSV (index, name, layer, start_ns, end_ns, parent,
// self_ns).
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.hpp"

namespace {

using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The sanitizer compiled in, if any: GCC's own macros, or a -fsanitize=
/// option in the compile flags (which also covers UBSan).
std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const auto pos = flags.find("-fsanitize=");
  if (pos == std::string::npos) return "";
  const auto begin = pos + std::strlen("-fsanitize=");
  return flags.substr(begin, flags.find(' ', begin) - begin);
#endif
}

/// The HTNOC_MUTATION_<name> compiled in through the flags, if any.
std::string mutation() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const auto pos = flags.find("HTNOC_MUTATION_");
  if (pos == std::string::npos) return "";
  const auto begin = pos + std::strlen("HTNOC_MUTATION_");
  return flags.substr(begin, flags.find_first_of(" =", begin) - begin);
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
#else
  return false;
#endif
}

std::string fingerprint() {
  std::string s = "{";
  s += "\"cpu\":" + json_string(cpu_model());
  s += ",\"nproc\":" + std::to_string(nproc());
  s += ",\"compiler\":" + json_string(std::string("g++ ") + __VERSION__);
  s += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
#if defined(HTNOC_TRACE) && HTNOC_TRACE == 0
  s += ",\"htnoc_trace\":\"OFF\"";
#else
  s += ",\"htnoc_trace\":\"ON\"";
#endif
  s += ",\"sanitizer\":" + json_string(sanitizer());
  s += ",\"mutation\":" + json_string(mutation());
  return s + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_spans(const perfbench::Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  out << "index,name,layer,start_ns,end_ns,parent,self_ns\n";
  const std::vector<std::int64_t> self = tr.self_ns();
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << i << ',' << s.name << ',' << (s.layer != nullptr ? s.layer : "")
        << ',' << s.start << ',' << s.end << ',' << s.parent << ',' << self[i]
        << '\n';
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: htnoc_perfbench --workload <paper_grid|mesh64_attacked|"
               "campaign_audited> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 0);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val != "0";
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) return usage();

  if (!sanitizer().empty() || !mutation().empty() || !optimized()) {
    std::fprintf(stderr,
                 "htnoc_perfbench: refusing to time a sanitizer, mutation or "
                 "unoptimized build: %s\n",
                 fingerprint().c_str());
    return 3;
  }

  using Workload = Result (*)(const perfbench::Options&, perfbench::Tracer*);
  Workload run = nullptr;
  if (opt.workload == "paper_grid") run = perfbench::run_paper_grid;
  if (opt.workload == "mesh64_attacked") run = perfbench::run_mesh64_attacked;
  if (opt.workload == "campaign_audited") run = perfbench::run_campaign_audited;
  if (run == nullptr) return usage();

  perfbench::Tracer tracer;
  Result r;
  try {
    r = run(opt, opt.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "htnoc_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !spans_path.empty()) write_spans(tracer, spans_path);

  std::string out = "{\"fingerprint\":" + fingerprint();
  out += ",\"workload\":" + json_string(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
  out += ",\"setup_s\":" + json_array(r.setup_s);
  out += ",\"run_attempts\":" + std::to_string(r.run_attempts);
  out += ",\"run_failures\":" + std::to_string(r.run_failures);
  out += ",\"peak_rss_mb\":" + json_number(peak_rss_mb());
  out += ",\"units\":[";
  for (std::size_t i = 0; i < r.units.size(); ++i) {
    const Result::Unit& u = r.units[i];
    char digest[24];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(u.digest));
    out += (i > 0 ? "," : "");
    out += "{\"seconds\":" + json_number(u.seconds) +
           ",\"cycles\":" + std::to_string(u.cycles) + ",\"digest\":\"" +
           digest + "\",\"run_ms\":" + json_array(u.run_ms) +
           ",\"step_us\":" + json_array(u.step_us) + "}";
  }
  out += "],\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Result::Check& c = r.checks[i];
    out += (i > 0 ? "," : "");
    out += "{\"name\":" + json_string(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + json_string(c.detail) + "}";
  }
  out += "],\"layers\":{";
  bool first = true;
  for (const char* name : perfbench::kLayerMetrics) {
    const auto it = r.layers.find(name);
    out += (first ? "" : ",") + json_string(name) + ":" +
           json_number(it != r.layers.end() ? it->second : 0.0);
    first = false;
  }
  out += "}}";
  for (const auto& [name, value] : r.layers) {
    bool known = false;
    for (const char* k : perfbench::kLayerMetrics) known |= name == k;
    if (!known) {
      std::fprintf(stderr, "htnoc_perfbench: unlisted layer metric %s\n",
                   name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
