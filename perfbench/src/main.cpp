// perfbench: the repository benchmark binary.
//
//   perfbench --workload <paper_grid|fleet_soak|fleet_chaos>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the correctness gates, the sim_digest fingerprint and every metric
// as "metric <name> <value> <unit>" lines, then one JSON result object as the
// last line. With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 the per-layer metrics of a traced run, whose spans are written
// to <out-dir>/spans_<workload>.jsonl. Per-layer metrics that do not apply
// to a workload are left out; perfbench/run.py checks the object against
// BENCHMARK.json and fills those in as 0. Exits 1 when a gate fails, 2 on a
// usage error.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <paper_grid|fleet_soak|fleet_chaos> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, opt.seed)) return usage("--seed wants a non-negative integer");
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0)
        return usage("--seconds wants a number in (0, 600]");
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, u) || u > 1) return usage("--trace wants 0 or 1");
      opt.trace = u == 1;
      have_trace = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
  }

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "paper_grid") run = perfbench::run_paper_grid;
  if (opt.workload == "fleet_soak") run = perfbench::run_fleet_soak;
  if (opt.workload == "fleet_chaos") run = perfbench::run_fleet_chaos;
  if (!run) return usage(("unknown workload '" + opt.workload + "'").c_str());
  Report r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("sim_digest %s %s\n", opt.workload.c_str(), r.digest.c_str());
  for (const auto* list : {&r.end_to_end, &r.extra, &r.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  const std::vector<Metric>& out = opt.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
