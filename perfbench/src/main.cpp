// vizbench: the vizcache benchmark program.
//
//   vizbench --workload explore|crowd|wire --seed N --seconds S --trace 0|1
//            [--trace-out spans.json] [--smoke]
//
// Prints the box descriptor, every metric by name and unit, the first
// mismatches if any, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every output checked out, 1 when a check failed, 2 on a
// usage or set-up error (no JSON line then).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "render/raycaster.hpp"
#include "workloads.hpp"

#ifndef VIZBENCH_BUILD_TYPE
#define VIZBENCH_BUILD_TYPE "unknown"
#endif

using namespace vizcache;
using namespace vizcache::perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vizbench: %s\nusage: vizbench --workload explore|crowd|wire "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-out") {
        cfg.trace_out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  return cfg;
}

/// Shortest text that reads back as exactly `v` (JSON has no inf/nan: a
/// failed operation's infinite latency is written as 1e300).
std::string number(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1e300 : 1e300;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_box() {
#if defined(__OPTIMIZE__)
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  std::printf("box: nproc=%u packet_native=%d compiler=\"%s\" build=%s%s\n",
              std::thread::hardware_concurrency(),
              raycast_packet_native() ? 1 : 0, __VERSION__,
              VIZBENCH_BUILD_TYPE,
              optimised ? "" : " WARNING=non-optimised-build");
}

void print_metric(const Metric& m, const char* kind) {
  std::printf("%s %-40s %14.6g %-6s%s%s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.exact ? " [exact]" : "",
              m.probe ? " [probe]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  print_box();
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? " smoke=1" : "");
  std::fflush(stdout);

  RunReport report;
  try {
    report = run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vizbench: %s\n", e.what());
    return 2;
  }

  for (const Metric& m : report.metrics) print_metric(m, "metric");
  for (const Metric& m : report.extra) print_metric(m, "extra ");
  for (const std::string& e : report.errors) {
    std::printf("mismatch: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (usize i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
