// The repository benchmark's program: runs one workload, prints its record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//
// Prints one record line (machine facts and run facts) and, as the last
// line of stdout, the result object {correct, attempted, failed, metrics}.
// Exits 1 when any correctness check fails, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/simd/dispatch.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch" && has_value) {
      cfg.scratch_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0)) return Usage();

  perfbench::RunResult r = perfbench::RunWorkload(cfg);
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.Fail(m.name + " is not finite");
  }

  std::string record = "{\"record\": {\"workload\": " +
                       JsonString(cfg.workload) +
                       ", \"seed\": " + std::to_string(cfg.seed) +
                       ", \"seconds\": " + std::to_string(cfg.seconds) +
                       ", \"trace\": " + (cfg.trace ? "1" : "0") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"l3_bytes\": " +
                       std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)) +
                       ", \"compiler\": " + JsonString(Compiler()) +
                       ", \"kernel\": " +
                       JsonString(ipsketch::simd::ActiveKernelName());
  for (const auto& [key, value] : r.facts) {
    record += ", " + JsonString(key) + ": " + value;
  }
  std::printf("%s}}\n", record.c_str());
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }

  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + JsonString(m.unit) +
               "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
