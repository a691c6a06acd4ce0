// The benchmark's workloads. Each one builds its inputs from the seed, runs
// against the library's public entry points for a fixed time, checks the
// outputs, and reports either its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run). See README.md for the definitions.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases: exercises every code path in seconds.
  bool smoke = false;
  /// Directory for the run's scratch files (catalog file, span dump).
  std::string scratch_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Facts about the run for the record line: key and JSON value text.
  std::vector<std::pair<std::string, std::string>> facts;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
  void Fact(const std::string& key, const std::string& json_value);
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Per-layer metric names and units every traced run reports, in order.
/// A metric whose layer does no work in a workload reads 0 there and is
/// listed under the record's "not_applicable".
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Runs one workload. Unknown names fail the result.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
