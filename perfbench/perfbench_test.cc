// Tests of the benchmark's own helpers, plus a smoke-sized run of every
// workload (untraced and traced) that must pass its correctness checks.
//
//   .bench_build/perfbench/perfbench_test [--scratch DIR]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "generator.h"
#include "trace.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::CheckAccounting;
using perfbench::FrontDoorCounters;
using perfbench::HighestSupportedPercentile;
using perfbench::NearestRank;
using perfbench::Outcomes;

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(NearestRank(v, 50) == 50);
  EXPECT(NearestRank(v, 99) == 99);
  EXPECT(NearestRank(v, 100) == 100);
  EXPECT(NearestRank(v, 0.5) == 1);
  EXPECT(NearestRank({7.0}, 99) == 7.0);
  EXPECT(NearestRank({}, 50) == 0.0);
  // Nearest rank never interpolates: 4 samples, p50 is the 2nd smallest.
  EXPECT(NearestRank({4, 1, 3, 2}, 50) == 2);
  EXPECT(NearestRank({4, 1, 3, 2}, 51) == 3);
}

void TestMedianOfWindows() {
  // A stall that wrecks one window's tail leaves the median window alone.
  const std::vector<std::vector<double>> w = {
      {1, 2, 3}, {1, 2, 100}, {1, 2, 4}, {}, {1, 2, 5}};
  EXPECT(perfbench::MedianOfWindows(w, 100) == 4);
  EXPECT(perfbench::MedianOfWindows(w, 50) == 2);
  EXPECT(perfbench::MedianOfWindows({{}, {}}, 50) == 0.0);
}

void TestHighestSupportedPercentile() {
  EXPECT(HighestSupportedPercentile(0) == 0.0);
  EXPECT(HighestSupportedPercentile(19) == 0.0);  // 9 beyond the median
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(99) == 50.0);  // 9 beyond p90
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(100000) == 99.99);
  EXPECT(HighestSupportedPercentile(100, 1) == 99.0);
}

void TestOutcomeCounter() {
  perfbench::OutcomeCounter c;
  for (int i = 0; i < 5; ++i) c.Attempt();
  c.Record(ipsketch::Status::Ok());
  c.Record(ipsketch::Status::Ok());
  c.Record(ipsketch::Status::Unavailable("queue full"));
  c.Record(ipsketch::Status::DeadlineExceeded("late"));
  c.Record(ipsketch::Status::Internal("boom"));
  const Outcomes o = c.Get();
  EXPECT(o.attempted == 5);
  EXPECT(o.completed == 2);
  EXPECT(o.shed == 1);
  EXPECT(o.expired == 1);
  EXPECT(o.errors == 1);
  EXPECT(o.failed() == 3);
}

void TestAccounting() {
  Outcomes o;
  o.attempted = 10;
  o.completed = 7;
  o.shed = 1;
  o.expired = 1;
  o.errors = 1;
  FrontDoorCounters d{10, 8, 1, 1};
  EXPECT(CheckAccounting(o, d, true).ok());
  d.completed = 7;  // the engine error not counted as completed: allowed
  EXPECT(CheckAccounting(o, d, true).ok());
  d.completed = 9;  // more completions than answers + errors
  EXPECT(!CheckAccounting(o, d, true).ok());
  d = {11, 8, 1, 1};  // a submission nobody attempted
  EXPECT(!CheckAccounting(o, d, true).ok());
  d = {10, 8, 0, 1};  // a shed the counters did not see
  EXPECT(!CheckAccounting(o, d, true).ok());
  EXPECT(CheckAccounting(o, d, false).ok());  // counters compiled out
  o.completed = 6;  // one request never ended
  EXPECT(!CheckAccounting(o, {}, false).ok());
}

void TestHistogramDelta() {
  ipsketch::metrics::Histogram h;
  h.Record(100);
  const auto before = h.Snapshot();
  for (int i = 0; i < 9; ++i) h.Record(1000);
  const auto d = perfbench::HistogramDelta(h.Snapshot(), before);
  if (ipsketch::metrics::Enabled()) {
    EXPECT(d.count == 9);
    EXPECT(d.sum == 9000);
    EXPECT(d.Percentile(50) >= 900 && d.Percentile(50) <= 1000);
  }
}

void TestGenerator() {
  using perfbench::ExactDot;
  // Deterministic in the seed, different across seeds.
  EXPECT(perfbench::NoiseVector(3, 5) == perfbench::NoiseVector(3, 5));
  EXPECT(!(perfbench::NoiseVector(3, 5) == perfbench::NoiseVector(4, 5)));
  EXPECT(perfbench::NoiseVector(3, 5).nnz() == perfbench::kNnz);
  const auto pair = perfbench::SyntheticPair(9, 0);
  size_t shared = 0;
  for (const auto& e : pair.a.entries()) shared += pair.b.Get(e.index) != 0.0;
  EXPECT(shared == 26);  // round(0.1 · 256)
  perfbench::Clusters clusters(11, 8);
  const auto q = clusters.Variant(2, 100);
  EXPECT(q.nnz() == perfbench::kNnz);
  EXPECT(ExactDot(q, clusters.Variant(2, 0)) > 0.0);
  EXPECT(ExactDot(q, clusters.Variant(3, 0)) == 0.0);
  EXPECT(ExactDot(q, perfbench::NoiseVector(11, 0)) == 0.0);
}

void TestTracer() {
  perfbench::Tracer tracer(true);
  {
    perfbench::SpanScope root(&tracer, "root", 1);
    perfbench::SpanScope child(&tracer, "child", 1, root.id());
    EXPECT(child.id() != root.id());
  }
  std::thread other([&] { perfbench::SpanScope s(&tracer, "child", 2); });
  other.join();
  const auto spans = tracer.Spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[0].thread == spans[1].thread);
  EXPECT(spans[2].thread != spans[0].thread);
  EXPECT(tracer.DurationsUs("child").size() == 2);
  perfbench::Tracer off(false);
  { perfbench::SpanScope s(&off, "x", 1); }
  EXPECT(off.Spans().empty());
}

void TestSmoke(const std::string& scratch) {
  for (const std::string& w : perfbench::WorkloadNames()) {
    for (bool trace : {false, true}) {
      perfbench::RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 3;
      cfg.seconds = 1.0;
      cfg.trace = trace;
      cfg.smoke = true;
      cfg.scratch_dir = scratch;
      const perfbench::RunResult r = perfbench::RunWorkload(cfg);
      for (const auto& p : r.problems) {
        std::fprintf(stderr, "smoke %s trace=%d: %s\n", w.c_str(), trace,
                     p.c_str());
      }
      EXPECT(r.correct);
      EXPECT(r.attempted > 0);
      EXPECT(r.failed == 0);
      if (trace) {
        EXPECT(r.metrics.size() == perfbench::LayerMetrics().size());
      }
      for (const auto& m : r.metrics) EXPECT(std::isfinite(m.value));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scratch = ".bench_build";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scratch") == 0 && i + 1 < argc) {
      scratch = argv[++i];
    }
  }
  TestNearestRank();
  TestMedianOfWindows();
  TestHighestSupportedPercentile();
  TestOutcomeCounter();
  TestAccounting();
  TestHistogramDelta();
  TestGenerator();
  TestTracer();
  TestSmoke(scratch);
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
