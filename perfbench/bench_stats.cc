#include "bench_stats.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <numeric>

namespace perfbench {

using ipsketch::Status;
using ipsketch::StatusCode;
namespace metrics = ipsketch::metrics;

namespace {
// 1-based nearest rank of pct in a sample of n; the epsilon keeps 99.99% of
// 100000 at rank 99990 despite rounding in pct / 100 · n.
size_t RankOf(double pct, size_t n) {
  return static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
}
}  // namespace

double NearestRank(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = RankOf(pct, n);
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return NearestRank(values, 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double pct) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(NearestRank(w, pct));
  }
  return Median(per_window);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the nearest-rank position of pct.
    const size_t rank = RankOf(pct, n);
    if (n >= rank && n - rank >= min_beyond) best = pct;
  }
  return best;
}

void OutcomeCounter::Record(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kUnavailable:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kDeadlineExceeded:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

Outcomes OutcomeCounter::Get() const {
  Outcomes o;
  o.attempted = attempted_.load(std::memory_order_acquire);
  o.completed = completed_.load(std::memory_order_acquire);
  o.shed = shed_.load(std::memory_order_acquire);
  o.expired = expired_.load(std::memory_order_acquire);
  o.errors = errors_.load(std::memory_order_acquire);
  return o;
}

FrontDoorCounters FrontDoorCounters::Read() {
  auto& registry = metrics::MetricsRegistry::Global();
  FrontDoorCounters c;
  c.submitted = registry.GetCounter("ipsketch_frontdoor_submitted_total").Value();
  c.completed = registry.GetCounter("ipsketch_frontdoor_completed_total").Value();
  c.shed = registry.GetCounter("ipsketch_frontdoor_shed_total").Value();
  c.expired =
      registry.GetCounter("ipsketch_frontdoor_deadline_expired_total").Value();
  return c;
}

FrontDoorCounters FrontDoorCounters::operator-(
    const FrontDoorCounters& before) const {
  return {submitted - before.submitted, completed - before.completed,
          shed - before.shed, expired - before.expired};
}

Status CheckAccounting(const Outcomes& o, const FrontDoorCounters& delta,
                       bool counters_valid) {
  const uint64_t ended = o.completed + o.shed + o.expired + o.errors;
  if (ended != o.attempted) {
    return Status::Internal("attempted " + std::to_string(o.attempted) +
                            " != ended " + std::to_string(ended));
  }
  if (!counters_valid) return Status::Ok();
  if (delta.submitted != o.attempted || delta.shed != o.shed ||
      delta.expired != o.expired || delta.completed < o.completed ||
      delta.completed > o.completed + o.errors) {
    return Status::Internal(
        "front door counters disagree: submitted " +
        std::to_string(delta.submitted) + " completed " +
        std::to_string(delta.completed) + " shed " +
        std::to_string(delta.shed) + " expired " +
        std::to_string(delta.expired) + " vs attempted " +
        std::to_string(o.attempted) + " completed " +
        std::to_string(o.completed) + " errors " + std::to_string(o.errors));
  }
  return Status::Ok();
}

metrics::HistogramSnapshot HistogramDelta(
    const metrics::HistogramSnapshot& after,
    const metrics::HistogramSnapshot& before) {
  metrics::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  for (size_t i = 0; i < metrics::kNumBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

metrics::HistogramSnapshot ReadHistogram(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetHistogram(name).Snapshot();
}

uint64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // "cpu user nice system idle iowait irq softirq steal ...": field 8.
  std::istringstream fields(line);
  std::string label;
  uint64_t ticks[8] = {};
  fields >> label;
  for (uint64_t& t : ticks) fields >> t;
  return fields ? ticks[7] : 0;
}

}  // namespace perfbench
