// Statistics and accounting helpers of the repository benchmark: nearest-rank
// percentiles, the rule that picks the highest percentile a sample can
// support, request outcome accounting against the front door's counters,
// and deltas of the library's metric histograms.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/metrics.h"

namespace perfbench {

/// Nearest-rank percentile of `values` (need not be sorted): the smallest
/// value with at least pct% of the sample at or below it. `pct` in (0, 100];
/// 0 for an empty sample.
double NearestRank(std::vector<double> values, double pct);

/// Median of `values` by nearest rank; 0 for an empty sample.
double Median(const std::vector<double>& values);

/// Mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Median (nearest rank) over windows of each window's nearest-rank `pct`;
/// empty windows are skipped. 0 when every window is empty.
double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double pct);

/// The highest of the percentiles 50, 90, 99, 99.9, 99.99 that leaves at
/// least `min_beyond` of `n` samples above it, or 0 when even the median
/// does not. A tail percentile with fewer samples beyond it is one outlier.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// How each submitted request ended. Every request ends exactly once.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t completed = 0;  ///< answered with an OK result
  uint64_t shed = 0;       ///< Unavailable: admission queue full
  uint64_t expired = 0;    ///< DeadlineExceeded while queued
  uint64_t errors = 0;     ///< any other error status

  uint64_t failed() const { return shed + expired + errors; }
};

/// Thread-safe outcome tally: completion callbacks on pool workers record
/// into it while the generator thread counts attempts.
class OutcomeCounter {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const ipsketch::Status& status);
  Outcomes Get() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> errors_{0};
};

/// Deltas of the front door's ipsketch_frontdoor_* counters over a phase.
struct FrontDoorCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;

  /// The current process-wide values.
  static FrontDoorCounters Read();
  FrontDoorCounters operator-(const FrontDoorCounters& before) const;
};

/// Ok iff attempted = completed + shed + expired + errors, every request
/// has ended, and — when `counters_valid` — the front door's own counters
/// saw the same submissions, sheds and expiries. The front door counts an
/// engine error as completed, so its completed count lies between the
/// OK answers and the OK answers plus errors.
ipsketch::Status CheckAccounting(const Outcomes& outcomes,
                                 const FrontDoorCounters& delta,
                                 bool counters_valid);

/// `after` − `before`, bucket by bucket, for histograms read around a phase.
/// The max is the later snapshot's (histograms keep no per-phase max).
ipsketch::metrics::HistogramSnapshot HistogramDelta(
    const ipsketch::metrics::HistogramSnapshot& after,
    const ipsketch::metrics::HistogramSnapshot& before);

/// Snapshot of a registry histogram by name.
ipsketch::metrics::HistogramSnapshot ReadHistogram(const std::string& name);

/// Bytes the allocator has handed out and not taken back (glibc mallinfo2),
/// the process's heap footprint without page-reuse noise.
uint64_t HeapInUseBytes();

/// Ticks (1/100 s, summed over CPUs) the hypervisor has run other guests on
/// this machine's vCPUs since boot: /proc/stat's steal column, 0 where the
/// kernel does not report it. The delta over a run says how much of it the
/// host took away.
uint64_t StealTicks();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
