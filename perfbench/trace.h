// Span recorder of the benchmark's traced run. Spans are recorded from the
// benchmark's own code, around each call it makes into a library layer:
// name, start, end, the span that caused it and the request it belongs to.
// They stay in memory and are written out once, when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the time base of every span.
uint64_t NowNs();

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< static string: the layer call, e.g. "sketch"
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t id = 0;       ///< unique, > 0
    uint64_t parent = 0;   ///< id of the causing span; 0 = root
    uint64_t request = 0;  ///< spans of one request share this
    uint32_t thread = 0;   ///< recording thread, in order of first use
  };

  /// A disabled tracer records nothing and reads no clock.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Every span recorded so far. Call once the recording threads are idle.
  std::vector<Span> Spans() const;

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes the spans as a Chrome trace-event JSON file (loadable in
  /// chrome://tracing or Perfetto).
  ipsketch::Status WriteChromeJson(const std::string& path) const;

 private:
  friend class SpanScope;

  /// Stamps the calling thread's number on `span` and keeps it.
  void Record(Span span);

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;                      // guarded by mu_
  std::map<std::thread::id, uint32_t> threads_;  // guarded by mu_
};

/// Records one span from construction to destruction. A null or disabled
/// tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t request,
            uint64_t parent = 0);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();

  /// This span's id (0 when not recording), the parent of nested spans.
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
