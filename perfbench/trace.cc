#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.thread = threads_
                    .emplace(std::this_thread::get_id(),
                             static_cast<uint32_t>(threads_.size() + 1))
                    .first->second;
  spans_.push_back(span);
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : Spans()) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

ipsketch::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ipsketch::Status::Internal("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",\n", s.name, s.thread, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    return ipsketch::Status::Internal("write failed: " + path);
  }
  return ipsketch::Status::Ok();
}

SpanScope::SpanScope(Tracer* tracer, const char* name, uint64_t request,
                     uint64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.request = request;
  span_.parent = parent;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
}

}  // namespace perfbench
