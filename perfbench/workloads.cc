#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench_stats.h"
#include "generator.h"
#include "index/banded_index.h"
#include "service/front_door.h"
#include "service/metrics.h"
#include "service/persistence.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "trace.h"

namespace perfbench {

using ipsketch::AnySketch;
using ipsketch::BandedIndex;
using ipsketch::BandedLshParams;
using ipsketch::FrontDoor;
using ipsketch::FrontDoorOptions;
using ipsketch::IndexPolicy;
using ipsketch::QueryEngine;
using ipsketch::QueryHit;
using ipsketch::ReadMode;
using ipsketch::SketchFamily;
using ipsketch::SketchStore;
using ipsketch::SketchStoreOptions;
using ipsketch::SparseVector;
using ipsketch::Status;
using ipsketch::ThreadPool;
namespace metrics = ipsketch::metrics;

void RunResult::Fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::Fact(const std::string& key, const std::string& json_value) {
  facts.emplace_back(key, json_value);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"catalog_build",
                                                 "search_banded", "scan_exact"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> layer = {
      {"sketch.us_per_vec", "us"},
      {"store.insert_us", "us"},
      {"store.erase_us", "us"},
      {"store.insert_growth", "ratio"},
      {"store.pin_us", "us"},
      {"store.bytes_per_sketch", "bytes"},
      {"index.maint_us", "us"},
      {"index.probe_us", "us"},
      {"index.candidates_per_query", "count"},
      {"index.buckets_per_query", "count"},
      {"index.useful_ratio", "ratio"},
      {"engine.batch_us", "us"},
      {"engine.ns_per_pair", "ns"},
      {"engine.merge_us", "us"},
      {"front_door.queue_wait_p50_us", "us"},
      {"front_door.queue_wait_p99_us", "us"},
      {"front_door.batch_size_mean", "count"},
      {"front_door.shed", "count"},
      {"front_door.expired", "count"},
      {"front_door.self_us", "us"},
      {"persist.encode_s", "s"},
      {"persist.write_s", "s"},
      {"persist.decode_s", "s"},
      {"persist.read_s", "s"},
      {"persist.bytes_per_sketch", "bytes"},
      {"pool.task_wait_p99_us", "us"},
      {"gen.lag_p99_us", "us"},
      {"unattributed.share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return layer;
}

namespace {

// ---- fixed workload definition ---------------------------------------------

constexpr size_t kSamples = 128;
constexpr uint64_t kFamilySeed = 7;
constexpr size_t kShards = 16;
constexpr size_t kClusterSize = 10;
constexpr size_t kTopK = 10;
constexpr size_t kWriteEvery = 8;
constexpr size_t kSetupReps = 3;
// Cycles of an untraced query-workload run, each ending in a restart
// (catalog_build restarts once per cycle of its own).
constexpr size_t kCycles = 5;
// catalog_build's closed loop of top-k per cycle.
constexpr double kServeSeconds = 0.6;
constexpr size_t kIngestBatch = 4096;
constexpr size_t kBands = 16;
constexpr size_t kRows = 4;
// Mean recall the (16, 4) banding must reach on the planted clusters; well
// below what it reaches, so only a broken index or re-rank trips it.
constexpr double kBandedRecallFloor = 0.8;
// Requests whose answers are re-derived serially after the run.
constexpr size_t kVerifyEvery = 64;
// Generator lag beyond which a run is flagged as not open-loop.
constexpr double kGenBehindUs = 1000.0;
// When the layer figures miss the live end-to-end figure by more than this
// share of it, either way, the traced run's layer table does not explain
// the work and the run fails.
constexpr double kMaxUnattributed = 0.25;
// A run's latency samples are cut in arrival order into this many windows
// and a percentile is the median of the per-window values, so a stall of
// the machine (a noisy neighbour, vCPU steal) in one window does not move
// the run's figure.
constexpr size_t kWindows = 5;

struct Spec {
  size_t resident = 0;     ///< vectors in the catalog
  size_t clusters = 0;     ///< planted clusters of kClusterSize members
  size_t pairs = 0;        ///< §5.1 pairs inside the corpus
  double rate = 0.0;       ///< open-loop arrivals per second (search_banded)
  size_t outstanding = 0;  ///< closed-loop requests in flight
  size_t writes = 0;       ///< closed-loop writes (catalog_build, scan_exact)
};

Spec SpecFor(const std::string& workload, bool smoke) {
  Spec s;
  s.pairs = smoke ? 64 : 1024;
  s.writes = smoke ? 200 : 1000;
  if (workload == "catalog_build") {
    s.resident = smoke ? 4096 : 32768;
    s.clusters = smoke ? 32 : 256;
    s.outstanding = 256;
  } else if (workload == "search_banded") {
    s.resident = smoke ? 4096 : 32768;
    s.clusters = smoke ? 64 : 512;
    s.rate = smoke ? 500.0 : 4000.0;
    s.outstanding = 256;
  } else if (workload == "scan_exact") {
    s.resident = smoke ? 4096 : 32768;
    s.clusters = smoke ? 64 : 512;
    s.outstanding = 256;
  }
  return s;
}

using Batch = std::vector<std::pair<uint64_t, SparseVector>>;

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double Sec(uint64_t ns) { return ns / 1e9; }

SketchStoreOptions StoreOptions() {
  SketchStoreOptions o;
  o.family = "wmh";
  o.sketch.dimension = kDimension;
  o.sketch.num_samples = kSamples;
  o.sketch.seed = kFamilySeed;
  o.num_shards = kShards;
  return o;
}

BandedLshParams Banding() {
  BandedLshParams p;
  p.bands = kBands;
  p.rows = kRows;
  return p;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) out += (out.size() > 1 ? ", " : "") + Num(v);
  return out + "]";
}

// Closed-loop capacity: the best segment's rate. The banded closed loop has
// a slow mode (see README.md) that can take the later segments of a run;
// the record lists every segment and counts those below 80 % of the best.
double BestSegment(const std::vector<double>& qps, RunResult* r) {
  const double best = qps.empty() ? 0.0 : *std::max_element(qps.begin(),
                                                            qps.end());
  r->Fact("topk_qps_segments", JsonList(qps));
  r->Fact("topk_qps_slow_segments",
          std::to_string(std::count_if(qps.begin(), qps.end(), [&](double q) {
            return q < 0.8 * best;
          })));
  return best;
}

// Generates `n` vectors in parallel and cuts them into ingest batches.
std::vector<Batch> MakeBatches(size_t n,
                               const std::function<SparseVector(size_t)>& make) {
  std::vector<std::pair<uint64_t, SparseVector>> all(n);
  ParallelFor(n, Nproc(), [&](size_t i) { all[i] = {i, make(i)}; });
  std::vector<Batch> batches;
  for (size_t b = 0; b < n; b += kIngestBatch) {
    const size_t e = std::min(n, b + kIngestBatch);
    batches.emplace_back(std::make_move_iterator(all.begin() + b),
                         std::make_move_iterator(all.begin() + e));
  }
  return batches;
}

// A store and, optionally, its attached index. The index is declared last so
// it detaches before the store is destroyed.
struct Catalog {
  std::unique_ptr<SketchStore> store;
  std::unique_ptr<BandedIndex> index;

  void Reset() {
    index.reset();
    store.reset();
  }
};

Status MakeCatalog(bool with_index, Catalog* out) {
  auto made = SketchStore::Make(StoreOptions());
  IPS_RETURN_IF_ERROR(made.status());
  out->Reset();
  out->store = std::make_unique<SketchStore>(std::move(made).value());
  if (with_index) {
    auto index = BandedIndex::MakeAttached(out->store.get(), Banding());
    IPS_RETURN_IF_ERROR(index.status());
    out->index = std::move(index).value();
  }
  return Status::Ok();
}

Status Ingest(SketchStore* store, const std::vector<Batch>& batches,
              ThreadPool* pool) {
  for (const Batch& batch : batches) {
    IPS_RETURN_IF_ERROR(store->BuildAndInsertBatch(batch, pool));
  }
  return Status::Ok();
}

// Sketches make(i) for i in [0, n) with one Sketcher per thread.
std::vector<std::unique_ptr<AnySketch>> SketchAll(
    const SketchFamily& family, size_t n,
    const std::function<SparseVector(size_t)>& make) {
  std::vector<std::unique_ptr<AnySketch>> out(n);
  const size_t threads = Nproc();
  const size_t per = (n + threads - 1) / threads;
  ParallelFor(threads, threads, [&](size_t t) {
    auto sketcher = family.MakeSketcher().value();
    for (size_t i = t * per; i < std::min(n, (t + 1) * per); ++i) {
      out[i] = family.NewSketch();
      IPS_CHECK(sketcher->Sketch(make(i), out[i].get()).ok());
    }
  });
  return out;
}

// Cuts `values` (in arrival order) into kWindows windows of equal length.
std::vector<std::vector<double>> Windows(const std::vector<double>& values) {
  std::vector<std::vector<double>> w(kWindows);
  for (size_t i = 0; i < values.size(); ++i) {
    w[i * kWindows / values.size()].push_back(values[i]);
  }
  return w;
}

// Reports a latency's windowed p50 and p99 and the highest percentile its
// smallest window supports. A p99 that no window supports says nothing, so
// the run fails when `need_p99` (smoke runs excepted).
void AddLatency(RunResult* r, const std::string& name,
                const std::vector<double>& us, bool need_p99, bool smoke) {
  const auto windows = Windows(us);
  size_t smallest = us.size();
  for (const auto& w : windows) smallest = std::min(smallest, w.size());
  const double supported = HighestSupportedPercentile(smallest);
  r->Fact(name + ".samples", std::to_string(us.size()));
  r->Fact(name + ".window_highest_supported_pct", Num(supported));
  if (need_p99 && !smoke && supported < 99.0) {
    r->Fail(name + ": windows of " + std::to_string(smallest) +
            " samples cannot support p99");
  }
  r->Add(name + "_p50_us", MedianOfWindows(windows, 50), "us");
  // The p99 is recorded, not bounded: on a shared VM it tracks the host's
  // multi-millisecond stalls, not the program (see README.md).
  r->Fact(name + "_p99_us", Num(MedianOfWindows(windows, 99)));
}

// ---- corpus -------------------------------------------------------------------

// Id layout: cluster c's members are ids c·10 … c·10+9; then the §5.1 pairs
// (a at even, b at odd offsets); then noise, the only ids writes replace.
struct Corpus {
  std::unique_ptr<Clusters> clusters;
  size_t members = 0;
  size_t pairs = 0;
  size_t resident = 0;
  std::vector<std::pair<double, double>> pair_truth;  ///< (⟨a,b⟩, ‖a‖‖b‖)

  uint64_t pair_id(size_t p) const { return members + 2 * p; }
  uint64_t first_noise() const { return members + 2 * pairs; }
};

Corpus MakeCorpus(const Spec& spec, uint64_t seed) {
  Corpus corpus;
  corpus.clusters = std::make_unique<Clusters>(seed, spec.clusters);
  corpus.members = spec.clusters * kClusterSize;
  corpus.pairs = spec.pairs;
  corpus.resident = spec.resident;
  corpus.pair_truth.resize(spec.pairs);
  ParallelFor(spec.pairs, Nproc(), [&](size_t p) {
    const VectorPair pair = SyntheticPair(seed, p);
    corpus.pair_truth[p] = {ExactDot(pair.a, pair.b),
                            pair.a.Norm() * pair.b.Norm()};
  });
  return corpus;
}

SparseVector CorpusVector(const Corpus& corpus, uint64_t seed, size_t id) {
  if (id < corpus.members) {
    return corpus.clusters->Variant(id / kClusterSize, id % kClusterSize);
  }
  if (id < corpus.first_noise()) {
    VectorPair pair = SyntheticPair(seed, (id - corpus.members) / 2);
    return (id - corpus.members) % 2 == 0 ? std::move(pair.a)
                                          : std::move(pair.b);
  }
  return NoiseVector(seed, id);
}

// Query `i`: a fresh variant of a seeded cluster, so no query repeats and its
// exact top-10 is that cluster's members.
struct Query {
  uint32_t cluster = 0;
  SparseVector vec;
};

Query MakeQuery(const Corpus& corpus, uint64_t seed, uint64_t i) {
  Query q;
  q.cluster = static_cast<uint32_t>(MixSeed(seed, 0x51, i) %
                                    corpus.clusters->count());
  q.vec = corpus.clusters->Variant(q.cluster, kClusterSize + i);
  return q;
}

double RecallAt10(const Corpus& corpus, uint32_t cluster,
                  const std::vector<QueryHit>& hits) {
  size_t found = 0;
  for (const QueryHit& h : hits) {
    if (h.id < corpus.members && h.id / kClusterSize == cluster) ++found;
  }
  return static_cast<double>(found) / kClusterSize;
}

// The construction promises exact answers: a query overlaps its cluster's
// members (positive inner product) and nothing else. Checked on a sample.
void CheckConstruction(const Corpus& corpus, uint64_t seed,
                       RunResult* r) {
  for (uint64_t i = 0; i < 64; ++i) {
    const Query q = MakeQuery(corpus, seed, (uint64_t{1} << 50) + i);
    for (size_t j = 0; j < kClusterSize; ++j) {
      const size_t id = q.cluster * kClusterSize + j;
      if (!(ExactDot(q.vec, CorpusVector(corpus, seed, id)) > 0.0)) {
        r->Fail("planted member has no positive overlap with its query");
        return;
      }
    }
    const size_t other = corpus.first_noise() +
                         (i * 7919) % (corpus.resident - corpus.first_noise());
    const size_t foreign = ((q.cluster + 1) % corpus.clusters->count()) *
                           kClusterSize;
    if (ExactDot(q.vec, CorpusVector(corpus, seed, other)) != 0.0 ||
        ExactDot(q.vec, CorpusVector(corpus, seed, foreign)) != 0.0) {
      r->Fail("query overlaps a vector outside its cluster");
      return;
    }
  }
}

// One arrival of the load generator.
struct Request {
  uint64_t index = 0;
  uint64_t scheduled_ns = 0;  ///< open loop: due time; closed loop: submit
  uint64_t submitted_ns = 0;
  uint64_t done_ns = 0;
  uint32_t cluster = 0;
  bool closed_loop = false;
  bool ok = false;
  bool keep_hits = false;
  double recall = 0.0;
  std::vector<QueryHit> hits;  ///< kept for verified requests only
};

// The request-serving side shared by search_banded and scan_exact.
class Load {
 public:
  /// Outcomes are tallied into `outcomes`.
  Load(const Corpus* corpus, uint64_t seed, FrontDoor* fd,
       OutcomeCounter* outcomes)
      : corpus_(corpus), seed_(seed), fd_(fd), outcomes_(outcomes) {}

  /// Submits query `i` as a top-10; `on_done` runs after bookkeeping.
  /// Safe to call from completion callbacks on pool workers.
  Request* Submit(uint64_t i, uint64_t scheduled_ns, bool closed_loop,
                  std::function<void()> on_done = nullptr) {
    Query q = MakeQuery(*corpus_, seed_, i);
    Request* r;
    {
      std::lock_guard<std::mutex> lock(mu_);
      r = &requests_.emplace_back();
    }
    r->index = i;
    r->scheduled_ns = scheduled_ns;
    r->cluster = q.cluster;
    r->closed_loop = closed_loop;
    r->keep_hits = i % kVerifyEvery == 0;
    outcomes_->Attempt();
    submitted_.fetch_add(1, std::memory_order_relaxed);
    r->submitted_ns = NowNs();
    fd_->SubmitTopK(
        std::move(q.vec), kTopK,
        [this, r, on_done = std::move(on_done)](FrontDoor::TopKResult res) {
          r->done_ns = NowNs();
          if (res.ok()) {
            r->ok = true;
            r->recall = RecallAt10(*corpus_, r->cluster, res.value());
            if (r->keep_hits) r->hits = res.value();
          }
          outcomes_->Record(res.status());
          // Before the release below: Drain() may return right after it,
          // and a submission from on_done must already be counted.
          if (on_done) on_done();
          done_.fetch_add(1, std::memory_order_release);
        });
    return r;
  }

  /// Blocks until every submitted request has completed.
  void Drain() const {
    while (done_.load(std::memory_order_acquire) <
           submitted_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const std::deque<Request>& requests() const { return requests_; }

 private:
  const Corpus* corpus_;
  uint64_t seed_;
  FrontDoor* fd_;
  std::mutex mu_;  // guards appends to requests_
  // deque: callbacks hold pointers to their slot while others append.
  std::deque<Request> requests_;
  OutcomeCounter* outcomes_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> done_{0};
};

void SleepUntilNs(uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

struct OpenLoopResult {
  std::vector<double> lag_us;
  std::vector<double> write_us;
};

// Open loop: arrival first_arrival + i is due at t0 + i / rate whatever
// happened before. Every kWriteEvery-th arrival is a write — write w (the
// next is *next_write) inserts pre-sketched fresh noise vector w as id
// first_fresh_id + w and erases noise vector oldest_noise + w — handed to the
// library's pool as one task, so a write stuck behind readers delays no
// later arrival; the rest are top-10 queries. Latencies run from the due
// time.
OpenLoopResult RunOpenLoop(Load* load, SketchStore* store, ThreadPool* pool,
                           double rate, double seconds, uint64_t first_arrival,
                           std::vector<std::unique_ptr<AnySketch>>* fresh,
                           size_t* next_write, uint64_t first_fresh_id,
                           uint64_t oldest_noise, OutcomeCounter* writes,
                           Tracer* tracer) {
  OpenLoopResult out;
  const size_t arrivals = static_cast<size_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  out.write_us.assign(
      std::min(fresh->size() - *next_write, arrivals / kWriteEvery), 0.0);
  std::atomic<size_t> writes_done{0};
  size_t j = 0;  // writes of this phase
  const uint64_t t0 = NowNs() + 1000000;
  for (size_t i = 0; i < arrivals; ++i) {
    const uint64_t due = t0 + static_cast<uint64_t>(i * period_ns);
    if (NowNs() < due) SleepUntilNs(due);
    out.lag_us.push_back((NowNs() - due) / 1e3);
    if (i % kWriteEvery != kWriteEvery - 1 || j == out.write_us.size()) {
      load->Submit(first_arrival + i, due, false);
      continue;
    }
    writes->Attempt();
    const size_t w = *next_write + j;
    // std::function needs a copyable task, so the sketch travels raw.
    AnySketch* sketch = (*fresh)[w].release();
    auto task = [=, &out, &writes_done] {
      Status st;
      {
        SpanScope span(tracer, "store.insert", w);
        st = store->Insert(first_fresh_id + w,
                           std::unique_ptr<AnySketch>(sketch));
      }
      if (st.ok()) {
        SpanScope span(tracer, "store.erase", w);
        st = store->Erase(oldest_noise + w);
      }
      writes->Record(st);
      out.write_us[j] = (NowNs() - due) / 1e3;
      writes_done.fetch_add(1, std::memory_order_release);
    };
    if (!pool->Submit(task)) {
      delete sketch;
      writes->Record(Status::Unavailable("pool stopped"));
      writes_done.fetch_add(1, std::memory_order_release);
    }
    ++j;
  }
  load->Drain();
  while (writes_done.load(std::memory_order_acquire) < j) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.write_us.resize(j);
  *next_write += j;
  return out;
}

// Closed loop: `outstanding` requests in flight. Each completion callback
// submits the next request itself, on the pool worker that ran it, so no
// generator thread competes with the workers for CPUs. Returns the
// completions per second within the phase.
double RunClosedLoop(Load* load, size_t outstanding, double seconds,
                     uint64_t first_query) {
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<uint64_t> next{first_query};
  std::function<void()> resubmit = [&] {
    if (NowNs() < end) load->Submit(next.fetch_add(1), NowNs(), true, resubmit);
  };
  for (size_t k = 0; k < outstanding; ++k) resubmit();
  load->Drain();
  size_t done = 0;
  for (const Request& r : load->requests()) {
    done += r.closed_loop && r.ok && r.done_ns >= start && r.done_ns < end;
  }
  return done / seconds;
}

// Re-derives every kept answer outside the timed phases. Banded answers must
// score each planted member bit-identically to the pairwise estimator;
// exact-scan answers must equal the serial QueryEngine::TopKSketch id for id,
// estimate for estimate. Returns how many answers it checked.
size_t VerifyAnswers(const Load& load, const Corpus& corpus, uint64_t seed,
                     const SketchStore& store, bool exact, RunResult* r) {
  std::vector<const Request*> kept;
  for (const Request& req : load.requests()) {
    if (req.ok && req.keep_hits) kept.push_back(&req);
  }
  if (exact && kept.size() > 48) {
    // Serial exact scans are slow; an even spread of 48 is enough.
    std::vector<const Request*> spread;
    for (size_t k = 0; k < 48; ++k) spread.push_back(kept[k * kept.size() / 48]);
    kept.swap(spread);
  }
  const SketchFamily& family = store.family();
  QueryEngine serial(&store);
  std::mutex mu;
  std::vector<std::string> problems;
  ParallelFor(kept.size(), Nproc(), [&](size_t k) {
    const Request& req = *kept[k];
    const Query q = MakeQuery(corpus, seed, req.index);
    auto sketch = family.NewSketch();
    IPS_CHECK(family.MakeSketcher().value()->Sketch(q.vec, sketch.get()).ok());
    std::string problem;
    if (req.hits.size() > kTopK) problem = "more than k hits";
    for (size_t h = 1; h < req.hits.size() && problem.empty(); ++h) {
      const QueryHit& a = req.hits[h - 1];
      const QueryHit& b = req.hits[h];
      if (a.estimate < b.estimate ||
          (a.estimate == b.estimate && a.id > b.id)) {
        problem = "hits not in best-first order";
      }
    }
    if (problem.empty() && exact) {
      auto want = serial.TopKSketch(*sketch, kTopK);
      if (!want.ok() || want.value().size() != req.hits.size()) {
        problem = "exact scan disagrees with serial TopKSketch (size)";
      } else {
        for (size_t h = 0; h < req.hits.size(); ++h) {
          if (want.value()[h].id != req.hits[h].id ||
              std::memcmp(&want.value()[h].estimate, &req.hits[h].estimate,
                          sizeof(double)) != 0) {
            problem = "exact scan disagrees with serial TopKSketch at rank " +
                      std::to_string(h);
            break;
          }
        }
      }
    } else if (problem.empty()) {
      for (const QueryHit& h : req.hits) {
        if (h.id >= corpus.members) continue;  // noise may be erased by now
        auto stored = store.Lookup(h.id);
        auto est = stored.ok() ? family.Estimate(*sketch, *stored.value())
                               : ipsketch::Result<double>(stored.status());
        if (!est.ok() || std::memcmp(&est.value(), &h.estimate,
                                     sizeof(double)) != 0) {
          problem = "banded estimate differs from the pairwise estimator";
          break;
        }
      }
    }
    if (!problem.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      problems.push_back("request " + std::to_string(req.index) + ": " +
                         problem);
    }
  });
  for (const std::string& p : problems) r->Fail(p);
  return kept.size();
}

// The workload's inputs, and for the query workloads the resident catalog,
// built `reps` times (keeping the last); set-up time, ingest rate and heap
// growth are medians over the repetitions.
struct Setup {
  Corpus corpus;
  std::vector<Batch> batches;  ///< kept only when no catalog is built
  Catalog catalog;
  std::vector<std::unique_ptr<AnySketch>> fresh;  ///< pre-sketched writes
  double setup_s = 0.0;
  double ingest_vps = 0.0;
  double catalog_mb = 0.0;
};

Status SetUp(const Spec& spec, uint64_t seed, bool build, bool with_index,
             size_t fresh_count, ThreadPool* pool, size_t reps, Setup* out) {
  std::vector<double> setup_s, ingest_vps, heap_mb;
  for (size_t rep = 0; rep < reps; ++rep) {
    out->catalog.Reset();
    out->fresh.clear();
    out->batches.clear();
    const uint64_t t0 = NowNs();
    out->corpus = MakeCorpus(spec, seed);
    out->batches = MakeBatches(spec.resident, [&](size_t id) {
      return CorpusVector(out->corpus, seed, id);
    });
    if (build) {
      const uint64_t heap0 = HeapInUseBytes();
      IPS_RETURN_IF_ERROR(MakeCatalog(with_index, &out->catalog));
      const uint64_t t1 = NowNs();
      IPS_RETURN_IF_ERROR(Ingest(out->catalog.store.get(), out->batches, pool));
      ingest_vps.push_back(spec.resident / Sec(NowNs() - t1));
      heap_mb.push_back((HeapInUseBytes() - heap0) / 1048576.0);
      out->batches.clear();
      out->fresh = SketchAll(out->catalog.store->family(), fresh_count,
                             [&](size_t k) {
                               return NoiseVector(seed, spec.resident + k);
                             });
    }
    setup_s.push_back(Sec(NowNs() - t0));
  }
  out->setup_s = Median(setup_s);
  out->ingest_vps = Median(ingest_vps);
  out->catalog_mb = Median(heap_mb);
  return Status::Ok();
}

// Estimates every §5.1 pair through a fresh FrontDoor over `store`.
std::vector<double> EstimatePairs(const SketchStore& store, ThreadPool* pool,
                                  const Corpus& corpus,
                                  OutcomeCounter* outcomes) {
  std::vector<double> est(corpus.pairs, std::nan(""));
  FrontDoorOptions options;
  options.max_queue_depth = corpus.pairs;  // all submitted at once, none shed
  FrontDoor fd(&store, pool, options);
  std::vector<ipsketch::FrontDoorFuture<double>> futures;
  for (size_t p = 0; p < corpus.pairs; ++p) {
    outcomes->Attempt();
    futures.push_back(
        fd.SubmitEstimate(corpus.pair_id(p), corpus.pair_id(p) + 1));
  }
  for (size_t p = 0; p < corpus.pairs; ++p) {
    auto res = futures[p].Take();
    outcomes->Record(res.status());
    if (res.ok()) est[p] = res.value();
  }
  return est;
}

struct RestartResult {
  double save_s = 0.0;
  double load_s = 0.0;
  double est_err = 0.0;
};

// Saves the catalog, destroys it, loads it back and re-attaches the index
// (when it had one): the restart path. The §5.1 pair estimates must be
// bit-identical before and after; est_err is their error after reload.
Status Restart(Catalog* cat, const Corpus& corpus, ThreadPool* pool,
               const std::string& path, OutcomeCounter* outcomes,
               RestartResult* out) {
  const bool with_index = cat->index != nullptr;
  const size_t size = cat->store->size();
  const std::vector<double> before =
      EstimatePairs(*cat->store, pool, corpus, outcomes);
  uint64_t t = NowNs();
  IPS_RETURN_IF_ERROR(ipsketch::SaveSketchStore(*cat->store, path));
  out->save_s = Sec(NowNs() - t);
  cat->Reset();  // nothing of the served catalog survives
  t = NowNs();
  auto loaded = ipsketch::LoadSketchStore(path);
  IPS_RETURN_IF_ERROR(loaded.status());
  cat->store = std::make_unique<SketchStore>(std::move(loaded).value());
  if (with_index) {
    auto index = BandedIndex::MakeAttached(cat->store.get(), Banding());
    IPS_RETURN_IF_ERROR(index.status());
    cat->index = std::move(index).value();
  }
  out->load_s = Sec(NowNs() - t);
  std::filesystem::remove(path);
  if (cat->store->size() != size ||
      (with_index && cat->index->size() != size)) {
    return Status::Internal("reloaded catalog has the wrong size");
  }
  const std::vector<double> after =
      EstimatePairs(*cat->store, pool, corpus, outcomes);
  std::vector<double> err;
  for (size_t p = 0; p < corpus.pairs; ++p) {
    if (std::memcmp(&before[p], &after[p], sizeof(double)) != 0) {
      return Status::Internal("estimate of pair " + std::to_string(p) +
                              " changed across save/load");
    }
    err.push_back(std::fabs(after[p] - corpus.pair_truth[p].first) /
                  corpus.pair_truth[p].second);
  }
  // The median: per-pair errors are heavy-tailed (outliers), so their mean
  // is set by a few pairs and moves with the seed far more than the median.
  out->est_err = Median(err);
  return Status::Ok();
}

// Closed-loop writers, one per pool worker, splitting w in [begin, end):
// each inserts pre-sketched fresh noise vector w (id first_fresh_id + w),
// erases noise vector oldest_noise + w, waits for both, and repeats. One
// writer per worker spreads the writes over every CPU, so one slow vCPU of
// a shared machine does not set the figure. Returns each write's latency in
// microseconds, grouped by writer.
std::vector<double> ConcurrentWrites(
    SketchStore* store, ThreadPool* pool,
    std::vector<std::unique_ptr<AnySketch>>* fresh, size_t begin, size_t end,
    uint64_t first_fresh_id, uint64_t oldest_noise, OutcomeCounter* writes) {
  std::vector<double> us(end - begin, 0.0);
  const size_t writers = pool->num_threads();
  const size_t per = (end - begin + writers - 1) / writers;
  pool->ParallelFor(writers, [&](size_t k) {
    for (size_t w = begin + k * per; w < std::min(end, begin + (k + 1) * per);
         ++w) {
      writes->Attempt();
      const uint64_t t = NowNs();
      Status st = store->Insert(first_fresh_id + w, std::move((*fresh)[w]));
      if (st.ok()) st = store->Erase(oldest_noise + w);
      us[w - begin] = (NowNs() - t) / 1e3;
      writes->Record(st);
    }
  });
  return us;
}

// ---- traced replays ----------------------------------------------------------

// Replays the FrontDoor's batch execution call by call — sketch each query,
// then one TopKSketchBatch — on nproc threads, alternating untraced and
// traced passes of equal work. Returns traced ÷ untraced wall time.
double ReplayQueryBatches(const Corpus& corpus, uint64_t seed,
                          const SketchStore& store, const QueryEngine& engine,
                          size_t batch_size, double pass_seconds,
                          Tracer* tracer) {
  const size_t threads = Nproc();
  const SketchFamily& family = store.family();
  std::atomic<uint64_t> next_query{uint64_t{1} << 40};
  auto pass = [&](Tracer* t, size_t batches_per_thread, double limit_s,
                  std::atomic<size_t>* done_batches) {
    const uint64_t start = NowNs();
    ParallelFor(threads, threads, [&](size_t) {
      auto sketcher = family.MakeSketcher().value();
      for (size_t b = 0; b < batches_per_thread; ++b) {
        if (limit_s > 0 && Sec(NowNs() - start) > limit_s) break;
        std::vector<Query> queries;
        const uint64_t base = next_query.fetch_add(batch_size);
        for (size_t k = 0; k < batch_size; ++k) {
          queries.push_back(MakeQuery(corpus, seed, base + k));
        }
        std::vector<std::unique_ptr<AnySketch>> sketches;
        std::vector<const AnySketch*> ptrs;
        const std::vector<size_t> ks(batch_size, kTopK);
        {
          SpanScope root(t, "batch", base);
          for (const Query& q : queries) {
            sketches.push_back(family.NewSketch());
            SpanScope s(t, "sketch", base, root.id());
            IPS_CHECK(sketcher->Sketch(q.vec, sketches.back().get()).ok());
          }
          for (const auto& s : sketches) ptrs.push_back(s.get());
          SpanScope e(t, "engine.batch", base, root.id());
          auto results = engine.TopKSketchBatch(ptrs, ks);
          IPS_CHECK(results.size() == batch_size);
        }
        if (done_batches != nullptr) done_batches->fetch_add(1);
      }
    });
    return Sec(NowNs() - start);
  };
  std::atomic<size_t> calibrated{0};
  double untraced = pass(nullptr, SIZE_MAX, pass_seconds, &calibrated);
  const size_t per_thread = std::max<size_t>(1, calibrated.load() / threads);
  untraced = pass(nullptr, per_thread, 0, nullptr);
  double traced = pass(tracer, per_thread, 0, nullptr);
  untraced += pass(nullptr, per_thread, 0, nullptr);
  traced += pass(tracer, per_thread, 0, nullptr);
  return traced / untraced;
}

// The front door's own work per request — admission, dispatch, completion —
// with every layer below it idle: requests carry pre-built sketches, the
// catalog is empty, and a front door without a pool dispatches inline, so
// each SubmitTopKSketch returns after its callback ran. Returns the median
// request span in microseconds.
double FrontDoorSelfUs(const Corpus& corpus, uint64_t seed, Tracer* tracer,
                       RunResult* r) {
  constexpr size_t kRequests = 2000;
  Catalog empty;
  const Status st = MakeCatalog(false, &empty);
  if (!st.ok()) {
    r->Fail("front door self: " + st.ToString());
    return 0.0;
  }
  auto sketches =
      SketchAll(empty.store->family(), kRequests, [&](size_t k) {
        return MakeQuery(corpus, seed, (uint64_t{1} << 46) + k).vec;
      });
  OutcomeCounter outcomes;
  {
    FrontDoor fd(empty.store.get(), /*pool=*/nullptr);
    for (size_t k = 0; k < kRequests; ++k) {
      outcomes.Attempt();
      SpanScope span(tracer, "front_door.request", k);
      fd.SubmitTopKSketch(std::move(sketches[k]), kTopK,
                          [&outcomes](FrontDoor::TopKResult res) {
                            outcomes.Record(res.status());
                          });
    }
  }
  const Outcomes o = outcomes.Get();
  r->attempted += o.attempted;
  r->failed += o.failed();
  if (o.completed != kRequests) r->Fail("front door self: requests failed");
  return Median(tracer->DurationsUs("front_door.request"));
}

struct RegistryMark {
  FrontDoorCounters fd;
  metrics::HistogramSnapshot queue_wait, batch_size, pool_wait;
  static RegistryMark Take() {
    return {FrontDoorCounters::Read(),
            ReadHistogram("ipsketch_frontdoor_queue_wait_ns"),
            ReadHistogram("ipsketch_frontdoor_batch_size"),
            ReadHistogram("ipsketch_pool_task_wait_ns")};
  }
};

bool CountersValid() { return metrics::kCompiledIn && metrics::Enabled(); }

void ReportNotApplicable(RunResult* r) {
  std::string list = "[";
  for (const auto& [name, unit] : LayerMetrics()) {
    const bool present =
        std::any_of(r->metrics.begin(), r->metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!present) {
      r->Add(name, 0.0, unit);
      list += (list.size() > 1 ? ",\"" : "\"") + name + "\"";
    }
  }
  r->Fact("not_applicable", list + "]");
  // BENCHMARK.json order.
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : LayerMetrics()) {
    for (const Metric& m : r->metrics) {
      if (m.name == name) ordered.push_back(m);
    }
  }
  r->metrics.swap(ordered);
}

// ---- search_banded and scan_exact -------------------------------------------

void RunQueryWorkload(const RunConfig& cfg, bool banded, RunResult* r) {
  const Spec spec = SpecFor(cfg.workload, cfg.smoke);
  const size_t nproc = Nproc();
  ThreadPool pool(nproc);
  Tracer tracer(cfg.trace);
  // An untraced run is cut into kCycles cycles of closed-loop segment,
  // open-loop segment (search_banded) and restart, so every figure is a
  // median over samples spread across the whole run: a slow spell of the
  // machine moves a minority of them. The traced run makes one cycle with
  // no restart, so its registry reads cover one unbroken primary phase.
  const size_t cycles = cfg.trace ? 1 : kCycles;
  const double open_s = banded ? 2.0 * cfg.seconds / 3.0 / cycles : 0.0;
  const double closed_s = cfg.seconds / cycles - open_s;
  const size_t fresh_count =
      banded ? static_cast<size_t>(spec.rate * open_s / kWriteEvery) * cycles +
                   16
             : spec.writes;

  Setup setup;
  Status st = SetUp(spec, cfg.seed, /*build=*/true, banded, fresh_count, &pool,
                    cfg.trace ? 1 : kSetupReps, &setup);
  if (!st.ok()) {
    r->Fail("setup: " + st.ToString());
    return;
  }
  CheckConstruction(setup.corpus, cfg.seed, r);
  const std::string path = cfg.scratch_dir + "/perfbench_catalog_" +
                           std::to_string(::getpid()) + ".store";

  FrontDoorOptions fd_options;
  // The layer table reads the registry over the workload's primary phase:
  // the open loop of search_banded, the closed loop of scan_exact.
  const RegistryMark before = RegistryMark::Take();
  RegistryMark phase_before = before, phase_after;
  // Every front-door request: queries and the restarts' pair estimates.
  OutcomeCounter served;
  OutcomeCounter writes;
  std::vector<double> qps, open_us, submit_us, lag_us, write_us, recalls;
  std::vector<double> save_s, load_s;
  RestartResult restart;
  size_t next_write = 0;
  size_t verified = 0;
  bool exact_missed = false;
  for (size_t c = 0; c < cycles; ++c) {
    SketchStore* store = setup.catalog.store.get();
    const uint64_t first_query = (c + 1) * (uint64_t{1} << 32);
    std::unique_ptr<Load> load;
    {
      FrontDoor fd(store, &pool, fd_options, setup.catalog.index.get(),
                   banded ? IndexPolicy::kBandedRerank
                          : IndexPolicy::kExactScan);
      load = std::make_unique<Load>(&setup.corpus, cfg.seed, &fd, &served);
      // The closed loop first, on the catalog as set up or reloaded, before
      // this cycle's open-loop writes change it.
      qps.push_back(RunClosedLoop(load.get(), spec.outstanding, closed_s,
                                  first_query + (uint64_t{1} << 31)));
      if (cfg.trace && banded) phase_before = RegistryMark::Take();
      if (banded) {
        OpenLoopResult open = RunOpenLoop(
            load.get(), store, &pool, spec.rate, open_s, first_query,
            &setup.fresh, &next_write, spec.resident,
            setup.corpus.first_noise(), &writes, &tracer);
        lag_us.insert(lag_us.end(), open.lag_us.begin(), open.lag_us.end());
        write_us.insert(write_us.end(), open.write_us.begin(),
                        open.write_us.end());
      }
      if (cfg.trace) phase_after = RegistryMark::Take();
    }
    for (const Request& req : load->requests()) {
      if (!req.ok) continue;
      recalls.push_back(req.recall);
      exact_missed |= !banded && req.recall != 1.0;
      if (req.closed_loop != banded) {
        submit_us.push_back((req.done_ns - req.submitted_ns) / 1e3);
      }
      if (!req.closed_loop) {
        open_us.push_back((req.done_ns - req.scheduled_ns) / 1e3);
      }
    }
    verified +=
        VerifyAnswers(*load, setup.corpus, cfg.seed, *store, !banded, r);
    if (cfg.trace) continue;

    st = Restart(&setup.catalog, setup.corpus, &pool, path, &served,
                 &restart);
    if (!st.ok()) {
      r->Fail("restart: " + st.ToString());
      break;
    }
    save_s.push_back(restart.save_s);
    load_s.push_back(restart.load_s);
    if (!banded) {
      // Closed-loop writes on the scan catalog, never beside the scan.
      const size_t n = setup.fresh.size();
      const std::vector<double> us = ConcurrentWrites(
          setup.catalog.store.get(), &pool, &setup.fresh, c * n / cycles,
          (c + 1) * n / cycles, spec.resident, setup.corpus.first_noise(),
          &writes);
      write_us.insert(write_us.end(), us.begin(), us.end());
    }
  }
  const RegistryMark after = RegistryMark::Take();
  SketchStore* store = setup.catalog.store.get();
  const BandedIndex* index = setup.catalog.index.get();

  // Accounting and answers.
  const Outcomes o = served.Get();
  st = CheckAccounting(o, after.fd - before.fd, CountersValid());
  if (!st.ok()) r->Fail(st.ToString());
  if (store->size() != spec.resident) r->Fail("catalog size drifted");
  const double recall = Mean(recalls);
  if (banded && recall < kBandedRecallFloor) {
    r->Fail("banded recall@10 " + Num(recall) + " below floor");
  }
  if (exact_missed) r->Fail("exact scan missed a true top-10 member");
  const Outcomes w = writes.Get();
  if (w.failed() != 0) r->Fail(std::to_string(w.failed()) + " writes failed");
  r->attempted = o.attempted + w.attempted;
  r->failed = o.failed() + w.failed();

  const double lag_p99 = NearestRank(lag_us, 99);
  if (banded) {
    r->Fact("offered_rate_per_s", Num(spec.rate));
    r->Fact("gen.lag_p99_us", Num(lag_p99));
    const bool behind = lag_p99 > kGenBehindUs;
    r->Fact("gen_behind", behind ? "true" : "false");
    if (behind) {
      std::fprintf(stderr, "warning: generator fell behind (lag p99 %.0f us)\n",
                   lag_p99);
    }
  }
  r->Fact("outstanding", std::to_string(spec.outstanding));
  r->Fact("resident", std::to_string(spec.resident));
  r->Fact("verified_requests", std::to_string(verified));

  if (!cfg.trace) {
    r->Add("setup_s", setup.setup_s, "s");
    r->Add("ingest_vps", setup.ingest_vps, "vec/s");
    r->Add("save_s", Median(save_s), "s");
    r->Add("load_s", Median(load_s), "s");
    r->Add("est_err", restart.est_err, "ratio");
    r->Add("topk_qps", BestSegment(qps, r), "req/s");
    AddLatency(r, "topk", banded ? open_us : submit_us, banded, cfg.smoke);
    AddLatency(r, "write", write_us, banded, cfg.smoke);
    r->Add("recall_at_10", recall, "ratio");
    r->Add("catalog_mb", setup.catalog_mb, "MiB");
    return;
  }

  // ---- traced run: per-layer numbers ----
  const auto queue_wait =
      HistogramDelta(phase_after.queue_wait, phase_before.queue_wait);
  const auto batch_hist =
      HistogramDelta(phase_after.batch_size, phase_before.batch_size);
  const auto pool_wait =
      HistogramDelta(phase_after.pool_wait, phase_before.pool_wait);
  const auto fd_delta = phase_after.fd - phase_before.fd;
  const double batch_mean = batch_hist.Mean();
  r->Add("front_door.queue_wait_p50_us", queue_wait.Percentile(50) / 1e3, "us");
  r->Add("front_door.queue_wait_p99_us", queue_wait.Percentile(99) / 1e3, "us");
  r->Add("front_door.batch_size_mean", batch_mean, "count");
  r->Add("front_door.shed", static_cast<double>(fd_delta.shed), "count");
  r->Add("front_door.expired", static_cast<double>(fd_delta.expired), "count");
  r->Add("pool.task_wait_p99_us", pool_wait.Percentile(99) / 1e3, "us");
  if (banded) {
    r->Add("gen.lag_p99_us", lag_p99, "us");
    r->Add("store.insert_us", Mean(tracer.DurationsUs("store.insert")), "us");
    r->Add("store.erase_us", Mean(tracer.DurationsUs("store.erase")), "us");
  }

  // Pinning cost of the snapshot read path.
  for (int k = 0; k < 2000; ++k) {
    SpanScope span(&tracer, "store.pin", k);
    auto views = store->PinStore();
    IPS_CHECK(views.size() == kShards);
  }
  r->Add("store.pin_us", Mean(tracer.DurationsUs("store.pin")), "us");
  r->Add("store.bytes_per_sketch",
         store->TotalResidentWords() * 8.0 / store->size(), "bytes");

  // Batch replay at the front door's observed mean batch size.
  QueryEngine engine(store, nullptr, index,
                     banded ? IndexPolicy::kBandedRerank
                            : IndexPolicy::kExactScan);
  engine.set_read_mode(ReadMode::kSnapshot);
  const size_t replay_batch = std::clamp<size_t>(
      static_cast<size_t>(std::lround(batch_mean)), 1, fd_options.max_batch);
  const double overhead =
      ReplayQueryBatches(setup.corpus, cfg.seed, *store, engine, replay_batch,
                         0.1 * cfg.seconds, &tracer);
  const double sketch_us = Mean(tracer.DurationsUs("sketch"));
  const auto batch_us = tracer.DurationsUs("engine.batch");
  r->Add("sketch.us_per_vec", sketch_us, "us");
  r->Add("engine.batch_us", Mean(batch_us), "us");
  r->Add("engine.ns_per_pair",
         Mean(batch_us) * 1e3 / (replay_batch * static_cast<double>(spec.resident)),
         "ns");
  const double self_us = FrontDoorSelfUs(setup.corpus, cfg.seed, &tracer, r);
  r->Add("front_door.self_us", self_us, "us");
  // The live phase's median request latency, submit to completion, less
  // each layer's share of one request: its queue wait, the sketching of its
  // whole batch, the batch's engine call and the front door's own work.
  const double latency_us = Median(submit_us);
  const double layers_us = queue_wait.Percentile(50) / 1e3 +
                           batch_mean * sketch_us + Mean(batch_us) + self_us;
  r->Fact("live_latency_p50_us", Num(latency_us));
  r->Add("unattributed.share",
         latency_us > 0 ? 1.0 - layers_us / latency_us : 1.0, "ratio");
  r->Add("trace.overhead", overhead, "ratio");
  r->Fact("replay_batch", std::to_string(replay_batch));

  // Probe replay (banded) and the engine's own heap-merge span.
  const size_t probes = banded ? 512 : 32;
  auto sketcher = store->family().MakeSketcher().value();
  std::vector<double> merge_us;
  double buckets = 0, candidates = 0, useful = 0;
  for (size_t k = 0; k < probes; ++k) {
    const Query q = MakeQuery(setup.corpus, cfg.seed, (uint64_t{1} << 45) + k);
    metrics::QueryTrace qt;
    auto res = engine.TopK(q.vec, kTopK, &qt);
    IPS_CHECK(res.ok());
    for (size_t s = 0; s < qt.size(); ++s) {
      if (std::strcmp(qt.span(s).stage, "heap-merge") == 0) {
        merge_us.push_back(qt.span(s).duration_ns / 1e3);
      }
    }
    if (!banded) continue;
    auto sketch = store->family().NewSketch();
    IPS_CHECK(sketcher->Sketch(q.vec, sketch.get()).ok());
    ipsketch::TopKHeap heap(kTopK);
    ipsketch::IndexProbeStats stats;
    {
      SpanScope span(&tracer, "index.probe", k);
      std::vector<uint64_t> keys;
      IPS_CHECK(index->QueryBandKeys(*sketch, &keys).ok());
      for (size_t s = 0; s < kShards; ++s) {
        IPS_CHECK(index->ProbeShard(*sketch, keys, s, &heap, &stats).ok());
      }
    }
    std::vector<QueryHit> hits;
    for (const auto& h : heap.TakeSorted()) hits.push_back({h.index, h.estimate});
    buckets += stats.buckets_probed;
    candidates += stats.candidates;
    useful += RecallAt10(setup.corpus, q.cluster, hits) * kClusterSize;
  }
  r->Add("engine.merge_us", Mean(merge_us), "us");
  if (banded) {
    r->Add("index.probe_us", Mean(tracer.DurationsUs("index.probe")), "us");
    r->Add("index.candidates_per_query", candidates / probes, "count");
    r->Add("index.buckets_per_query", buckets / probes, "count");
    r->Add("index.useful_ratio", candidates > 0 ? useful / candidates : 0.0,
           "ratio");
  }
  const Status written = tracer.WriteChromeJson(
      cfg.scratch_dir + "/perfbench_trace_" + cfg.workload + ".json");
  if (!written.ok()) r->Fail(written.ToString());
}

// ---- catalog_build -------------------------------------------------------------

// Replays BuildAndInsertBatch's work call by call — same chunking over the
// same pool, one Sketcher per chunk — with a span around each layer call.
Status ReplayIngest(SketchStore* store, const std::vector<Batch>& batches,
                    ThreadPool* pool, Tracer* tracer) {
  std::mutex mu;
  Status first;
  const SketchFamily& family = store->family();
  for (size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    const size_t chunks = std::min(batch.size(), pool->num_threads());
    const size_t per = (batch.size() + chunks - 1) / chunks;
    pool->ParallelFor(chunks, [&](size_t c) {
      SpanScope root(tracer, "ingest.chunk", b * chunks + c);
      auto sketcher = family.MakeSketcher().value();
      for (size_t i = c * per; i < std::min(batch.size(), (c + 1) * per); ++i) {
        const auto& [id, vec] = batch[i];
        auto sketch = family.NewSketch();
        Status st;
        {
          SpanScope s(tracer, "sketch", id, root.id());
          st = sketcher->Sketch(vec, sketch.get());
        }
        if (st.ok()) {
          SpanScope s(tracer, "store.insert", id, root.id());
          st = store->Insert(id, std::move(sketch));
        }
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = st;
          return;
        }
      }
    });
  }
  return first;
}

// Copies every sketch of `from` into `to` with the same chunking and
// parallelism, timing each Insert as `span_name`.
Status ReplayInsertCopies(const SketchStore& from, SketchStore* to,
                          const std::vector<Batch>& batches, ThreadPool* pool,
                          Tracer* tracer, const char* span_name) {
  std::mutex mu;
  Status first;
  for (const Batch& batch : batches) {
    const size_t chunks = std::min(batch.size(), pool->num_threads());
    const size_t per = (batch.size() + chunks - 1) / chunks;
    pool->ParallelFor(chunks, [&](size_t c) {
      for (size_t i = c * per; i < std::min(batch.size(), (c + 1) * per); ++i) {
        const uint64_t id = batch[i].first;
        auto sketch = from.Lookup(id);
        Status st = sketch.status();
        if (st.ok()) {
          SpanScope s(tracer, span_name, id);
          st = to->Insert(id, std::move(sketch).value());
        }
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = st;
          return;
        }
      }
    });
  }
  return first;
}

// Mean of the last tenth of `span` durations (in start order) over the mean
// of the first tenth.
double GrowthRatio(const Tracer& tracer, const std::string& span) {
  std::vector<std::pair<uint64_t, double>> by_start;
  for (const auto& s : tracer.Spans()) {
    if (span == s.name) by_start.emplace_back(s.start_ns, s.end_ns - s.start_ns);
  }
  std::sort(by_start.begin(), by_start.end());
  const size_t tenth = by_start.size() / 10;
  if (tenth == 0) return 0.0;
  double first = 0, last = 0;
  for (size_t i = 0; i < tenth; ++i) {
    first += by_start[i].second;
    last += by_start[by_start.size() - 1 - i].second;
  }
  return last / first;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void RunCatalogBuild(const RunConfig& cfg, RunResult* r) {
  const Spec spec = SpecFor(cfg.workload, cfg.smoke);
  ThreadPool pool(Nproc());
  const std::string path = cfg.scratch_dir + "/perfbench_catalog_" +
                           std::to_string(::getpid()) + ".store";
  OutcomeCounter outcomes;
  const FrontDoorCounters fd_before = FrontDoorCounters::Read();

  Setup setup;
  Status st = SetUp(spec, cfg.seed, /*build=*/false, true, 0, &pool,
                    cfg.trace ? 1 : kSetupReps, &setup);
  if (!st.ok()) {
    r->Fail("setup: " + st.ToString());
    return;
  }
  const std::vector<Batch>& batches = setup.batches;
  r->Fact("resident", std::to_string(spec.resident));
  r->Fact("pairs", std::to_string(spec.pairs));

  auto finish_accounting = [&](uint64_t ingested, const Outcomes& extra) {
    const Outcomes o = outcomes.Get();
    Status st = CheckAccounting(o, FrontDoorCounters::Read() - fd_before,
                                CountersValid());
    if (!st.ok()) r->Fail(st.ToString());
    r->attempted = o.attempted + extra.attempted + ingested;
    r->failed = o.failed() + extra.failed();
  };

  if (!cfg.trace) {
    // Cycles of build → restart (save, destroy, load, re-index) → closed-loop
    // writes → a short closed loop of banded top-10s on the reloaded catalog,
    // repeated for the run length. Every metric is a median over cycles (or
    // over windows of the pooled latencies), so each spans the whole run.
    std::vector<double> ingest_vps, save_s, load_s, heap_mb, qps;
    std::vector<double> submit_us, write_us, recalls;
    size_t verified = 0;
    RestartResult restart;
    OutcomeCounter writes;
    const uint64_t start = NowNs();
    do {
      Catalog cat;
      const uint64_t heap0 = HeapInUseBytes();
      const uint64_t t = NowNs();
      st = MakeCatalog(true, &cat);
      if (st.ok()) st = Ingest(cat.store.get(), batches, &pool);
      if (st.ok()) {
        ingest_vps.push_back(spec.resident / Sec(NowNs() - t));
        heap_mb.push_back((HeapInUseBytes() - heap0) / 1048576.0);
        st = Restart(&cat, setup.corpus, &pool, path, &outcomes, &restart);
      }
      if (!st.ok()) {
        r->Fail("cycle: " + st.ToString());
        return;
      }
      save_s.push_back(restart.save_s);
      load_s.push_back(restart.load_s);

      std::vector<std::unique_ptr<AnySketch>> fresh =
          SketchAll(cat.store->family(), spec.writes, [&](size_t k) {
            return NoiseVector(cfg.seed, spec.resident + k);
          });
      const std::vector<double> us =
          ConcurrentWrites(cat.store.get(), &pool, &fresh, 0, fresh.size(),
                           spec.resident, setup.corpus.first_noise(), &writes);
      write_us.insert(write_us.end(), us.begin(), us.end());

      std::unique_ptr<Load> load;
      {
        FrontDoor fd(cat.store.get(), &pool, FrontDoorOptions(),
                     cat.index.get(), IndexPolicy::kBandedRerank);
        load = std::make_unique<Load>(&setup.corpus, cfg.seed, &fd, &outcomes);
        qps.push_back(RunClosedLoop(load.get(), spec.outstanding,
                                    kServeSeconds,
                                    (qps.size() + 1) * (uint64_t{1} << 32)));
      }
      for (const Request& req : load->requests()) {
        if (!req.ok) continue;
        recalls.push_back(req.recall);
        submit_us.push_back((req.done_ns - req.submitted_ns) / 1e3);
      }
      verified +=
          VerifyAnswers(*load, setup.corpus, cfg.seed, *cat.store, false, r);
    } while (Sec(NowNs() - start) < cfg.seconds);
    r->Fact("cycles", std::to_string(ingest_vps.size()));
    r->Fact("verified_requests", std::to_string(verified));
    CheckConstruction(setup.corpus, cfg.seed, r);
    const double recall = Mean(recalls);
    if (recall < kBandedRecallFloor) {
      r->Fail("banded recall@10 " + Num(recall) + " below floor");
    }
    if (writes.Get().failed() != 0) r->Fail("writes failed");
    finish_accounting(spec.resident * ingest_vps.size(), writes.Get());

    r->Add("setup_s", setup.setup_s, "s");
    r->Add("ingest_vps", Median(ingest_vps), "vec/s");
    r->Add("save_s", Median(save_s), "s");
    r->Add("load_s", Median(load_s), "s");
    r->Add("est_err", restart.est_err, "ratio");
    r->Add("topk_qps", BestSegment(qps, r), "req/s");
    AddLatency(r, "topk", submit_us, false, cfg.smoke);
    AddLatency(r, "write", write_us, false, cfg.smoke);
    r->Add("recall_at_10", recall, "ratio");
    r->Add("catalog_mb", Median(heap_mb), "MiB");
    return;
  }

  // ---- traced run ----
  Tracer tracer(true);
  // The live ingest, untraced, and the same work replayed with spans,
  // alternated twice (U T U T) so a stall of the machine in one of them
  // moves both sides alike. `traced` keeps the last replayed catalog.
  Catalog live, traced;
  double wall_live = 0, wall_traced = 0;
  const auto pool_before = ReadHistogram("ipsketch_pool_task_wait_ns");
  for (int rep = 0; rep < 2 && st.ok(); ++rep) {
    traced.Reset();
    st = MakeCatalog(true, &live);
    uint64_t t = NowNs();
    if (st.ok()) st = Ingest(live.store.get(), batches, &pool);
    wall_live += Sec(NowNs() - t);
    live.Reset();
    if (st.ok()) st = MakeCatalog(true, &traced);
    t = NowNs();
    if (st.ok()) st = ReplayIngest(traced.store.get(), batches, &pool, &tracer);
    wall_traced += Sec(NowNs() - t);
  }
  // Pool waits over the whole alternation: the replay drives the pool as
  // BuildAndInsertBatch does.
  const auto pool_wait =
      HistogramDelta(ReadHistogram("ipsketch_pool_task_wait_ns"), pool_before);
  // Bare twin: the same inserts into a store with no index attached.
  Catalog twin;
  if (st.ok()) st = MakeCatalog(false, &twin);
  if (st.ok()) {
    st = ReplayInsertCopies(*traced.store, twin.store.get(), batches, &pool,
                            &tracer, "store.insert.bare");
  }
  if (!st.ok()) {
    r->Fail("traced ingest: " + st.ToString());
    return;
  }
  for (uint64_t id = setup.corpus.first_noise();
       id < setup.corpus.first_noise() + 1024; ++id) {
    SpanScope span(&tracer, "store.erase", id);
    IPS_CHECK(twin.store->Erase(id).ok());
  }
  twin.Reset();
  for (int k = 0; k < 200; ++k) {
    SpanScope span(&tracer, "store.pin", k);
    IPS_CHECK(traced.store->PinStore().size() == kShards);
  }

  // Persistence, split into encode/decode and the file write/read.
  std::string bytes;
  {
    SpanScope span(&tracer, "persist.encode", 0);
    bytes = ipsketch::EncodeSketchStore(*traced.store);
  }
  bytes.clear();
  bytes.shrink_to_fit();
  {
    SpanScope span(&tracer, "persist.save", 0);
    st = ipsketch::SaveSketchStore(*traced.store, path);
  }
  if (!st.ok()) {
    r->Fail("persist: " + st.ToString());
    return;
  }
  const std::vector<double> before =
      EstimatePairs(*traced.store, &pool, setup.corpus, &outcomes);
  const double bytes_per_sketch =
      static_cast<double>(std::filesystem::file_size(path)) / spec.resident;
  const double resident_bytes =
      traced.store->TotalResidentWords() * 8.0 / traced.store->size();
  traced.Reset();
  bytes = ReadFile(path);
  {
    SpanScope span(&tracer, "persist.decode", 0);
    auto decoded = ipsketch::DecodeSketchStore(bytes);
    if (!decoded.ok()) st = decoded.status();
  }
  bytes.clear();
  bytes.shrink_to_fit();
  {
    SpanScope span(&tracer, "persist.load", 0);
    auto loaded = ipsketch::LoadSketchStore(path);
    if (loaded.ok()) {
      traced.store = std::make_unique<SketchStore>(std::move(loaded).value());
    } else {
      st = loaded.status();
    }
  }
  std::filesystem::remove(path);
  if (!st.ok()) {
    r->Fail("persist: " + st.ToString());
    return;
  }
  const std::vector<double> after =
      EstimatePairs(*traced.store, &pool, setup.corpus, &outcomes);
  for (size_t p = 0; p < spec.pairs; ++p) {
    if (std::memcmp(&before[p], &after[p], sizeof(double)) != 0) {
      r->Fail("estimate of pair " + std::to_string(p) +
              " changed across save/load");
      break;
    }
  }
  finish_accounting(5 * spec.resident, Outcomes());

  const double encode_s = Mean(tracer.DurationsUs("persist.encode")) / 1e6;
  const double decode_s = Mean(tracer.DurationsUs("persist.decode")) / 1e6;
  const double sketch_us = Mean(tracer.DurationsUs("sketch"));
  const double indexed_us = Mean(tracer.DurationsUs("store.insert"));
  const double bare_us = Mean(tracer.DurationsUs("store.insert.bare"));
  r->Add("sketch.us_per_vec", sketch_us, "us");
  r->Add("store.insert_us", bare_us, "us");
  r->Add("store.erase_us", Mean(tracer.DurationsUs("store.erase")), "us");
  r->Add("store.insert_growth", GrowthRatio(tracer, "store.insert.bare"),
         "ratio");
  r->Add("store.pin_us", Mean(tracer.DurationsUs("store.pin")), "us");
  r->Add("store.bytes_per_sketch", resident_bytes, "bytes");
  r->Add("index.maint_us", indexed_us - bare_us, "us");
  r->Add("persist.encode_s", encode_s, "s");
  r->Add("persist.write_s",
         Mean(tracer.DurationsUs("persist.save")) / 1e6 - encode_s, "s");
  r->Add("persist.decode_s", decode_s, "s");
  r->Add("persist.read_s",
         Mean(tracer.DurationsUs("persist.load")) / 1e6 - decode_s, "s");
  r->Add("persist.bytes_per_sketch", bytes_per_sketch, "bytes");
  r->Add("pool.task_wait_p99_us", pool_wait.Percentile(99) / 1e3, "us");
  // The live ingest's worker time per vector (nproc / ingest_vps) less the
  // layers' share of it: sketching it and inserting it into the indexed
  // store.
  const double live_us =
      pool.num_threads() * wall_live * 1e6 / (2.0 * spec.resident);
  r->Fact("live_ingest_vps", Num(2.0 * spec.resident / wall_live));
  r->Add("unattributed.share", 1.0 - (sketch_us + indexed_us) / live_us,
         "ratio");
  r->Add("trace.overhead", wall_traced / wall_live, "ratio");
  const Status written = tracer.WriteChromeJson(
      cfg.scratch_dir + "/perfbench_trace_" + cfg.workload + ".json");
  if (!written.ok()) r->Fail(written.ToString());
}

}  // namespace

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult r;
  std::filesystem::create_directories(cfg.scratch_dir);
  const uint64_t steal_before = StealTicks();
  if (cfg.workload == "catalog_build") {
    RunCatalogBuild(cfg, &r);
  } else if (cfg.workload == "search_banded" ||
             cfg.workload == "scan_exact") {
    RunQueryWorkload(cfg, cfg.workload == "search_banded", &r);
  } else {
    r.Fail("unknown workload '" + cfg.workload + "'");
    return r;
  }
  r.Fact("steal_ticks", std::to_string(StealTicks() - steal_before));
  if (cfg.trace) {
    ReportNotApplicable(&r);
    // Smoke runs are too short and too lightly loaded for their live
    // figures to mean anything (see README.md); the check is skipped there.
    for (const Metric& m : r.metrics) {
      if (!cfg.smoke && m.name == "unattributed.share" &&
          std::fabs(m.value) > kMaxUnattributed) {
        r.Fail("the layers leave " + Num(m.value) +
               " of the live figure unattributed; the table is not valid");
      }
    }
  }
  return r;
}

}  // namespace perfbench
