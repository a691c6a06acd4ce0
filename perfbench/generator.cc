#include "generator.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

using ipsketch::Entry;
using ipsketch::SparseVector;

namespace {

constexpr uint64_t kHalf = kDimension / 2;
constexpr size_t kSwaps = 8;
constexpr uint64_t kNoiseStream = 0x4E01;
constexpr uint64_t kPairStream = 0x9A12;
constexpr uint64_t kClusterStream = 0xC1C1;

// §5.1 value: truncated unit normal, or an outlier in [20, 30] w.p. 0.1.
double PaperValue(Rng& rng) {
  if (rng.Unit() < 0.1) return 20.0 + 10.0 * rng.Unit();
  for (;;) {
    const double x = rng.Gaussian();
    if (std::fabs(x) <= 1.0 && x != 0.0) return x;
  }
}

// `count` distinct indices in [lo, lo + span), sorted. O(count log count):
// draw, sort, dedupe, top up. `span` ≫ count in every caller.
std::vector<uint64_t> Support(Rng& rng, uint64_t lo, uint64_t span,
                              size_t count) {
  std::vector<uint64_t> out;
  out.reserve(count);
  while (out.size() < count) {
    while (out.size() < count) out.push_back(lo + rng.Below(span));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

SparseVector WithPaperValues(Rng& rng, const std::vector<uint64_t>& indices) {
  std::vector<Entry> entries;
  entries.reserve(indices.size());
  for (uint64_t index : indices) entries.push_back({index, PaperValue(rng)});
  return SparseVector::MakeOrDie(kDimension, std::move(entries));
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Gaussian() {
  const double u = 1.0 - Unit();  // (0, 1]
  const double v = Unit();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * v);
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(seed);
  uint64_t h = rng.Next() ^ a;
  h = Rng(h).Next() ^ b;
  h = Rng(h).Next() ^ c;
  return Rng(h).Next();
}

SparseVector NoiseVector(uint64_t seed, uint64_t i) {
  Rng rng(MixSeed(seed, kNoiseStream, i));
  return WithPaperValues(rng, Support(rng, kHalf, kHalf, kNnz));
}

VectorPair SyntheticPair(uint64_t seed, uint64_t i, double overlap) {
  Rng rng(MixSeed(seed, kPairStream, i));
  const size_t shared = static_cast<size_t>(std::lround(overlap * kNnz));
  std::vector<uint64_t> all = Support(rng, kHalf, kHalf, 2 * kNnz - shared);
  // Support() returns sorted indices; shuffle so shared/private are random.
  for (size_t k = all.size(); k > 1; --k) {
    std::swap(all[k - 1], all[rng.Below(k)]);
  }
  std::vector<uint64_t> a(all.begin(), all.begin() + kNnz);
  std::vector<uint64_t> b(all.begin(), all.begin() + shared);
  b.insert(b.end(), all.begin() + kNnz, all.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  VectorPair pair;
  pair.a = WithPaperValues(rng, a);
  pair.b = WithPaperValues(rng, b);
  return pair;
}

Clusters::Clusters(uint64_t seed, size_t count)
    : seed_(seed), block_(kHalf / count) {
  centers_.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    Rng rng(MixSeed(seed, kClusterStream, c));
    centers_.push_back(
        WithPaperValues(rng, Support(rng, c * block_, block_, kNnz)));
  }
}

SparseVector Clusters::Variant(size_t c, uint64_t j) const {
  Rng rng(MixSeed(seed_, kClusterStream, c, j + 1));
  const SparseVector& center = centers_[c];
  std::vector<Entry> entries = center.entries();
  std::vector<uint64_t> taken;
  taken.reserve(kNnz + kSwaps);
  for (const Entry& e : entries) taken.push_back(e.index);
  for (Entry& e : entries) e.value *= 0.9 + 0.2 * rng.Unit();
  for (size_t s = 0; s < kSwaps; ++s) {
    uint64_t fresh;
    do {
      fresh = c * block_ + rng.Below(block_);
    } while (std::find(taken.begin(), taken.end(), fresh) != taken.end());
    taken.push_back(fresh);
    entries[rng.Below(entries.size())] = {fresh, PaperValue(rng)};
  }
  return SparseVector::MakeOrDie(kDimension, std::move(entries));
}

double ExactDot(const SparseVector& a, const SparseVector& b) {
  double dot = 0.0;
  auto x = a.entries().begin(), xe = a.entries().end();
  auto y = b.entries().begin(), ye = b.entries().end();
  while (x != xe && y != ye) {
    if (x->index < y->index) {
      ++x;
    } else if (y->index < x->index) {
      ++y;
    } else {
      dot += x->value * y->value;
      ++x;
      ++y;
    }
  }
  return dot;
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  threads = std::max<size_t>(1, std::min(threads, n));
  const size_t per = (n + threads - 1) / std::max<size_t>(threads, 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const size_t end = std::min(n, (t + 1) * per);
      for (size_t i = t * per; i < end; ++i) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace perfbench
