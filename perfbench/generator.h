// Seeded input generator of the repository benchmark. The library only ever
// sees the vectors made here; everything is a pure function of (seed, kind,
// index), so inputs are identical across runs, thread counts and commits.
//
// Index space (dimension 2^24) is split so that exact answers are known by
// construction:
//   * [0, 2^23): planted clusters. Cluster c owns a private block of
//     2^23 / clusters indices; its members and queries are jittered copies
//     of one center drawn in that block. A query of cluster c therefore has
//     inner product exactly 0 with every vector outside the cluster, and a
//     positive one with each member (shared indices carry same-sign values).
//   * [2^23, 2^24): noise vectors and the §5.1 pairs, supports drawn
//     uniformly. They never overlap a cluster block.
// Values follow the paper's §5.1 recipe: standard normal truncated to
// [-1, 1], with 10% of entries outliers drawn from [20, 30].

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "vector/sparse_vector.h"

namespace perfbench {

inline constexpr uint64_t kDimension = uint64_t{1} << 24;
inline constexpr size_t kNnz = 256;

/// splitmix64: small, fast, and fully specified here, so generated inputs do
/// not change when the library's own generators do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Standard normal (Box–Muller).
  double Gaussian();

 private:
  uint64_t state_;
};

/// Mixes a seed with up to three stream coordinates into a new seed.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);

/// Noise vector `i`: uniform support in the noise half of the index space.
ipsketch::SparseVector NoiseVector(uint64_t seed, uint64_t i);

/// One pair of the paper's §5.1 workload in the noise half: a and b share
/// overlap·nnz indices (10%), values drawn independently.
struct VectorPair {
  ipsketch::SparseVector a;
  ipsketch::SparseVector b;
};
VectorPair SyntheticPair(uint64_t seed, uint64_t i, double overlap = 0.1);

/// Planted near-duplicate clusters.
class Clusters {
 public:
  /// `count` clusters with blocks of 2^23 / count indices each.
  Clusters(uint64_t seed, size_t count);

  size_t count() const { return centers_.size(); }

  /// Variant `j` of cluster `c`: the center with 8 of its indices replaced
  /// by fresh ones from the block and every value scaled by U[0.9, 1.1].
  /// Members and queries are variants with distinct j.
  ipsketch::SparseVector Variant(size_t c, uint64_t j) const;

 private:
  uint64_t seed_;
  uint64_t block_;
  std::vector<ipsketch::SparseVector> centers_;
};

/// Exact ⟨a, b⟩ by merging the sorted supports.
double ExactDot(const ipsketch::SparseVector& a,
                const ipsketch::SparseVector& b);

/// Runs fn(i) for i in [0, n) on `threads` plain threads (contiguous
/// chunks). Generation is not library work, so it does not use the
/// library's pool.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
