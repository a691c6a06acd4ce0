#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"

namespace ipsketch {

Status SyntheticPairOptions::Validate() const {
  if (dimension == 0 || nnz == 0) {
    return Status::InvalidArgument("dimension and nnz must be positive");
  }
  if (overlap < 0.0 || overlap > 1.0) {
    return Status::InvalidArgument("overlap must be in [0, 1]");
  }
  if (outlier_fraction < 0.0 || outlier_fraction > 1.0) {
    return Status::InvalidArgument("outlier_fraction must be in [0, 1]");
  }
  if (outlier_min > outlier_max) {
    return Status::InvalidArgument("outlier_min > outlier_max");
  }
  const size_t shared = static_cast<size_t>(
      std::llround(overlap * static_cast<double>(nnz)));
  const uint64_t needed = 2 * static_cast<uint64_t>(nnz) - shared;
  if (needed > dimension) {
    return Status::InvalidArgument(
        "dimension too small for requested nnz and overlap");
  }
  return Status::Ok();
}

std::vector<uint64_t> SampleDistinctIndices(uint64_t universe, size_t count,
                                            uint64_t seed) {
  IPS_CHECK(count <= universe);
  Xoshiro256StarStar rng(MixCombine(seed, 0x5A4D9E1EB00Cull));
  std::vector<uint64_t> out;
  out.reserve(count);
  // Partial Fisher–Yates for small universes or dense draws; hash-set
  // rejection otherwise (efficient whenever count ≪ universe). The shuffle
  // is sparse: position p of the virtual pool [0, universe) holds p unless
  // `moved` records a swap into it, so each call costs O(count), not
  // O(universe). Step i only ever reads positions ≥ i, so position i's
  // update is never needed.
  if (universe <= (uint64_t{1} << 22) || count * 4 >= universe) {
    std::unordered_map<uint64_t, uint64_t> moved;
    moved.reserve(count);
    auto at = [&moved](uint64_t p) {
      auto it = moved.find(p);
      return it == moved.end() ? p : it->second;
    };
    for (size_t i = 0; i < count; ++i) {
      const uint64_t j = i + rng.NextBounded(universe - i);
      const uint64_t picked = at(j);
      moved[j] = at(i);
      out.push_back(picked);
    }
  } else {
    std::unordered_set<uint64_t> seen;
    seen.reserve(count * 2);
    while (out.size() < count) {
      const uint64_t candidate = rng.NextBounded(universe);
      if (seen.insert(candidate).second) out.push_back(candidate);
    }
  }
  return out;
}

double TruncatedUnitNormal(Xoshiro256StarStar& rng) {
  for (;;) {
    const double x = rng.NextGaussian();
    if (std::fabs(x) <= 1.0) return x;
  }
}

namespace {

// Fills `entries` with values per §5.1: truncated normals, with an exact
// outlier_count of entries replaced by U[outlier_min, outlier_max].
void FillValues(const SyntheticPairOptions& options,
                const std::vector<uint64_t>& indices, uint64_t value_seed,
                std::vector<Entry>* entries) {
  Xoshiro256StarStar rng(value_seed);
  entries->clear();
  entries->reserve(indices.size());
  for (uint64_t idx : indices) {
    entries->push_back({idx, TruncatedUnitNormal(rng)});
  }
  // Choose exactly ⌊fraction·nnz⌋ outlier positions by partial shuffle.
  const size_t outlier_count = static_cast<size_t>(
      options.outlier_fraction * static_cast<double>(indices.size()));
  std::vector<size_t> positions(indices.size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  for (size_t i = 0; i < outlier_count; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng.NextBounded(positions.size() - i));
    std::swap(positions[i], positions[j]);
    const double span = options.outlier_max - options.outlier_min;
    (*entries)[positions[i]].value =
        options.outlier_min + span * rng.NextUnit();
  }
}

}  // namespace

Result<VectorPair> GenerateSyntheticPair(const SyntheticPairOptions& options) {
  IPS_RETURN_IF_ERROR(options.Validate());
  const size_t shared = static_cast<size_t>(
      std::llround(options.overlap * static_cast<double>(options.nnz)));
  const size_t total = 2 * options.nnz - shared;

  // One draw of `total` distinct indices, split into [shared | a-only |
  // b-only].
  const std::vector<uint64_t> indices =
      SampleDistinctIndices(options.dimension, total, options.seed);

  std::vector<uint64_t> a_indices(indices.begin(),
                                  indices.begin() + options.nnz);
  std::vector<uint64_t> b_indices(indices.begin(), indices.begin() + shared);
  b_indices.insert(b_indices.end(), indices.begin() + options.nnz,
                   indices.end());

  std::vector<Entry> a_entries, b_entries;
  FillValues(options, a_indices, MixCombine(options.seed, 0xA11CEull),
             &a_entries);
  FillValues(options, b_indices, MixCombine(options.seed, 0xB0Bull),
             &b_entries);

  VectorPair pair;
  auto a = SparseVector::Make(options.dimension, std::move(a_entries));
  IPS_RETURN_IF_ERROR(a.status());
  pair.a = std::move(a).value();
  auto b = SparseVector::Make(options.dimension, std::move(b_entries));
  IPS_RETURN_IF_ERROR(b.status());
  pair.b = std::move(b).value();
  return pair;
}

Result<std::vector<VectorPair>> GenerateSyntheticPairs(
    const SyntheticPairOptions& options, size_t count) {
  std::vector<VectorPair> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    SyntheticPairOptions per = options;
    per.seed = MixCombine(options.seed, 0x9A175EEDull, i);
    auto pair = GenerateSyntheticPair(per);
    IPS_RETURN_IF_ERROR(pair.status());
    out.push_back(std::move(pair).value());
  }
  return out;
}

}  // namespace ipsketch
