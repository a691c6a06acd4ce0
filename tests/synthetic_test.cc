#include "data/synthetic.h"

#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vector/vector_ops.h"

namespace ipsketch {
namespace {

TEST(SyntheticOptionsTest, Validation) {
  SyntheticPairOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.overlap = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = SyntheticPairOptions();
  o.nnz = 6000;  // 2·6000 > 10000
  o.overlap = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o.overlap = 1.0;  // needs only 6000 indices
  EXPECT_TRUE(o.Validate().ok());
}

TEST(SampleDistinctIndicesTest, DistinctInRange) {
  for (uint64_t universe : {100ull, 100000ull, 1ull << 40}) {
    const auto indices = SampleDistinctIndices(universe, 50, 7);
    EXPECT_EQ(indices.size(), 50u);
    std::unordered_set<uint64_t> seen(indices.begin(), indices.end());
    EXPECT_EQ(seen.size(), 50u);
    for (uint64_t i : indices) EXPECT_LT(i, universe);
  }
}

TEST(SampleDistinctIndicesTest, FullUniverse) {
  const auto indices = SampleDistinctIndices(10, 10, 3);
  std::unordered_set<uint64_t> seen(indices.begin(), indices.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SampleDistinctIndicesTest, DeterministicInSeed) {
  EXPECT_EQ(SampleDistinctIndices(1000, 20, 5),
            SampleDistinctIndices(1000, 20, 5));
  EXPECT_NE(SampleDistinctIndices(1000, 20, 5),
            SampleDistinctIndices(1000, 20, 6));
}

// Reference: the dense partial Fisher–Yates — the whole universe
// materialized, then `count` swaps — with SampleDistinctIndices' seeding
// and draws.
std::vector<uint64_t> DenseFisherYates(uint64_t universe, size_t count,
                                       uint64_t seed) {
  Xoshiro256StarStar rng(MixCombine(seed, 0x5A4D9E1EB00Cull));
  std::vector<uint64_t> pool(universe);
  std::iota(pool.begin(), pool.end(), uint64_t{0});
  std::vector<uint64_t> out;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t j = i + rng.NextBounded(universe - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

TEST(SampleDistinctIndicesTest, SparseShuffleMatchesDenseReference) {
  // Every universe the shuffle branch serves, with count·4 below and at or
  // above the universe (the branch condition's two sides).
  const std::pair<uint64_t, std::vector<size_t>> cases[] = {
      {1, {0, 1}},
      {24, {1, 5, 6, 24}},
      {uint64_t{1} << 12, {1, 100, 1023, 1024, 4096}},
      {uint64_t{1} << 22, {24, 1000, size_t{1} << 20}},
  };
  for (const auto& [universe, counts] : cases) {
    for (uint64_t seed : {1u, 7u, 99u}) {
      // A shorter draw is a prefix of a longer one (same random stream), so
      // one dense run per (universe, seed) serves every count.
      const std::vector<uint64_t> dense =
          DenseFisherYates(universe, counts.back(), seed);
      for (size_t count : counts) {
        const std::vector<uint64_t> expected(dense.begin(),
                                             dense.begin() + count);
        EXPECT_EQ(SampleDistinctIndices(universe, count, seed), expected)
            << "universe " << universe << " count " << count << " seed "
            << seed;
      }
    }
  }
}

TEST(TruncatedUnitNormalTest, RangeAndShape) {
  Xoshiro256StarStar rng(9);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = TruncatedUnitNormal(rng);
    ASSERT_GE(x, -1.0);
    ASSERT_LE(x, 1.0);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  // Var of N(0,1) truncated to [−1,1] is ≈ 0.291.
  EXPECT_NEAR(sum2 / n, 0.291, 0.01);
}

TEST(SyntheticPairTest, ShapeMatchesPaperDefaults) {
  SyntheticPairOptions o;  // §5.1 defaults
  o.seed = 1;
  const auto pair = GenerateSyntheticPair(o).value();
  EXPECT_EQ(pair.a.dimension(), 10000u);
  EXPECT_EQ(pair.a.nnz(), 2000u);
  EXPECT_EQ(pair.b.nnz(), 2000u);
}

TEST(SyntheticPairTest, OverlapIsExact) {
  for (double overlap : {0.01, 0.05, 0.1, 0.5, 1.0}) {
    SyntheticPairOptions o;
    o.overlap = overlap;
    o.seed = 42;
    const auto pair = GenerateSyntheticPair(o).value();
    const size_t expected =
        static_cast<size_t>(std::llround(overlap * 2000.0));
    EXPECT_EQ(SupportIntersectionSize(pair.a, pair.b), expected)
        << "overlap=" << overlap;
  }
}

TEST(SyntheticPairTest, ZeroOverlapIsDisjoint) {
  SyntheticPairOptions o;
  o.overlap = 0.0;
  o.seed = 3;
  const auto pair = GenerateSyntheticPair(o).value();
  EXPECT_EQ(SupportIntersectionSize(pair.a, pair.b), 0u);
}

TEST(SyntheticPairTest, OutlierCountAndRange) {
  SyntheticPairOptions o;
  o.seed = 4;
  const auto pair = GenerateSyntheticPair(o).value();
  size_t outliers = 0;
  for (const Entry& e : pair.a.entries()) {
    if (e.value >= o.outlier_min && e.value <= o.outlier_max) {
      ++outliers;
    } else {
      EXPECT_LE(std::fabs(e.value), 1.0) << "value " << e.value
                                         << " neither normal nor outlier";
    }
  }
  EXPECT_EQ(outliers, 200u);  // exactly 10% of 2000
}

TEST(SyntheticPairTest, NoOutliersWhenFractionZero) {
  SyntheticPairOptions o;
  o.outlier_fraction = 0.0;
  o.seed = 5;
  const auto pair = GenerateSyntheticPair(o).value();
  for (const Entry& e : pair.a.entries()) {
    EXPECT_LE(std::fabs(e.value), 1.0);
  }
}

TEST(SyntheticPairTest, DeterministicInSeed) {
  SyntheticPairOptions o;
  o.seed = 6;
  const auto p1 = GenerateSyntheticPair(o).value();
  const auto p2 = GenerateSyntheticPair(o).value();
  EXPECT_TRUE(p1.a == p2.a);
  EXPECT_TRUE(p1.b == p2.b);
  o.seed = 7;
  const auto p3 = GenerateSyntheticPair(o).value();
  EXPECT_FALSE(p1.a == p3.a);
}

TEST(SyntheticPairTest, BatchGenerationIndependentPairs) {
  SyntheticPairOptions o;
  o.dimension = 1000;
  o.nnz = 100;
  o.seed = 8;
  const auto pairs = GenerateSyntheticPairs(o, 5).value();
  ASSERT_EQ(pairs.size(), 5u);
  EXPECT_FALSE(pairs[0].a == pairs[1].a);
  EXPECT_FALSE(pairs[1].a == pairs[2].a);
}

}  // namespace
}  // namespace ipsketch
