// SketchSlab (structure-of-arrays catalog blocks): the slab's 1-vs-many
// estimates must be bit-identical to the family's pair-at-a-time Estimate —
// per banding family and per available SIMD kernel tier — and swap-remove
// must preserve the surviving slots' lanes exactly. Non-banding families
// must refuse NewSlab/AppendLshCodes with FailedPrecondition.

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/simd/dispatch.h"
#include "sketch/family.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDimension = 512;
constexpr size_t kNumSamples = 67;  // odd: every tier runs its scalar tail

struct FamilyConfig {
  std::string family;
  std::map<std::string, std::string> params;
};

std::vector<FamilyConfig> BandingConfigs() {
  return {
      {"wmh", {{"engine", "dart"}}},
      {"icws", {{"engine", "dart"}}},
      {"mh", {}},
      {"wmh_compact", {{"engine", "dart"}}},
      {"wmh_bbit", {{"engine", "dart"}, {"bits", "12"}}},
  };
}

SparseVector RandomVector(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  uint64_t index = rng.NextBounded(5);
  while (entries.size() < 40 && index < kDimension) {
    double v = rng.NextGaussian();
    if (v == 0.0) v = 0.5;
    entries.push_back({index, v});
    index += 1 + rng.NextBounded(6);
  }
  return SparseVector::MakeOrDie(kDimension, std::move(entries));
}

std::shared_ptr<const SketchFamily> MakeFamilyOrDie(
    const FamilyConfig& config) {
  FamilyOptions options;
  options.dimension = kDimension;
  options.num_samples = kNumSamples;
  options.seed = 7;
  options.params = config.params;
  auto family = MakeFamily(config.family, options);
  IPS_CHECK(family.ok());
  return std::move(family).value();
}

std::vector<std::unique_ptr<AnySketch>> SketchCorpus(
    const SketchFamily& family, size_t count, uint64_t seed_base) {
  auto sketcher = family.MakeSketcher();
  IPS_CHECK(sketcher.ok());
  std::vector<std::unique_ptr<AnySketch>> out;
  for (size_t i = 0; i < count; ++i) {
    auto sketch = family.NewSketch();
    IPS_CHECK(
        sketcher.value()->Sketch(RandomVector(seed_base + i), sketch.get())
            .ok());
    out.push_back(std::move(sketch));
  }
  return out;
}

class ScopedKernel {
 public:
  explicit ScopedKernel(const simd::EstimateKernel* kernel) {
    simd::SetActiveKernelForTesting(kernel);
  }
  ~ScopedKernel() { simd::SetActiveKernelForTesting(nullptr); }
};

TEST(SlabTest, EstimatesBitIdenticalToPairwiseAcrossFamiliesAndKernels) {
  constexpr size_t kCorpus = 12;
  for (const FamilyConfig& config : BandingConfigs()) {
    SCOPED_TRACE(config.family);
    auto family = MakeFamilyOrDie(config);
    ASSERT_TRUE(family->supports_banding());
    auto corpus = SketchCorpus(*family, kCorpus, 1000);
    const auto& query = *corpus[0];

    auto slab = family->NewSlab();
    ASSERT_TRUE(slab.ok()) << slab.status().ToString();
    for (const auto& sketch : corpus) {
      ASSERT_TRUE(slab.value()->Append(*sketch).ok());
    }
    ASSERT_EQ(slab.value()->size(), kCorpus);

    for (const simd::EstimateKernel* kernel : simd::AvailableKernels()) {
      ScopedKernel scoped(kernel);
      // Pairwise references under this exact kernel tier.
      std::vector<double> expected;
      for (const auto& sketch : corpus) {
        auto est = family->Estimate(query, *sketch);
        ASSERT_TRUE(est.ok()) << est.status().ToString();
        expected.push_back(est.value());
      }

      // EstimateAt: slot by slot.
      for (size_t slot = 0; slot < kCorpus; ++slot) {
        auto got = slab.value()->EstimateAt(query, slot);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(std::bit_cast<uint64_t>(expected[slot]),
                  std::bit_cast<uint64_t>(got.value()))
            << "slot " << slot;
      }

      // EstimateMany: the re-rank path, over a shuffled subset.
      const std::vector<uint32_t> slots = {7, 0, 11, 3, 3};
      std::vector<double> many(slots.size(), 0.0);
      ASSERT_TRUE(slab.value()
                      ->EstimateMany(query, slots.data(), slots.size(),
                                     many.data())
                      .ok());
      for (size_t i = 0; i < slots.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(expected[slots[i]]),
                  std::bit_cast<uint64_t>(many[i]));
      }
    }
  }
}

TEST(SlabTest, SwapRemoveMovesLastSlotAndPreservesLanes) {
  for (const FamilyConfig& config : BandingConfigs()) {
    SCOPED_TRACE(config.family);
    auto family = MakeFamilyOrDie(config);
    auto corpus = SketchCorpus(*family, 6, 2000);
    const auto& query = *corpus[1];

    auto slab = family->NewSlab();
    ASSERT_TRUE(slab.ok());
    for (const auto& sketch : corpus) {
      ASSERT_TRUE(slab.value()->Append(*sketch).ok());
    }

    // Remove slot 2: slot 5's lanes move into slot 2.
    slab.value()->SwapRemove(2);
    ASSERT_EQ(slab.value()->size(), 5u);
    // Survivors, in their post-move slots: 0, 1, 5, 3, 4.
    const std::vector<size_t> resident = {0, 1, 5, 3, 4};
    for (size_t slot = 0; slot < resident.size(); ++slot) {
      auto expected = family->Estimate(query, *corpus[resident[slot]]);
      ASSERT_TRUE(expected.ok());
      auto got = slab.value()->EstimateAt(query, slot);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(expected.value()),
                std::bit_cast<uint64_t>(got.value()))
          << "slot " << slot;
    }

    // Removing the last slot shrinks without moving anything.
    slab.value()->SwapRemove(4);
    ASSERT_EQ(slab.value()->size(), 4u);
    auto expected = family->Estimate(query, *corpus[5]);
    ASSERT_TRUE(expected.ok());
    auto got = slab.value()->EstimateAt(query, 2);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(expected.value()),
              std::bit_cast<uint64_t>(got.value()));
  }
}

TEST(SlabTest, AppendRejectsIncompatibleSketches) {
  auto family = MakeFamilyOrDie({"wmh", {{"engine", "dart"}}});
  FamilyOptions other_options = family->options();
  other_options.seed = 99;  // different identity
  auto other = MakeFamily("wmh", other_options);
  ASSERT_TRUE(other.ok());
  auto foreign = SketchCorpus(*other.value(), 1, 3000);

  auto slab = family->NewSlab();
  ASSERT_TRUE(slab.ok());
  EXPECT_EQ(slab.value()->Append(*foreign[0]).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(slab.value()->size(), 0u);
}

TEST(SlabTest, LshCodesAreOnePerSampleAndCollisionExact) {
  for (const FamilyConfig& config : BandingConfigs()) {
    SCOPED_TRACE(config.family);
    auto family = MakeFamilyOrDie(config);
    auto corpus = SketchCorpus(*family, 2, 4000);

    std::vector<uint64_t> codes_a, codes_b;
    ASSERT_TRUE(family->AppendLshCodes(*corpus[0], &codes_a).ok());
    ASSERT_TRUE(family->AppendLshCodes(*corpus[1], &codes_b).ok());
    EXPECT_EQ(codes_a.size(), kNumSamples);
    EXPECT_EQ(codes_b.size(), kNumSamples);

    // Two sketches of the same vector collide on every sample.
    auto sketcher = family->MakeSketcher();
    ASSERT_TRUE(sketcher.ok());
    auto duplicate = family->NewSketch();
    ASSERT_TRUE(
        sketcher.value()->Sketch(RandomVector(4000), duplicate.get()).ok());
    std::vector<uint64_t> codes_dup;
    ASSERT_TRUE(family->AppendLshCodes(*duplicate, &codes_dup).ok());
    EXPECT_EQ(codes_a, codes_dup);

    // Append accumulates rather than clearing.
    ASSERT_TRUE(family->AppendLshCodes(*corpus[1], &codes_a).ok());
    EXPECT_EQ(codes_a.size(), 2 * kNumSamples);
  }
}

TEST(SlabTest, NonBandingFamiliesRefuseSlabsAndCodes) {
  for (const char* name : {"kmv", "cs", "jl"}) {
    SCOPED_TRACE(name);
    auto family = MakeFamilyOrDie({name, {}});
    EXPECT_FALSE(family->supports_banding());
    EXPECT_EQ(family->NewSlab().status().code(),
              StatusCode::kFailedPrecondition);
    std::vector<uint64_t> codes;
    auto corpus = SketchCorpus(*family, 1, 5000);
    EXPECT_EQ(family->AppendLshCodes(*corpus[0], &codes).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(codes.empty());
  }
}

TEST(SlabTest, RegistryBandingFlagsMatchTheSamplingFamilies) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    const bool expected = info.name == "wmh" || info.name == "icws" ||
                          info.name == "mh" || info.name == "wmh_compact" ||
                          info.name == "wmh_bbit";
    EXPECT_EQ(info.supports_banding, expected) << info.name;
  }
}

}  // namespace
}  // namespace ipsketch
