#include "index/banded_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"

namespace ipsketch {
namespace {

/// The salted key of one band: a Mix64 chain over the band's r collision
/// codes, seeded per band so the same run of codes files into different
/// buckets in different bands (and per store seed, so two stores never
/// share bucket geometry by accident).
uint64_t BandKey(const uint64_t* codes, size_t rows, size_t band,
                 uint64_t seed) {
  uint64_t h = Mix64(seed ^ static_cast<uint64_t>(band + 1));
  for (size_t i = 0; i < rows; ++i) h = Mix64(h ^ codes[i]);
  return h;
}

/// Swap-removes one occurrence of `slot` from the bucket under `key`,
/// dropping the bucket entirely when it empties.
void EraseBucketEntry(
    std::unordered_map<uint64_t, std::vector<uint32_t>>* buckets,
    uint64_t key, uint32_t slot) {
  auto it = buckets->find(key);
  IPS_CHECK(it != buckets->end());
  auto& slots = it->second;
  auto pos = std::find(slots.begin(), slots.end(), slot);
  IPS_CHECK(pos != slots.end());
  *pos = slots.back();
  slots.pop_back();
  if (slots.empty()) buckets->erase(it);
}

/// Repoints one occurrence of `from` to `to` in the bucket under `key`.
void RewireBucketEntry(
    std::unordered_map<uint64_t, std::vector<uint32_t>>* buckets,
    uint64_t key, uint32_t from, uint32_t to) {
  auto it = buckets->find(key);
  IPS_CHECK(it != buckets->end());
  auto pos = std::find(it->second.begin(), it->second.end(), from);
  IPS_CHECK(pos != it->second.end());
  *pos = to;
}

}  // namespace

Status BandedLshParams::Validate(size_t num_samples) const {
  if (bands == 0 || rows == 0) {
    return Status::InvalidArgument("bands and rows must be positive");
  }
  if (bands > num_samples / rows) {
    return Status::InvalidArgument(
        "bands * rows (" + std::to_string(bands) + " * " +
        std::to_string(rows) + ") exceeds the family's num_samples (" +
        std::to_string(num_samples) + ")");
  }
  return Status::Ok();
}

BandedIndex::BandedIndex(SketchStore* store, const BandedLshParams& params,
                         SlabCatalog catalog)
    : store_(store),
      params_(params),
      catalog_(std::move(catalog)),
      key_seed_(store->options().sketch.seed) {
  shards_.reserve(store->num_shards());
  for (size_t i = 0; i < store->num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  inserts_ = &registry.GetCounter("ipsketch_index_inserts_total",
                                  "Sketches filed into banded indexes");
  erases_ = &registry.GetCounter("ipsketch_index_erases_total",
                                 "Sketches removed from banded indexes");
  buckets_probed_ = &registry.GetCounter(
      "ipsketch_index_buckets_probed_total",
      "Non-empty band buckets hit by index probes");
  candidates_ = &registry.GetCounter(
      "ipsketch_index_candidates_total",
      "Deduped candidates re-ranked by index probes");
  size_gauge_ = &registry.GetGauge("ipsketch_index_size",
                                   "Live sketches across banded indexes");
}

Result<std::unique_ptr<BandedIndex>> BandedIndex::MakeAttached(
    SketchStore* store, const BandedLshParams& params) {
  IPS_CHECK(store != nullptr);
  const SketchFamily& family = store->family();
  if (!family.supports_banding()) {
    return Status::FailedPrecondition(
        "family '" + family.name() +
        "' does not support LSH banding (coordinates are not "
        "positionally coordinated samples)");
  }
  IPS_RETURN_IF_ERROR(params.Validate(family.options().num_samples));
  auto catalog = SlabCatalog::Make(&family, store->num_shards());
  IPS_RETURN_IF_ERROR(catalog.status());
  std::unique_ptr<BandedIndex> index(
      new BandedIndex(store, params, std::move(catalog).value()));
  // Attach replays every resident sketch through OnInsert, so the index
  // comes back consistent with the store no matter when it is created.
  IPS_RETURN_IF_ERROR(store->AttachListener(index.get()));
  index->attached_ = true;
  return index;
}

BandedIndex::~BandedIndex() {
  if (attached_) {
    // Cannot fail: this index is the attached listener.
    store_->DetachListener(this);
  }
  const auto resident = static_cast<int64_t>(size());
  if (resident != 0) size_gauge_->Add(-resident);
}

size_t BandedIndex::size() const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(&shards_[s]->mu);
    total += catalog_.size(s);
  }
  return total;
}

void BandedIndex::OnInsert(uint64_t id, const AnySketch& sketch) {
  const size_t shard_index = store_->ShardOf(id);
  Shard& shard = *shards_[shard_index];
  MutexLock lock(&shard.mu);
  // insert_or_assign replaces silently; mirror that by removing any stale
  // entry first.
  const bool replaced = RemoveLocked(shard, shard_index, id);
  InsertLocked(shard, shard_index, id, sketch);
  inserts_->Add(1);
  if (!replaced) size_gauge_->Add(1);
}

void BandedIndex::OnErase(uint64_t id) {
  const size_t shard_index = store_->ShardOf(id);
  Shard& shard = *shards_[shard_index];
  MutexLock lock(&shard.mu);
  if (RemoveLocked(shard, shard_index, id)) {
    erases_->Add(1);
    size_gauge_->Add(-1);
  }
}

void BandedIndex::InsertLocked(Shard& shard, size_t shard_index, uint64_t id,
                               const AnySketch& sketch) {
  // Every sketch reaching a listener already passed the store's
  // CheckCompatible, and the family supports banding (MakeAttached), so
  // neither call below can fail.
  std::vector<uint64_t> codes;
  IPS_CHECK(store_->family().AppendLshCodes(sketch, &codes).ok());
  auto slot = catalog_.Append(shard_index, id, sketch);
  IPS_CHECK(slot.ok());
  for (size_t j = 0; j < params_.bands; ++j) {
    const uint64_t key =
        BandKey(codes.data() + j * params_.rows, params_.rows, j, key_seed_);
    shard.keys.push_back(key);
    shard.buckets[key].push_back(slot.value());
  }
}

bool BandedIndex::RemoveLocked(Shard& shard, size_t shard_index,
                               uint64_t id) {
  auto found = catalog_.SlotOf(shard_index, id);
  if (!found.ok()) return false;
  const uint32_t slot = found.value();
  const size_t bands = params_.bands;
  for (size_t j = 0; j < bands; ++j) {
    EraseBucketEntry(&shard.buckets, shard.keys[slot * bands + j], slot);
  }
  auto removed = catalog_.Remove(shard_index, id);
  IPS_CHECK(removed.ok());
  if (removed.value().moved) {
    // The old last slot's lanes now live at `slot`; move its band keys down
    // and repoint its bucket entries.
    const size_t last = catalog_.size(shard_index);
    for (size_t j = 0; j < bands; ++j) {
      const uint64_t key = shard.keys[last * bands + j];
      RewireBucketEntry(&shard.buckets, key, static_cast<uint32_t>(last),
                        slot);
      shard.keys[slot * bands + j] = key;
    }
  }
  shard.keys.resize(catalog_.size(shard_index) * bands);
  return true;
}

Status BandedIndex::QueryBandKeys(const AnySketch& query,
                                  std::vector<uint64_t>* keys) const {
  std::vector<uint64_t> codes;
  IPS_RETURN_IF_ERROR(store_->family().AppendLshCodes(query, &codes));
  keys->clear();
  keys->reserve(params_.bands);
  for (size_t j = 0; j < params_.bands; ++j) {
    keys->push_back(
        BandKey(codes.data() + j * params_.rows, params_.rows, j, key_seed_));
  }
  return Status::Ok();
}

Status BandedIndex::ProbeShard(const AnySketch& query,
                               const std::vector<uint64_t>& keys,
                               size_t shard_index, TopKHeap* heap,
                               IndexProbeStats* stats) const {
  IPS_CHECK(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  MutexLock lock(&shard.mu);
  std::vector<uint32_t> candidates;
  uint64_t buckets_hit = 0;
  for (uint64_t key : keys) {
    auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) continue;
    ++buckets_hit;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  }
  stats->buckets_probed += buckets_hit;
  buckets_probed_->Add(buckets_hit);
  if (candidates.empty()) return Status::Ok();
  // A sketch colliding in several bands appears once per collision; dedup
  // before the (much more expensive) re-rank.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  stats->candidates += candidates.size();
  candidates_->Add(candidates.size());
  std::vector<double> estimates(candidates.size());
  IPS_RETURN_IF_ERROR(catalog_.EstimateMany(shard_index, query,
                                            candidates.data(),
                                            candidates.size(),
                                            estimates.data()));
  for (size_t i = 0; i < candidates.size(); ++i) {
    heap->Offer(static_cast<size_t>(catalog_.IdAt(shard_index, candidates[i])),
                estimates[i]);
  }
  return Status::Ok();
}

}  // namespace ipsketch
