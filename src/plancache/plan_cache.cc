// Copyright 2026 mpqopt authors.

#include "plancache/plan_cache.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>

#include "obs/trace.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

/// Smallest power of two >= n (n >= 1).
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Words of an entry block's payload: the CachedPlan header, the key
/// bytes and the plan bytes.
size_t BlockWords(size_t key_size, size_t plan_size) {
  return (sizeof(CachedPlan) + key_size + plan_size + sizeof(uint64_t) - 1) /
         sizeof(uint64_t);
}

/// The control block make_shared_for_overwrite puts in front of an
/// array, as measured with GCC 12's libstdc++ (the toolchain this
/// repository builds with): 40 bytes.
constexpr size_t kControlBlockBytes = 40;

}  // namespace

std::shared_ptr<const CachedPlan> CachedPlan::Make(
    const PlanCacheKey& key, std::span<const uint8_t> plan_bytes) {
  const std::span<const uint8_t> key_bytes = key.bytes;
  static_assert(std::is_trivially_destructible_v<CachedPlan>);
  static_assert(alignof(CachedPlan) <= alignof(uint64_t));
  // One allocation holds the control block and the payload words, which
  // are left uninitialized; the header is constructed in place and the
  // bytes follow it.
  std::shared_ptr<uint64_t[]> block =
      std::make_shared_for_overwrite<uint64_t[]>(
          BlockWords(key_bytes.size(), plan_bytes.size()));
  CachedPlan* plan = new (block.get()) CachedPlan(
      key.hash_lo, static_cast<uint32_t>(key_bytes.size()),
      static_cast<uint32_t>(plan_bytes.size()));
  uint8_t* bytes = reinterpret_cast<uint8_t*>(plan + 1);
  std::memcpy(bytes, key_bytes.data(), key_bytes.size());
  std::memcpy(bytes + key_bytes.size(), plan_bytes.data(), plan_bytes.size());
  return std::shared_ptr<const CachedPlan>(std::move(block), plan);
}

StatusOr<std::vector<PlanId>> CachedPlan::Decode(PlanArena* arena) const {
  ByteReader reader(plan_bytes().data(), plan_bytes().size());
  return DeserializePlanSet(&reader, arena);
}

size_t PlanCache::ChargeBytes(const CachedPlan& plan) {
  // The block, then the index node (its next link and the Slot) and the
  // node's share of the bucket array, taken as one pointer. Allocator
  // headers and rounding are not counted: the budget is a throttle, not
  // a ledger.
  const size_t block =
      kControlBlockBytes +
      BlockWords(plan.key_bytes().size(), plan.plan_bytes().size()) *
          sizeof(uint64_t);
  return block + sizeof(void*) + sizeof(Slot) + sizeof(void*);
}

PlanCache::PlanCache(PlanCacheOptions options)
    : options_(std::move(options)),
      shard_mask_(RoundUpPow2(static_cast<size_t>(
                      std::max(options_.num_shards, 1))) -
                  1),
      per_shard_capacity_(options_.capacity_bytes / (shard_mask_ + 1)),
      shards_(shard_mask_ + 1) {}

std::chrono::steady_clock::time_point PlanCache::Now() const {
  return options_.clock ? options_.clock() : std::chrono::steady_clock::now();
}

void PlanCache::Unlink(Shard* shard, const Slot& slot) {
  (slot.newer != nullptr ? slot.newer->older : shard->newest) = slot.older;
  (slot.older != nullptr ? slot.older->newer : shard->oldest) = slot.newer;
}

void PlanCache::PushNewest(Shard* shard, const Slot& slot) {
  slot.newer = nullptr;
  slot.older = shard->newest;
  (shard->newest != nullptr ? shard->newest->newer : shard->oldest) = &slot;
  shard->newest = &slot;
}

PlanCache::Index::iterator PlanCache::EraseLocked(Shard* shard,
                                                  Index::iterator it) {
  shard->bytes -= ChargeBytes(*it->plan);
  Unlink(shard, *it);
  return shard->index.erase(it);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const PlanCacheKey& key,
                                                    bool count_miss) {
  obs::Span lookup_span("cache.lookup");
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Index::iterator it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  if (it->statistics_epoch != epoch_.load(std::memory_order_acquire)) {
    ++shard.stats.evictions_invalidated;
    EraseLocked(&shard, it);
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  if (options_.ttl_seconds > 0 && Now() >= it->expires_at) {
    ++shard.stats.evictions_ttl;
    EraseLocked(&shard, it);
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  Unlink(&shard, *it);
  PushNewest(&shard, *it);
  ++shard.stats.hits;
  return it->plan;  // ref-count bump only — no plan copy under the lock
}

std::shared_ptr<const CachedPlan> PlanCache::Insert(
    const PlanCacheKey& key, const PlanArena& arena,
    const std::vector<PlanId>& best, uint64_t computed_at_epoch) {
  obs::Span insert_span("cache.insert");
  // Serialize only the winning subtrees: the source arena holds every
  // plan all m workers returned.
  ByteWriter writer;
  SerializePlanSet(arena, best, &writer);
  Slot slot;
  slot.plan = CachedPlan::Make(key, writer.buffer());
  // An entry stamped with a pre-bump epoch is born stale: the next probe
  // evicts it, so an epoch bump fences even in-flight computations.
  slot.statistics_epoch = computed_at_epoch == kCurrentEpoch
                              ? epoch_.load(std::memory_order_acquire)
                              : computed_at_epoch;
  slot.expires_at = std::chrono::steady_clock::time_point::max();
  if (options_.ttl_seconds > 0) {
    slot.expires_at =
        Now() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options_.ttl_seconds));
  }
  const size_t charge = ChargeBytes(*slot.plan);
  if (charge > per_shard_capacity_) {
    return slot.plan;  // caching it would evict a whole shard — hand back only
  }

  Shard& shard = ShardFor(key);
  const auto now = Now();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Index::iterator existing = shard.index.find(key);
  if (existing != shard.index.end()) {
    // Replace in place (not an eviction): same fingerprint, fresh plan.
    EraseLocked(&shard, existing);
  }
  while (shard.bytes + charge > per_shard_capacity_ &&
         shard.oldest != nullptr) {
    const Slot& victim = *shard.oldest;
    if (now >= victim.expires_at) {
      ++shard.stats.evictions_ttl;
    } else {
      ++shard.stats.evictions_capacity;
    }
    EraseLocked(&shard, shard.index.find(victim));
  }
  const std::shared_ptr<const CachedPlan> plan = slot.plan;
  const auto [it, inserted] = shard.index.insert(std::move(slot));
  MPQOPT_CHECK(inserted);
  PushNewest(&shard, *it);
  shard.bytes += charge;
  ++shard.stats.inserts;
  return plan;
}

void PlanCache::BumpStatisticsEpoch() {
  const uint64_t new_epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (Index::iterator it = shard.index.begin();
         it != shard.index.end();) {
      // Strictly-older only: when two bumps race, the slower sweep must
      // not evict entries already inserted under the newer epoch.
      if (it->statistics_epoch < new_epoch) {
        ++shard.stats.evictions_invalidated;
        it = EraseLocked(&shard, it);
      } else {
        ++it;
      }
    }
  }
}

size_t PlanCache::InvalidateWhere(
    const std::function<bool(const PlanCacheEntryView&)>& predicate) {
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (Index::iterator it = shard.index.begin();
         it != shard.index.end();) {
      const PlanCacheEntryView view{it->plan->key_bytes(),
                                    it->statistics_epoch,
                                    ChargeBytes(*it->plan)};
      if (predicate(view)) {
        ++shard.stats.evictions_invalidated;
        it = EraseLocked(&shard, it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

size_t PlanCache::InvalidateTable(const std::string& name) {
  return InvalidateWhere([&name](const PlanCacheEntryView& view) {
    return AnyKeyTable(view.key,
                       [&name](std::string_view table, double) {
                         return table == name;
                       });
  });
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stats.evictions_invalidated += shard.index.size();
    shard.index.clear();
    shard.newest = nullptr;
    shard.oldest = nullptr;
    shard.bytes = 0;
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.inserts += shard.stats.inserts;
    total.evictions_capacity += shard.stats.evictions_capacity;
    total.evictions_ttl += shard.stats.evictions_ttl;
    total.evictions_invalidated += shard.stats.evictions_invalidated;
    total.bytes_in_use += shard.bytes;
    total.entries += shard.index.size();
  }
  return total;
}

bool SingleFlight::BeginOrWait(const std::string& key,
                               std::shared_ptr<const CachedPlan>* result) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  if (it == flights_.end()) {
    flights_.emplace(key, std::make_shared<Flight>());
    return true;
  }
  std::shared_ptr<Flight> flight = it->second;
  flight->cv.wait(lock, [&flight] { return flight->done; });
  *result = flight->result;
  return false;
}

void SingleFlight::Done(const std::string& key,
                        std::shared_ptr<const CachedPlan> result) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  MPQOPT_CHECK(it != flights_.end());
  it->second->done = true;
  it->second->result = std::move(result);
  it->second->cv.notify_all();
  flights_.erase(it);
}

}  // namespace mpqopt
