// Copyright 2026 mpqopt authors.

#include "plancache/plan_cache.h"

#include <algorithm>

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

/// Bytes an entry is charged for: the key (stored once, in the index,
/// as an exact-size copy) and the plan bytes, plus their structs.
size_t ChargeBytes(const PlanCacheKey& key, const CachedPlan& plan) {
  size_t charge = sizeof(PlanCacheKey) + key.bytes.size();
  charge += sizeof(CachedPlan) + plan.plan_bytes.capacity();
  // List node, index slot and shared_ptr control block (approximate;
  // exact malloc accounting is not worth chasing — the budget is a
  // throttle, not a ledger).
  charge += 128;
  return charge;
}

}  // namespace

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

PlanCache::Index::iterator PlanCache::EraseLocked(Shard* shard,
                                                  Index::iterator it) {
  shard->bytes -= it->second->second.charge;
  shard->lru.erase(it->second);
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
  Entry& entry = it->second->second;
  if (entry.statistics_epoch != epoch_.load(std::memory_order_acquire)) {
    ++shard.stats.evictions_invalidated;
    EraseLocked(&shard, it);
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  if (entry.expires && Now() >= entry.expires_at) {
    ++shard.stats.evictions_ttl;
    EraseLocked(&shard, it);
    if (count_miss) ++shard.stats.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  return entry.plan;  // ref-count bump only — no plan copy under the lock
}

StatusOr<std::vector<PlanId>> CachedPlan::Decode(PlanArena* arena) const {
  ByteReader reader(plan_bytes);
  return DeserializePlanSet(&reader, arena);
}

std::shared_ptr<const CachedPlan> PlanCache::Insert(
    const PlanCacheKey& key, const PlanArena& arena,
    const std::vector<PlanId>& best, uint64_t computed_at_epoch) {
  obs::Span insert_span("cache.insert");
  // Serialize only the winning subtrees: the source arena holds every
  // plan all m workers returned.
  auto plan = std::make_shared<CachedPlan>();
  ByteWriter writer(&plan->plan_bytes);
  SerializePlanSet(arena, best, &writer);
  plan->plan_bytes.shrink_to_fit();
  Entry entry;
  entry.plan = plan;
  // An entry stamped with a pre-bump epoch is born stale: the next probe
  // evicts it, so an epoch bump fences even in-flight computations.
  entry.statistics_epoch = computed_at_epoch == kCurrentEpoch
                               ? epoch_.load(std::memory_order_acquire)
                               : computed_at_epoch;
  if (options_.ttl_seconds > 0) {
    entry.expires = true;
    entry.expires_at =
        Now() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options_.ttl_seconds));
  }
  entry.charge = ChargeBytes(key, *plan);
  if (entry.charge > per_shard_capacity_) {
    return plan;  // caching it would evict a whole shard — hand back only
  }

  Shard& shard = ShardFor(key);
  const auto now = Now();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Index::iterator existing = shard.index.find(key);
  if (existing != shard.index.end()) {
    // Replace in place (not an eviction): same fingerprint, fresh plan.
    EraseLocked(&shard, existing);
  }
  while (shard.bytes + entry.charge > per_shard_capacity_ &&
         !shard.lru.empty()) {
    const Entry& victim = shard.lru.back().second;
    if (victim.expires && now >= victim.expires_at) {
      ++shard.stats.evictions_ttl;
    } else {
      ++shard.stats.evictions_capacity;
    }
    EraseLocked(&shard, shard.index.find(*shard.lru.back().first));
  }
  auto [slot, inserted] =
      shard.index.emplace(key, shard.lru.end());
  MPQOPT_CHECK(inserted);
  shard.lru.emplace_front(&slot->first, std::move(entry));
  slot->second = shard.lru.begin();
  shard.bytes += shard.lru.front().second.charge;
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
      if (it->second->second.statistics_epoch < new_epoch) {
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
      const Entry& entry = it->second->second;
      const PlanCacheEntryView view{it->first, entry.statistics_epoch,
                                    entry.charge};
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
    shard.lru.clear();
    shard.index.clear();
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
