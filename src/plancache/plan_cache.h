// Copyright 2026 mpqopt authors.
//
// PlanCache — memoized serving for the optimizer (ROADMAP "Plan cache").
//
// Maps a query fingerprint (plancache/fingerprint.h) to the optimized
// plan(s), so that a repeated query shape skips the whole scatter/gather
// round on every backend. Design:
//
//  * Sharded LRU. Entries live in 2^k shards selected by the fingerprint
//    hash; each shard has its own mutex, LRU list, and byte budget
//    (capacity_bytes / num_shards), so concurrent servers on different
//    fingerprints never contend on one lock.
//  * Compact entries. An entry is two heap blocks: one holds the
//    shared_ptr control block, the key bytes and the winning plans as
//    SerializePlanSet bytes (about a third of a PlanArena's footprint);
//    the other is the index node, which carries the entry's LRU links
//    and bookkeeping. A hit decodes the plan bytes.
//  * Byte-budget capacity. An entry is charged for both blocks;
//    inserting past the shard budget evicts from the LRU tail.
//  * TTL. Entries expire ttl_seconds after insertion (0 = never); expiry
//    is detected on probe and on insert-time eviction scans.
//  * Statistics-sensitive invalidation. Every entry records the
//    statistics epoch at insert; the (table name, cardinality) pairs its
//    plan was costed with are part of its key (AnyKeyTable reads them).
//    BumpStatisticsEpoch() invalidates everything from older epochs
//    (coarse: "the catalog changed"); InvalidateWhere(predicate) evicts
//    exactly the entries whose metadata matches (targeted: "table R3's
//    cardinality changed").
//  * Collision safety. The index hashes the 128-bit fingerprint but
//    compares the full key bytes on every probe; a forced hash collision
//    is a miss, never a wrong plan.
//
// All methods are thread-safe. The cache never blocks on optimization —
// single-flighting of concurrent misses is layered on top (SingleFlight
// below, used by OptimizerService).

#ifndef MPQOPT_PLANCACHE_PLAN_CACHE_H_
#define MPQOPT_PLANCACHE_PLAN_CACHE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/query.h"
#include "common/macros.h"
#include "common/status.h"
#include "plan/plan.h"
#include "plancache/fingerprint.h"

namespace mpqopt {

/// Configuration of one PlanCache instance.
struct PlanCacheOptions {
  /// Total byte budget across all shards.
  size_t capacity_bytes = size_t{64} << 20;
  /// Entry lifetime in seconds; <= 0 means entries never expire.
  double ttl_seconds = 0;
  /// Number of shards; rounded up to a power of two, minimum 1.
  int num_shards = 16;
  /// Injectable clock for deterministic TTL tests; null uses
  /// steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// The cached value: the optimal plan (kTime) or merged Pareto frontier
/// (kTimeAndBuffer) as SerializePlanSet bytes, stored after the entry's
/// key bytes in the same heap block as this header (see Make).
class CachedPlan {
 public:
  /// The fingerprint bytes the entry is keyed on.
  std::span<const uint8_t> key_bytes() const { return {bytes(), key_size_}; }
  /// The plans, as SerializePlanSet bytes.
  std::span<const uint8_t> plan_bytes() const {
    return {bytes() + key_size_, plan_size_};
  }

  /// Materializes the plans into `arena`; returns their ids in order.
  StatusOr<std::vector<PlanId>> Decode(PlanArena* arena) const;

 private:
  friend class PlanCache;

  /// Builds the block of one entry: `key`'s hash_lo and a copy of its
  /// bytes and of `plan_bytes` (SerializePlanSet bytes) behind this
  /// header.
  static std::shared_ptr<const CachedPlan> Make(
      const PlanCacheKey& key, std::span<const uint8_t> plan_bytes);
  CachedPlan(uint64_t key_hash, uint32_t key_size, uint32_t plan_size)
      : key_hash_(key_hash), key_size_(key_size), plan_size_(plan_size) {}
  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }

  uint64_t key_hash_;  ///< the key's hash_lo, which the cache index uses
  uint32_t key_size_;
  uint32_t plan_size_;
};

/// Aggregate counters across all shards (monotonic since construction,
/// except bytes_in_use / entries which are gauges).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions_capacity = 0;
  uint64_t evictions_ttl = 0;
  uint64_t evictions_invalidated = 0;
  uint64_t bytes_in_use = 0;
  uint64_t entries = 0;

  uint64_t evictions() const {
    return evictions_capacity + evictions_ttl + evictions_invalidated;
  }
};

/// Read-only view of one entry's invalidation metadata, passed to
/// InvalidateWhere predicates.
struct PlanCacheEntryView {
  /// The entry's key bytes; AnyKeyTable reads the (table name,
  /// cardinality) pairs the cached plan was costed with from them.
  std::span<const uint8_t> key;
  /// Statistics epoch the entry was inserted under.
  uint64_t statistics_epoch;
  /// Bytes charged against the shard budget.
  size_t charge_bytes;
};

/// Sharded, thread-safe, byte-budgeted LRU of fingerprint -> plan.
class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options);
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(PlanCache);

  /// Sentinel for Insert's `computed_at_epoch`: stamp the entry with the
  /// epoch current at insert time.
  static constexpr uint64_t kCurrentEpoch = ~uint64_t{0};

  /// Returns the cached plan, or null on miss (absent, expired,
  /// hash-collided, or from a stale statistics epoch). Entries are
  /// immutable once inserted, so the returned pointer stays valid after
  /// eviction and the shard lock is only held for the O(1) probe — never
  /// for a plan copy. `count_miss` = false suppresses the miss counter
  /// for confirmation probes whose miss was already counted (the
  /// single-flight leader's double-check).
  std::shared_ptr<const CachedPlan> Lookup(const PlanCacheKey& key,
                                           bool count_miss = true);

  /// Inserts (or replaces) the plan for `key`, serializing only the
  /// winning `best` subtrees of `arena`. The entry's plan is returned (so
  /// a single-flight leader can hand it to waiters even when it was too
  /// large to cache). Entries larger than a whole shard's budget are not
  /// cached.
  ///
  /// `computed_at_epoch` is the statistics epoch the plan's inputs were
  /// read under (capture statistics_epoch() before optimizing). If the
  /// epoch advanced during the computation, the entry is inserted
  /// already-stale and the next probe evicts it — a plan computed from
  /// pre-invalidation statistics cannot outlive the invalidation.
  std::shared_ptr<const CachedPlan> Insert(
      const PlanCacheKey& key, const PlanArena& arena,
      const std::vector<PlanId>& best,
      uint64_t computed_at_epoch = kCurrentEpoch);

  /// Current statistics epoch (starts at 0).
  uint64_t statistics_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Declares "catalog statistics changed somewhere": advances the epoch
  /// and evicts every entry inserted under an older one.
  void BumpStatisticsEpoch();

  /// Evicts every entry whose metadata matches `predicate`; returns the
  /// number evicted. The predicate runs under the shard lock — keep it
  /// cheap and non-reentrant (it must not call back into this cache).
  /// Point-in-time sweep: an optimization in flight during the call can
  /// still insert a matching entry afterwards; use BumpStatisticsEpoch()
  /// when fence semantics across in-flight computations are needed.
  size_t InvalidateWhere(
      const std::function<bool(const PlanCacheEntryView&)>& predicate);

  /// Targeted invalidation: evicts entries whose plan depends on table
  /// `name` (convenience wrapper over InvalidateWhere).
  size_t InvalidateTable(const std::string& name);

  /// Drops everything (counted as invalidation evictions).
  void Clear();

  /// Thread-safe aggregate snapshot.
  PlanCacheStats stats() const;

  const PlanCacheOptions& options() const { return options_; }

 private:
  /// The index entry of one cached plan: the block holding its key and
  /// plan bytes, its bookkeeping, and its links in the shard's LRU list
  /// (mutable: the index's elements are const, the list order is not).
  /// 48 bytes, so an index node (the Slot and a next link) is a 64-byte
  /// heap chunk.
  struct Slot {
    std::shared_ptr<const CachedPlan> plan;
    /// time_point::max() when entries never expire.
    std::chrono::steady_clock::time_point expires_at;
    uint64_t statistics_epoch = 0;
    mutable const Slot* newer = nullptr;
    mutable const Slot* older = nullptr;
  };
  static_assert(sizeof(Slot) == 48);

  // The index hashes a key by its hash_lo and compares the full key bytes
  // (against the bytes in the entry's block), which makes hash collisions
  // harmless. Probes look up by PlanCacheKey without building a Slot.
  struct SlotHash {
    using is_transparent = void;
    size_t operator()(const Slot& slot) const noexcept {
      return static_cast<size_t>(slot.plan->key_hash_);
    }
    size_t operator()(const PlanCacheKey& key) const noexcept {
      return static_cast<size_t>(key.hash_lo);
    }
  };
  struct SlotEq {
    using is_transparent = void;
    bool operator()(const Slot& a, const Slot& b) const {
      return a.plan->key_hash_ == b.plan->key_hash_ &&
             std::ranges::equal(a.plan->key_bytes(), b.plan->key_bytes());
    }
    bool operator()(const PlanCacheKey& key, const Slot& slot) const {
      return key.hash_lo == slot.plan->key_hash_ &&
             std::ranges::equal(key.bytes, slot.plan->key_bytes());
    }
    bool operator()(const Slot& slot, const PlanCacheKey& key) const {
      return (*this)(key, slot);
    }
  };
  using Index = std::unordered_set<Slot, SlotHash, SlotEq>;

  struct Shard {
    mutable std::mutex mutex;
    Index index;
    const Slot* newest = nullptr;  ///< LRU front
    const Slot* oldest = nullptr;  ///< LRU tail, the next to evict
    size_t bytes = 0;
    PlanCacheStats stats;
  };

  Shard& ShardFor(const PlanCacheKey& key) {
    return shards_[key.hash_hi & shard_mask_];
  }
  std::chrono::steady_clock::time_point Now() const;
  /// Bytes an entry is charged against its shard's budget.
  static size_t ChargeBytes(const CachedPlan& plan);
  /// LRU list maintenance; caller holds the shard lock.
  static void Unlink(Shard* shard, const Slot& slot);
  static void PushNewest(Shard* shard, const Slot& slot);
  /// Erases the entry at `it`; caller holds the shard lock and has
  /// already attributed the eviction to a counter. Returns the next
  /// index iterator (for erase-while-iterating).
  static Index::iterator EraseLocked(Shard* shard, Index::iterator it);

  PlanCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> epoch_{0};
};

/// Collapses concurrent computations of the same key into one: the first
/// caller becomes the leader and computes; the rest block until the
/// leader calls Done and receive the leader's plan directly — so waiters
/// are served even when the plan was uncacheable (oversized for the byte
/// budget, or already expired/evicted). Used by OptimizerService so that
/// N concurrent misses on one fingerprint optimize exactly once.
class SingleFlight {
 public:
  SingleFlight() = default;
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(SingleFlight);

  /// Returns true if the caller is now the leader for `key` and MUST call
  /// Done(key, ...) when finished (success or failure). Returns false
  /// after an existing leader for `key` finished, with `*result` set to
  /// the plan that leader handed over — null if it failed, in which case
  /// the caller should call BeginOrWait again (becoming the next leader).
  bool BeginOrWait(const std::string& key,
                   std::shared_ptr<const CachedPlan>* result);

  /// Leader-only: hands `result` (null on failure) to every waiter,
  /// wakes them, and retires the flight.
  void Done(const std::string& key, std::shared_ptr<const CachedPlan> result);

 private:
  struct Flight {
    bool done = false;
    std::shared_ptr<const CachedPlan> result;
    std::condition_variable cv;
  };

  std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace mpqopt

#endif  // MPQOPT_PLANCACHE_PLAN_CACHE_H_
