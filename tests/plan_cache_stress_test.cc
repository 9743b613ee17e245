// Copyright 2026 mpqopt authors.
//
// Concurrency stress for the plan-cache subsystem, aimed at the TSan CI
// job: many threads hammer one PlanCache with interleaved lookups,
// inserts, statistics-epoch bumps, and predicate invalidations while a
// tiny byte budget keeps the LRU churning; then a service-level pass
// mixes repeated and distinct queries across dispatcher threads with
// stats() snapshots racing the traffic. The assertions are about
// invariants (counter conservation, no lost updates), not exact counts —
// the interleavings are the point.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "catalog/generator.h"
#include "plancache/fingerprint.h"
#include "plancache/plan_cache.h"
#include "service/optimizer_service.h"

namespace mpqopt {
namespace {

/// Key i fingerprints a one-table query over table "R<i % 8>" with i
/// rows, so InvalidateTable("R<j>") hits every eighth key.
PlanCacheKey KeyForIndex(int i) {
  TableInfo table;
  table.name = "R" + std::to_string(i % 8);
  table.cardinality = i;
  table.attribute_domains = {10.0};
  return FingerprintQuery(Query({table}, {}), MpqOptions());
}

TEST(PlanCacheStressTest, ConcurrentHitMissInvalidateChurn) {
  PlanCacheOptions opts;
  opts.capacity_bytes = 64 << 10;  // small: constant LRU pressure
  opts.num_shards = 4;
  PlanCache cache(opts);

  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<PlanCacheKey> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back(KeyForIndex(i));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, &keys, t]() {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = (op * 31 + t * 17) % kKeys;
        const PlanCacheKey& key = keys[static_cast<size_t>(i)];
        switch ((op + t) % 8) {
          case 0: {
            PlanArena arena;
            std::vector<PlanId> best = {arena.MakeScan(
                0, static_cast<double>(i), CostVector::Scalar(i))};
            cache.Insert(key, arena, best);
            break;
          }
          case 5:
            // Rare coarse invalidation racing everything else.
            if (op % 500 == 0) cache.BumpStatisticsEpoch();
            break;
          case 6:
            if (op % 100 == 0) {
              std::string table("R");
              table += std::to_string(i % 8);
              cache.InvalidateTable(table);
            }
            break;
          default: {
            std::shared_ptr<const CachedPlan> hit = cache.Lookup(key);
            if (hit != nullptr) {
              // A served plan is always internally consistent, even mid-
              // churn: the marker scan for key i carries cardinality i.
              PlanArena arena;
              StatusOr<std::vector<PlanId>> best = hit->Decode(&arena);
              ASSERT_TRUE(best.ok());
              ASSERT_EQ(best.value().size(), 1u);
              ASSERT_DOUBLE_EQ(arena.node(best.value()[0]).cardinality,
                               static_cast<double>(i));
              observed_hits.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const PlanCacheStats stats = cache.stats();
  // Counter conservation: every probe was a hit or a miss, with no lost
  // updates across shards.
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.bytes_in_use, opts.capacity_bytes);
  EXPECT_LE(stats.entries, stats.inserts);
}

TEST(PlanCacheStressTest, ServiceMixedWorkloadWithRacingSnapshots) {
  GeneratorOptions gen_opts;
  gen_opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(gen_opts, 31337);
  constexpr int kDistinct = 4;
  std::vector<Query> distinct;
  for (int i = 0; i < kDistinct; ++i) distinct.push_back(gen.Generate(8));

  MpqOptions opts;
  opts.num_workers = 8;
  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 2;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  std::atomic<bool> done{false};
  std::thread snapshotter([&service, &done]() {
    // Race stats() against the serving threads; TSan checks the locking.
    while (!done.load(std::memory_order_acquire)) {
      const ServiceStats snap = service.stats();
      ASSERT_LE(snap.cache_hits + snap.cache_misses,
                snap.queries_completed + snap.queries_failed);
      std::this_thread::yield();
    }
  });

  constexpr int kCallers = 6;
  constexpr int kQueriesPerCaller = 10;
  std::vector<std::thread> callers;
  std::atomic<uint64_t> ok_count{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t]() {
      for (int i = 0; i < kQueriesPerCaller; ++i) {
        const Query& q =
            distinct[static_cast<size_t>((i + t) % kDistinct)];
        if (service.Optimize(q, opts).ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, ok_count.load());
  EXPECT_EQ(stats.queries_completed,
            static_cast<uint64_t>(kCallers * kQueriesPerCaller));
  // Every query either hit or authoritatively missed; single-flight means
  // at most one miss per distinct fingerprint... unless an epoch bump or
  // eviction intervened — neither happens here.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries_completed);
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kDistinct));
}

}  // namespace
}  // namespace mpqopt
