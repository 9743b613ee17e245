// Copyright 2026 mpqopt authors.
//
// Plan-cache subsystem correctness: a hit returns the same plan bytes as
// the miss and a plan equal to a fresh optimization; full-key equality
// rejects forced hash collisions; TTL, byte-budget, and statistics-epoch
// evictions fire; InvalidateWhere evicts exactly the dependent entries,
// whose tables are read back from the key; entries stay compact; and
// concurrent misses on one fingerprint optimize exactly once
// (single-flight).

#include "plancache/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "catalog/generator.h"
#include "cluster/async_batch_backend.h"
#include "plan/plan_serde.h"
#include "plancache/fingerprint.h"
#include "service/optimizer_service.h"

namespace mpqopt {
namespace {

Query MakeQuery(int tables, uint64_t seed,
                JoinGraphShape shape = JoinGraphShape::kStar) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(tables);
}

/// A tiny one-node plan with a recognizable cardinality, for direct
/// PlanCache tests that never run the optimizer.
struct MarkerPlan {
  PlanArena arena;
  std::vector<PlanId> best;
};
MarkerPlan MakeMarkerPlan(double cardinality) {
  MarkerPlan plan;
  plan.best.push_back(
      plan.arena.MakeScan(0, cardinality, CostVector::Scalar(cardinality)));
  return plan;
}

/// The cardinality of a cached marker plan.
double MarkerOf(const CachedPlan& plan) {
  PlanArena arena;
  StatusOr<std::vector<PlanId>> best = plan.Decode(&arena);
  EXPECT_TRUE(best.ok() && best.value().size() == 1u);
  return best.ok() ? arena.node(best.value()[0]).cardinality : -1;
}

/// The fingerprint of a query over the given (name, cardinality) tables:
/// direct PlanCache tests key their entries on the tables they name.
PlanCacheKey MakeKey(
    const std::vector<std::pair<std::string, double>>& tables) {
  std::vector<TableInfo> infos;
  for (const auto& [name, cardinality] : tables) {
    TableInfo info;
    info.name = name;
    info.cardinality = cardinality;
    info.attribute_domains = {10.0};
    infos.push_back(std::move(info));
  }
  return FingerprintQuery(Query(std::move(infos), {}), MpqOptions());
}

/// The (name, cardinality) pairs AnyKeyTable reads back from `key`.
std::vector<std::pair<std::string, double>> KeyTables(
    const PlanCacheKey& key) {
  std::vector<std::pair<std::string, double>> tables;
  AnyKeyTable(key.bytes, [&tables](std::string_view name, double cardinality) {
    tables.emplace_back(std::string(name), cardinality);
    return false;
  });
  return tables;
}

std::vector<uint8_t> PlanSetBytes(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

// ------------------------------------------------------------ fingerprint

TEST(FingerprintTest, DeterministicAndSensitive) {
  const Query query = MakeQuery(8, 11);
  MpqOptions opts;
  opts.num_workers = 8;

  const PlanCacheKey a = FingerprintQuery(query, opts);
  const PlanCacheKey b = FingerprintQuery(query, opts);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash_hi, b.hash_hi);
  EXPECT_EQ(a.hash_lo, b.hash_lo);

  // Every plan-affecting option must perturb the fingerprint.
  MpqOptions changed = opts;
  changed.space = PlanSpace::kBushy;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.objective = Objective::kTimeAndBuffer;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.alpha = 2.0;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.interesting_orders = true;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.num_workers = 16;
  EXPECT_NE(FingerprintQuery(query, changed), a);
  changed = opts;
  changed.cost_options.hash_constant = 7.5;
  EXPECT_NE(FingerprintQuery(query, changed), a);

  // Execution-only knobs must NOT perturb it: the same plan serves any
  // backend or thread count.
  changed = opts;
  changed.max_threads = 7;
  changed.network.latency_s = 123.0;
  EXPECT_EQ(FingerprintQuery(query, changed), a);

  // A different query (same generator, next draw) must differ.
  GeneratorOptions gen_opts;
  QueryGenerator gen(gen_opts, 11);
  gen.Generate(8);  // skip the first draw == `query`
  const Query other = gen.Generate(8);
  EXPECT_NE(FingerprintQuery(other, opts), a);
}

TEST(FingerprintTest, KeyTablesReadBackTheQueryStatistics) {
  const Query query = MakeQuery(9, 12);
  MpqOptions opts;
  opts.num_workers = 4;
  const PlanCacheKey key = FingerprintQuery(query, opts);
  std::vector<std::pair<std::string, double>> expected;
  for (int t = 0; t < query.num_tables(); ++t) {
    expected.emplace_back(query.table(t).name, query.table(t).cardinality);
  }
  EXPECT_EQ(KeyTables(key), expected);

  // The visit stops at the first table it accepts.
  int visited = 0;
  EXPECT_TRUE(AnyKeyTable(key.bytes, [&](std::string_view name, double) {
    ++visited;
    return name == expected[2].first;
  }));
  EXPECT_EQ(visited, 3);
  EXPECT_FALSE(AnyKeyTable(key.bytes, [](std::string_view, double) {
    return false;
  }));

  // A truncated key visits a prefix of the tables and never reads past
  // its end: each cut is copied to an exact-size buffer, so a sanitizer
  // build flags any overread.
  for (size_t size = 0; size < key.bytes.size(); ++size) {
    PlanCacheKey cut;
    cut.bytes.assign(key.bytes.begin(),
                     key.bytes.begin() + static_cast<ptrdiff_t>(size));
    const auto tables = KeyTables(cut);
    ASSERT_LE(tables.size(), expected.size());
    EXPECT_TRUE(std::equal(tables.begin(), tables.end(), expected.begin()))
        << size;
  }
  // Keys of another fingerprint version, including version 1 (the
  // query's wire serialization), visit nothing.
  for (uint8_t version : {0, 1, 3, 0xff}) {
    PlanCacheKey foreign = key;
    foreign.bytes[0] = version;
    EXPECT_TRUE(KeyTables(foreign).empty()) << int{version};
  }
  // A varint that never terminates is rejected at the end of the bytes.
  PlanCacheKey unterminated;
  unterminated.bytes.assign(16, 0x80);
  unterminated.bytes[0] = key.bytes[0];
  EXPECT_TRUE(KeyTables(unterminated).empty());
}

TEST(FingerprintTest, KeyHoldsAttributeCountsNotDomains) {
  // Two tables with two attributes each, joined on attribute 0.
  const auto make = [](std::vector<double> domains_a,
                       std::vector<double> domains_b, int attribute) {
    std::vector<TableInfo> tables(2);
    tables[0] = {1000.0, std::move(domains_a), "A"};
    tables[1] = {50.0, std::move(domains_b), "B"};
    return Query(std::move(tables), {{0, attribute, 1, 0, 0.01}});
  };
  MpqOptions opts;
  opts.num_workers = 1;
  const PlanCacheKey key = FingerprintQuery(make({10, 20}, {10, 5}, 0), opts);
  // The optimizer reads only how many attributes a table has.
  EXPECT_EQ(FingerprintQuery(make({7, 99}, {3, 1}, 0), opts), key);
  // A different count, or a predicate on another attribute, is another key.
  EXPECT_NE(FingerprintQuery(make({10, 20, 30}, {10, 5}, 0), opts), key);
  EXPECT_NE(FingerprintQuery(make({10, 20}, {10}, 0), opts), key);
  EXPECT_NE(FingerprintQuery(make({10, 20}, {10, 5}, 1), opts), key);
}

TEST(FingerprintTest, KeyTablesReadBackLongNamesAndExactCardinalities) {
  // A 300-byte name needs a two-byte LEB128 length. The cardinalities
  // cover each compact double form: integers below 2^53, reciprocals of
  // integers, and raw bytes for everything else.
  const std::string long_name(300, 'x');
  const std::vector<std::pair<std::string, double>> tables = {
      {long_name, 4.0},
      {"B", 123456789.0},
      {"C", 0.25},
      {"D", 1.0 / 3.0},
      {"E", 2.5},
      {"F", 0.1},
      {"G", 9007199254740992.0},
      {"H", 1e300},
      {"I", std::nextafter(1.0 / 3.0, 1.0)}};
  EXPECT_EQ(KeyTables(MakeKey(tables)), tables);
}

TEST(FingerprintTest, DistinctDoublesGiveDistinctKeys) {
  // Values that compare equal or nearly so still have distinct bits, and
  // the key keeps them apart.
  const std::vector<std::pair<double, double>> pairs = {
      {0.0, -0.0},
      {1.0 / 3.0, std::nextafter(1.0 / 3.0, 1.0)},
      {4.0, std::nextafter(4.0, 5.0)},
      {9007199254740992.0, 9007199254740994.0}};
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(MakeKey({{"T", a}}), MakeKey({{"T", b}})) << a << " " << b;
  }
}

TEST(FingerprintTest, ElevenTableStarKeyIsCompact) {
  // Integral cardinalities and 1 / domain selectivities take a few bytes
  // each instead of eight: this key is 161 bytes (the query's wire
  // serialization plus options was 683). The bound leaves 10% for drift.
  MpqOptions opts;
  opts.space = PlanSpace::kBushy;
  opts.num_workers = 8;
  EXPECT_LE(FingerprintQuery(MakeQuery(11, 5), opts).bytes.size(), 177u);
}

// ------------------------------------------- hit equals fresh optimization

TEST(PlanCacheServiceTest, HitReturnsPlanEqualToFreshOptimization) {
  const Query query = MakeQuery(10, 42);
  MpqOptions opts;
  opts.num_workers = 16;

  MpqOptimizer fresh_optimizer(opts);
  StatusOr<MpqResult> fresh = fresh_optimizer.Optimize(query);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 2;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);
  ASSERT_NE(service.plan_cache(), nullptr);

  StatusOr<MpqResult> miss = service.Optimize(query, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss.value().from_plan_cache);

  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().from_plan_cache);

  // The hit decodes to exactly the plan bytes the miss returned, with
  // the same structure and cost as the fresh run.
  EXPECT_EQ(PlanSetBytes(hit.value()), PlanSetBytes(miss.value()));
  EXPECT_EQ(PlanToString(hit.value().arena, hit.value().best[0]),
            PlanToString(fresh.value().arena, fresh.value().best[0]));
  EXPECT_DOUBLE_EQ(hit.value().arena.node(hit.value().best[0]).cost.time(),
                   fresh.value().arena.node(fresh.value().best[0]).cost.time());
  // A hit never crosses the (simulated) wire.
  EXPECT_EQ(hit.value().network_bytes, 0u);
  EXPECT_EQ(hit.value().network_messages, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.queries_completed, 2u);
}

TEST(PlanCacheServiceTest, MultiObjectiveFrontierRoundTripsThroughCache) {
  const Query query = MakeQuery(8, 43);
  MpqOptions opts;
  opts.num_workers = 8;
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 2.0;

  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 2;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  StatusOr<MpqResult> miss = service.Optimize(query, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().from_plan_cache);
  EXPECT_EQ(PlanSetBytes(hit.value()), PlanSetBytes(miss.value()));
  ASSERT_EQ(hit.value().best.size(), miss.value().best.size());
  for (size_t i = 0; i < hit.value().best.size(); ++i) {
    EXPECT_EQ(PlanToString(hit.value().arena, hit.value().best[i]),
              PlanToString(miss.value().arena, miss.value().best[i]));
  }
}

TEST(PlanCacheServiceTest, ElevenTableBushyEntryStaysCompact) {
  // An entry is one block holding the key and the plan bytes, plus one
  // index node. An 11-table bushy star entry (21 plan nodes, a 161-byte
  // key) is charged 712 bytes; the bound leaves 5% for drift.
  const Query query = MakeQuery(11, 5);
  MpqOptions opts;
  opts.space = PlanSpace::kBushy;
  opts.num_workers = 8;

  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 1;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);
  StatusOr<MpqResult> miss = service.Optimize(query, opts);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(CountJoins(miss.value().arena, miss.value().best[0]), 10);

  const PlanCacheStats stats = service.plan_cache()->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_LE(stats.bytes_in_use, 747u);
}

TEST(PlanCacheServiceTest, InvalidQueryIsRejectedNotServedFromCache) {
  // The key holds attribute counts, not domains, so a query that differs
  // from a cached one only by an invalid domain has the same key. It must
  // still be rejected, as a fresh optimization would reject it.
  Query query = MakeQuery(6, 21);
  MpqOptions opts;
  opts.num_workers = 4;
  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 1;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);
  ASSERT_TRUE(service.Optimize(query, opts).ok());

  std::vector<TableInfo> tables = query.tables();
  tables[0].attribute_domains[0] = 0.5;
  const Query invalid(std::move(tables), query.predicates());
  ASSERT_EQ(FingerprintQuery(invalid, opts), FingerprintQuery(query, opts));
  StatusOr<MpqResult> result = service.Optimize(invalid, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

// --------------------------------------------------------- collision safety

TEST(PlanCacheTest, ForcedHashCollisionIsMissNotWrongPlan) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  PlanCache cache(opts);

  // Two keys with identical hashes but different bytes: a forced 128-bit
  // collision, far beyond what the real hash would ever produce.
  PlanCacheKey a = MakeKey({{"T", 1.0}});
  PlanCacheKey b = MakeKey({{"T", 2.0}});
  b.hash_hi = a.hash_hi;
  b.hash_lo = a.hash_lo;
  ASSERT_NE(a, b);

  const MarkerPlan plan_a = MakeMarkerPlan(111.0);
  cache.Insert(a, plan_a.arena, plan_a.best);

  // The colliding key must miss — full-key equality rejects it.
  EXPECT_FALSE(cache.Lookup(b) != nullptr);
  ASSERT_TRUE(cache.Lookup(a) != nullptr);

  // Both colliding keys can be cached side by side and still resolve to
  // their own plans.
  const MarkerPlan plan_b = MakeMarkerPlan(222.0);
  cache.Insert(b, plan_b.arena, plan_b.best);
  std::shared_ptr<const CachedPlan> got_a = cache.Lookup(a);
  std::shared_ptr<const CachedPlan> got_b = cache.Lookup(b);
  ASSERT_TRUE(got_a != nullptr);
  ASSERT_TRUE(got_b != nullptr);
  EXPECT_EQ(MarkerOf(*got_a), 111.0);
  EXPECT_EQ(MarkerOf(*got_b), 222.0);
}

// ------------------------------------------------------------------- TTL

TEST(PlanCacheTest, TtlEvictsExpiredEntries) {
  // Injected clock: no sleeps, no flakiness.
  std::chrono::steady_clock::time_point fake_now{};
  PlanCacheOptions opts;
  opts.ttl_seconds = 10.0;
  opts.num_shards = 1;
  opts.clock = [&fake_now] { return fake_now; };
  PlanCache cache(opts);

  const PlanCacheKey key = MakeKey({{"T", 1.0}});
  const MarkerPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(key, plan.arena, plan.best);

  fake_now += std::chrono::seconds(9);
  EXPECT_TRUE(cache.Lookup(key) != nullptr);

  fake_now += std::chrono::seconds(2);  // now 11s after insert
  EXPECT_FALSE(cache.Lookup(key) != nullptr);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

// ------------------------------------------------------------ byte budget

TEST(PlanCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 4096;
  PlanCache cache(opts);

  // Insert until the budget forces evictions.
  const int kEntries = 64;
  const auto key_of = [](int i) {
    return MakeKey({{"T" + std::to_string(i), 1.0}});
  };
  for (int i = 0; i < kEntries; ++i) {
    const MarkerPlan plan = MakeMarkerPlan(static_cast<double>(i));
    cache.Insert(key_of(i), plan.arena, plan.best);
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions_capacity, 0u);
  EXPECT_LE(stats.bytes_in_use, 4096u);
  EXPECT_LT(stats.entries, static_cast<uint64_t>(kEntries));

  // LRU order: the newest entry must have survived, the oldest must not.
  EXPECT_TRUE(cache.Lookup(key_of(kEntries - 1)) != nullptr);
  EXPECT_FALSE(cache.Lookup(key_of(0)) != nullptr);
}

TEST(PlanCacheTest, EvictionFollowsRecencyOfUse) {
  // Room for exactly three entries: every further insert evicts the
  // least recently inserted or hit entry, and only that one.
  const auto key_of = [](int i) {
    return MakeKey({{"T" + std::to_string(i), 1.0}});
  };
  const MarkerPlan plan = MakeMarkerPlan(1.0);
  size_t charge = 0;
  {
    PlanCache probe(PlanCacheOptions{});
    probe.Insert(key_of(0), plan.arena, plan.best);
    charge = probe.stats().bytes_in_use;
  }
  PlanCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 3 * charge + charge / 2;
  PlanCache cache(opts);
  for (int i = 0; i < 3; ++i) cache.Insert(key_of(i), plan.arena, plan.best);
  // Recency, newest first: 2 1 0. Hitting 0 and then 1 makes it 1 0 2.
  ASSERT_TRUE(cache.Lookup(key_of(0)) != nullptr);
  ASSERT_TRUE(cache.Lookup(key_of(1)) != nullptr);
  cache.Insert(key_of(3), plan.arena, plan.best);  // evicts 2
  cache.Insert(key_of(4), plan.arena, plan.best);  // evicts 0
  // Replacing 1 moves it to the front without evicting anything.
  cache.Insert(key_of(1), plan.arena, plan.best);
  cache.Insert(key_of(5), plan.arena, plan.best);  // evicts 3
  EXPECT_EQ(cache.stats().evictions_capacity, 3u);
  for (int i : {0, 2, 3}) {
    EXPECT_FALSE(cache.Lookup(key_of(i)) != nullptr) << i;
  }
  for (int i : {1, 4, 5}) EXPECT_TRUE(cache.Lookup(key_of(i)) != nullptr) << i;
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes_in_use, 3 * charge);
}

TEST(PlanCacheTest, OversizedEntryIsNotCached) {
  PlanCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 64;  // smaller than any entry's fixed overhead
  PlanCache cache(opts);
  const PlanCacheKey key = MakeKey({{"T", 1.0}});
  const MarkerPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(key, plan.arena, plan.best);
  EXPECT_FALSE(cache.Lookup(key) != nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

// ----------------------------------------- statistics-sensitive invalidation

TEST(PlanCacheTest, StatisticsEpochInvalidatesOlderEntries) {
  PlanCacheOptions opts;
  PlanCache cache(opts);
  const PlanCacheKey k1 = MakeKey({{"A", 10.0}});
  const PlanCacheKey k2 = MakeKey({{"B", 20.0}});
  const MarkerPlan plan = MakeMarkerPlan(1.0);
  cache.Insert(k1, plan.arena, plan.best);
  cache.Insert(k2, plan.arena, plan.best);
  EXPECT_EQ(cache.stats().entries, 2u);

  EXPECT_EQ(cache.statistics_epoch(), 0u);
  cache.BumpStatisticsEpoch();
  EXPECT_EQ(cache.statistics_epoch(), 1u);

  EXPECT_FALSE(cache.Lookup(k1) != nullptr);
  EXPECT_FALSE(cache.Lookup(k2) != nullptr);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions_invalidated, 2u);
  EXPECT_EQ(stats.entries, 0u);

  // Entries inserted under the new epoch serve normally.
  cache.Insert(k1, plan.arena, plan.best);
  EXPECT_TRUE(cache.Lookup(k1) != nullptr);

  // A plan computed before a bump but inserted after it (the in-flight
  // optimization race) is born stale and never served: the bump fences
  // it even though the insert physically happened later.
  const uint64_t before_bump = cache.statistics_epoch();
  cache.BumpStatisticsEpoch();
  cache.Insert(k2, plan.arena, plan.best, before_bump);
  EXPECT_FALSE(cache.Lookup(k2) != nullptr);
}

TEST(PlanCacheTest, InvalidateWhereEvictsExactlyDependentEntries) {
  PlanCacheOptions opts;
  PlanCache cache(opts);
  const MarkerPlan plan = MakeMarkerPlan(1.0);
  // Four entries: two depend on table "R3", two do not ("R30" only
  // shares a prefix with it).
  const PlanCacheKey k1 = MakeKey({{"R1", 5.0}, {"R3", 100.0}});
  const PlanCacheKey k2 = MakeKey({{"R3", 100.0}});
  const PlanCacheKey k3 = MakeKey({{"R7", 9.0}});
  const PlanCacheKey k4 = MakeKey({{"R30", 100.0}, {"R1", 5.0}});
  for (const PlanCacheKey* key : {&k1, &k2, &k3, &k4}) {
    cache.Insert(*key, plan.arena, plan.best);
  }

  EXPECT_EQ(cache.InvalidateTable("R3"), 2u);
  EXPECT_FALSE(cache.Lookup(k1) != nullptr);
  EXPECT_FALSE(cache.Lookup(k2) != nullptr);
  EXPECT_TRUE(cache.Lookup(k3) != nullptr);
  EXPECT_TRUE(cache.Lookup(k4) != nullptr);
  EXPECT_EQ(cache.stats().evictions_invalidated, 2u);

  // Predicate form: evict entries whose cardinality for R7 changed.
  const auto r7_changed_to_other_than = [&cache](double expected) {
    return cache.InvalidateWhere([expected](const PlanCacheEntryView& view) {
      return AnyKeyTable(view.key,
                         [expected](std::string_view name, double card) {
                           return name == "R7" && card != expected;
                         });
    });
  };
  EXPECT_EQ(r7_changed_to_other_than(9.0), 0u);  // still matches
  EXPECT_TRUE(cache.Lookup(k3) != nullptr);
  EXPECT_EQ(r7_changed_to_other_than(10.0), 1u);
  EXPECT_FALSE(cache.Lookup(k3) != nullptr);
  EXPECT_TRUE(cache.Lookup(k4) != nullptr);
}

TEST(PlanCacheServiceTest, EpochBumpForcesReoptimization) {
  const Query query = MakeQuery(9, 77);
  MpqOptions opts;
  opts.num_workers = 8;

  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 2;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  ASSERT_TRUE(service.Optimize(query, opts).ok());
  StatusOr<MpqResult> hit = service.Optimize(query, opts);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_plan_cache);

  service.plan_cache()->BumpStatisticsEpoch();
  StatusOr<MpqResult> after = service.Optimize(query, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().from_plan_cache);
  EXPECT_EQ(service.stats().cache_misses, 2u);
  EXPECT_GT(service.stats().cache_evictions, 0u);
}

// ------------------------------------------------------------ single-flight

/// Counts the rounds that actually reach the wrapped backend.
class CountingBackend : public ExecutionBackend {
 public:
  explicit CountingBackend(std::shared_ptr<ExecutionBackend> inner)
      : ExecutionBackend(inner->network()), inner_(std::move(inner)) {}

  StatusOr<RoundResult> RunRound(
      const std::vector<WorkerTask>& tasks,
      const std::vector<std::vector<uint8_t>>& requests) override {
    rounds_.fetch_add(1, std::memory_order_relaxed);
    return inner_->RunRound(tasks, requests);
  }
  const char* name() const override { return "counting"; }
  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<ExecutionBackend> inner_;
  std::atomic<uint64_t> rounds_{0};
};

TEST(PlanCacheServiceTest, ConcurrentSameFingerprintMissesOptimizeOnce) {
  const Query query = MakeQuery(10, 99);
  MpqOptions opts;
  opts.num_workers = 16;

  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<AsyncBatchBackend>(NetworkModel{}, 2));
  ServiceOptions service_opts;
  service_opts.backend = counting;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  MpqOptimizer reference(opts);
  StatusOr<MpqResult> fresh = reference.Optimize(query);
  ASSERT_TRUE(fresh.ok());
  const double expected_cost =
      fresh.value().arena.node(fresh.value().best[0]).cost.time();

  const int kCallers = 8;
  std::vector<std::thread> callers;
  std::vector<double> costs(kCallers, -1.0);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i]() {
      StatusOr<MpqResult> r = service.Optimize(query, opts);
      if (r.ok()) {
        costs[static_cast<size_t>(i)] =
            r.value().arena.node(r.value().best[0]).cost.time();
      }
    });
  }
  for (std::thread& t : callers) t.join();

  // Exactly one optimization ran (one worker round), every caller got
  // the right plan, and the stats agree: 1 miss, kCallers - 1 hits.
  EXPECT_EQ(counting->rounds(), 1u);
  for (double cost : costs) EXPECT_DOUBLE_EQ(cost, expected_cost);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.queries_completed, static_cast<uint64_t>(kCallers));
}

}  // namespace
}  // namespace mpqopt
