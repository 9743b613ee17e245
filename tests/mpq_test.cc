// Copyright 2026 mpqopt authors.

#include "mpq/mpq.h"

#include <gtest/gtest.h>

#include "catalog/generator.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

MpqOptions Options(PlanSpace space, uint64_t workers) {
  MpqOptions opts;
  opts.space = space;
  opts.num_workers = workers;
  return opts;
}

TEST(MpqTest, SingleWorkerEqualsSerialOptimizer) {
  const Query q = RandomQuery(8, 1);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 1));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(MpqTest, WorkersUseTheSortedScanFactor) {
  // Every cost option reaches the workers: with a cheap order-producing
  // scan the optimum uses sorted scans, and MPQ must find the same cost
  // as the serial optimizer (it used to price them at the default 1.2).
  GeneratorOptions gen_opts;
  gen_opts.shape = JoinGraphShape::kChain;
  QueryGenerator gen(gen_opts, 7);
  const Query q = gen.Generate(8);
  MpqOptions opts = Options(PlanSpace::kLinear, 4);
  opts.interesting_orders = true;
  opts.cost_options.sorted_scan_factor = 0.3;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.interesting_orders = true;
  config.cost_options = opts.cost_options;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(result.value().arena.node(result.value().best[0]).cost.time(),
            serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(MpqTest, RejectsNonPowerOfTwoWorkers) {
  const Query q = RandomQuery(8, 2);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 3));
  EXPECT_FALSE(mpq.Optimize(q).ok());
}

TEST(MpqTest, RejectsTooManyWorkers) {
  const Query q = RandomQuery(4, 3);
  // Max workers for 4 tables linear = 2^2 = 4.
  MpqOptimizer ok_case(Options(PlanSpace::kLinear, 4));
  EXPECT_TRUE(ok_case.Optimize(q).ok());
  MpqOptimizer bad_case(Options(PlanSpace::kLinear, 8));
  EXPECT_FALSE(bad_case.Optimize(q).ok());
}

TEST(MpqTest, RejectsInvalidQuery) {
  Query q;
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 1));
  EXPECT_FALSE(mpq.Optimize(q).ok());
}

TEST(MpqTest, WorkerMainRoundTripsOnWire) {
  const Query q = RandomQuery(6, 4);
  const MpqOptions opts = Options(PlanSpace::kLinear, 4);
  const std::vector<uint8_t> request = MpqOptimizer::BuildRequest(q, 2, opts);
  StatusOr<std::vector<uint8_t>> response = MpqOptimizer::WorkerMain(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response.value().size(), 0u);
}

TEST(MpqTest, WorkerMainRejectsGarbage) {
  std::vector<uint8_t> garbage(32, 0xCD);
  EXPECT_FALSE(MpqOptimizer::WorkerMain(garbage).ok());
}

TEST(MpqTest, WorkerMainRejectsTruncatedRequest) {
  const Query q = RandomQuery(6, 5);
  std::vector<uint8_t> request =
      MpqOptimizer::BuildRequest(q, 0, Options(PlanSpace::kLinear, 2));
  request.resize(request.size() / 2);
  EXPECT_FALSE(MpqOptimizer::WorkerMain(request).ok());
}

TEST(MpqTest, NetworkBytesLinearInWorkers) {
  // Theorem 1: O(m * (b_q + b_p)). Doubling m should roughly double the
  // traffic, and traffic must not scale with the memo size.
  const Query q = RandomQuery(12, 6);
  uint64_t bytes_at[3] = {0, 0, 0};
  int i = 0;
  for (uint64_t m : {1u, 2u, 4u}) {
    MpqOptimizer mpq(Options(PlanSpace::kLinear, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    bytes_at[i++] = result.value().network_bytes;
  }
  EXPECT_GT(bytes_at[1], bytes_at[0]);
  EXPECT_GT(bytes_at[2], bytes_at[1]);
  // Within a factor ~2.5 of strict linearity (responses vary slightly).
  EXPECT_LT(bytes_at[2], bytes_at[0] * 10);
  EXPECT_GT(bytes_at[2], bytes_at[0] * 3);
}

TEST(MpqTest, MemoSizeDecreasesWithWorkers) {
  const Query q = RandomQuery(12, 7);
  int64_t prev = 0;
  for (uint64_t m : {1u, 4u, 16u, 64u}) {
    MpqOptimizer mpq(Options(PlanSpace::kLinear, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    const int64_t sets = result.value().max_worker_memo_sets;
    if (prev != 0) {
      // Two extra constraints per 4x workers: (3/4)^2 = 9/16.
      EXPECT_EQ(sets, prev * 9 / 16);
    }
    prev = sets;
  }
}

TEST(MpqTest, AllPartitionsReportEqualMemoSizes) {
  const Query q = RandomQuery(10, 8);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 16));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  for (int64_t sets : result.value().worker_memo_sets) {
    EXPECT_EQ(sets, result.value().worker_memo_sets[0]);
  }
}

TEST(MpqTest, ReturnedPlanValidates) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const Query q = RandomQuery(9, 9);
    const uint64_t m = 8;
    MpqOptimizer mpq(Options(space, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    const CostModel model(Objective::kTime);
    PlanValidationOptions vopts;
    vopts.require_left_deep = space == PlanSpace::kLinear;
    EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                             model, vopts)
                    .ok());
  }
}

TEST(MpqTest, SimulatedTimeAccountsForSetupOverhead) {
  const Query q = RandomQuery(8, 10);
  MpqOptions opts = Options(PlanSpace::kLinear, 16);
  opts.network.task_setup_s = 0.1;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().simulated_seconds, 1.6);
}

TEST(MpqTest, MultiObjectiveFrontierMerged) {
  const Query q = RandomQuery(8, 11);
  MpqOptions opts = Options(PlanSpace::kLinear, 4);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().best.size(), 1u);
  // Frontier plans are mutually non-dominated after the final prune.
  for (PlanId a : result.value().best) {
    for (PlanId b : result.value().best) {
      if (a == b) continue;
      EXPECT_FALSE(result.value().arena.node(a).cost.StrictlyDominates(
          result.value().arena.node(b).cost));
    }
  }
}

TEST(MpqTest, MultiObjectiveMergeCoversSerialFrontier) {
  const Query q = RandomQuery(8, 12);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  std::vector<CostVector> reference;
  for (PlanId id : serial.value().best) {
    reference.push_back(serial.value().arena.node(id).cost);
  }

  MpqOptions opts = Options(PlanSpace::kLinear, 8);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  std::vector<CostVector> merged;
  for (PlanId id : result.value().best) {
    merged.push_back(result.value().arena.node(id).cost);
  }
  // With alpha = 1 and exact per-partition frontiers, the merged frontier
  // must weakly cover the serial frontier.
  EXPECT_TRUE(AlphaCovers(merged, reference, 1.0 + 1e-12));
}

TEST(MpqTest, BatchedRequestsMatchPerPartitionRequests) {
  // BuildRequests serializes the query and option tail once and splices
  // per-partition buffers; the result must be byte-identical to the
  // legacy one-BuildRequest-per-partition loop, or workers would decode
  // different tasks depending on which master path scattered them.
  const Query q = RandomQuery(10, 21);
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    MpqOptions opts = Options(PlanSpace::kBushy, 8);
    opts.objective = objective;
    opts.interesting_orders = (objective == Objective::kTime);
    const std::vector<std::vector<uint8_t>> batched =
        MpqOptimizer::BuildRequests(q, opts);
    ASSERT_EQ(batched.size(), 8u);
    for (uint64_t part = 0; part < 8; ++part) {
      EXPECT_EQ(batched[part], MpqOptimizer::BuildRequest(q, part, opts))
          << "partition " << part;
    }
  }
}

std::vector<uint8_t> SerializedBest(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

TEST(MpqTest, ShardedFinalizeIsByteIdenticalToSerial) {
  // The sharded Phase-3 parallelizes only the response decode; the
  // final prune still merges partitions in order. Any thread count must
  // therefore produce byte-identical plans and identical statistics —
  // for the single-plan kTime objective and for the order-dependent
  // multi-objective frontier alike.
  const Query q = RandomQuery(9, 22);
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    MpqOptions opts = Options(PlanSpace::kLinear, 8);
    opts.objective = objective;
    opts.alpha = 1.2;
    const std::vector<std::vector<uint8_t>> requests =
        MpqOptimizer::BuildRequests(q, opts);
    std::vector<std::vector<uint8_t>> responses;
    for (const std::vector<uint8_t>& request : requests) {
      StatusOr<std::vector<uint8_t>> response =
          MpqOptimizer::WorkerMain(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      responses.push_back(std::move(response).value());
    }

    MpqOptions serial = opts;
    serial.finalize_threads = 1;
    StatusOr<MpqResult> reference =
        MpqOptimizer::FinalizeResponses(responses, serial);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (int threads : {2, 4, 8}) {
      MpqOptions sharded = opts;
      sharded.finalize_threads = threads;
      StatusOr<MpqResult> result =
          MpqOptimizer::FinalizeResponses(responses, sharded);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SerializedBest(result.value()),
                SerializedBest(reference.value()))
          << "threads=" << threads;
      EXPECT_EQ(result.value().total_splits, reference.value().total_splits);
      EXPECT_EQ(result.value().total_plans_costed,
                reference.value().total_plans_costed);
      EXPECT_EQ(result.value().worker_memo_sets,
                reference.value().worker_memo_sets);
      EXPECT_EQ(result.value().max_worker_memo_sets,
                reference.value().max_worker_memo_sets);
    }
  }
}

TEST(MpqTest, FinalizeSurfacesTheFirstBadResponseByPartitionIndex) {
  const Query q = RandomQuery(8, 23);
  MpqOptions opts = Options(PlanSpace::kLinear, 4);
  std::vector<std::vector<uint8_t>> responses;
  for (const std::vector<uint8_t>& request :
       MpqOptimizer::BuildRequests(q, opts)) {
    StatusOr<std::vector<uint8_t>> response =
        MpqOptimizer::WorkerMain(request);
    ASSERT_TRUE(response.ok());
    responses.push_back(std::move(response).value());
  }
  // Corrupt partitions 1 and 3: whatever the decode-thread interleaving,
  // the reported failure must be partition 1 (deterministic errors).
  responses[1] = {0xff, 0xff};
  responses[3] = {0xff};
  for (int threads : {1, 4}) {
    MpqOptions sharded = opts;
    sharded.finalize_threads = threads;
    StatusOr<MpqResult> result =
        MpqOptimizer::FinalizeResponses(responses, sharded);
    ASSERT_FALSE(result.ok());
  }
}

TEST(MpqTest, WorkerSecondsPopulatedPerPartition) {
  const Query q = RandomQuery(10, 13);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 8));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().worker_seconds.size(), 8u);
  double max_seen = 0;
  for (double s : result.value().worker_seconds) {
    EXPECT_GE(s, 0);
    max_seen = std::max(max_seen, s);
  }
  EXPECT_DOUBLE_EQ(max_seen, result.value().max_worker_seconds);
}

}  // namespace
}  // namespace mpqopt
