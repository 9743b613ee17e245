// Copyright 2026 mpqopt authors.
//
// End-to-end integration tests: MPQ through the full wire protocol must
// return exactly the serial optimizer's result for every supported degree
// of parallelism, every plan space, every join-graph shape, and both
// objectives — the paper's central exactness claim.

#include <gtest/gtest.h>

#include <tuple>

#include "catalog/generator.h"
#include "mpq/mpq.h"
#include "optimizer/dp.h"
#include "optimizer/pruning.h"
#include "plan/plan_validator.h"
#include "sma/sma.h"

namespace mpqopt {
namespace {

Query MakeQuery(int n, JoinGraphShape shape, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

class ExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<PlanSpace, int, JoinGraphShape>> {};

TEST_P(ExactnessTest, MpqMatchesSerialForAllWorkerCounts) {
  const auto [space, n, shape] = GetParam();
  const Query q = MakeQuery(n, shape, 1000 + n);
  DpConfig config;
  config.space = space;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  const double optimum =
      serial.value().arena.node(serial.value().best[0]).cost.time();

  const uint64_t max_m = UsableWorkers(n, space, 64);
  for (uint64_t m = 1; m <= max_m; m *= 2) {
    MpqOptions opts;
    opts.space = space;
    opts.num_workers = m;
    MpqOptimizer mpq(opts);
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok()) << "m=" << m;
    const double cost =
        result.value().arena.node(result.value().best[0]).cost.time();
    EXPECT_NEAR(cost / optimum, 1.0, 1e-12)
        << PlanSpaceName(space) << " n=" << n << " m=" << m;

    const CostModel model(Objective::kTime);
    PlanValidationOptions vopts;
    vopts.require_left_deep = space == PlanSpace::kLinear;
    EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                             model, vopts)
                    .ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ExactnessTest,
    ::testing::Values(
        std::make_tuple(PlanSpace::kLinear, 8, JoinGraphShape::kStar),
        std::make_tuple(PlanSpace::kLinear, 9, JoinGraphShape::kChain),
        std::make_tuple(PlanSpace::kLinear, 10, JoinGraphShape::kCycle),
        std::make_tuple(PlanSpace::kLinear, 11, JoinGraphShape::kClique),
        std::make_tuple(PlanSpace::kLinear, 12, JoinGraphShape::kStar),
        std::make_tuple(PlanSpace::kBushy, 8, JoinGraphShape::kStar),
        std::make_tuple(PlanSpace::kBushy, 9, JoinGraphShape::kChain),
        std::make_tuple(PlanSpace::kBushy, 10, JoinGraphShape::kCycle),
        std::make_tuple(PlanSpace::kBushy, 11, JoinGraphShape::kStar)));

class MoExactnessTest
    : public ::testing::TestWithParam<std::tuple<PlanSpace, int>> {};

TEST_P(MoExactnessTest, MpqFrontierCoversSerialFrontierBothWays) {
  const auto [space, n] = GetParam();
  const Query q = MakeQuery(n, JoinGraphShape::kStar, 2000 + n);
  DpConfig config;
  config.space = space;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;  // exact frontiers -> exact coverage both ways
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  std::vector<CostVector> serial_frontier;
  for (PlanId id : serial.value().best) {
    serial_frontier.push_back(serial.value().arena.node(id).cost);
  }

  const uint64_t max_m = UsableWorkers(n, space, 16);
  for (uint64_t m = 1; m <= max_m; m *= 2) {
    MpqOptions opts;
    opts.space = space;
    opts.objective = Objective::kTimeAndBuffer;
    opts.alpha = 1.0;
    opts.num_workers = m;
    MpqOptimizer mpq(opts);
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok()) << "m=" << m;
    std::vector<CostVector> frontier;
    for (PlanId id : result.value().best) {
      frontier.push_back(result.value().arena.node(id).cost);
    }
    EXPECT_TRUE(AlphaCovers(frontier, serial_frontier, 1.0 + 1e-12))
        << "m=" << m;
    EXPECT_TRUE(AlphaCovers(serial_frontier, frontier, 1.0 + 1e-12))
        << "m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, MoExactnessTest,
    ::testing::Values(std::make_tuple(PlanSpace::kLinear, 8),
                      std::make_tuple(PlanSpace::kLinear, 10),
                      std::make_tuple(PlanSpace::kBushy, 8),
                      std::make_tuple(PlanSpace::kBushy, 9)));

TEST(IntegrationTest, MpqAndSmaAgreeOnOptimum) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Query q = MakeQuery(10, JoinGraphShape::kStar, 3000 + seed);
    MpqOptions mpq_opts;
    mpq_opts.space = PlanSpace::kLinear;
    mpq_opts.num_workers = 16;
    MpqOptimizer mpq(mpq_opts);
    SmaOptions sma_opts;
    sma_opts.space = PlanSpace::kLinear;
    sma_opts.num_workers = 5;
    StatusOr<MpqResult> a = mpq.Optimize(q);
    StatusOr<SmaResult> b = SmaOptimize(q, sma_opts);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(a.value().arena.node(a.value().best[0]).cost.time(),
                     b.value().arena.node(b.value().best[0]).cost.time());
  }
}

TEST(IntegrationTest, WorkerMemoryScalesDownAsTheoremsPredict) {
  // Figure 2's memory series: per-worker memo sets must shrink by 3/4
  // (linear) resp. 7/8 (bushy) per doubling of m.
  const Query q = MakeQuery(12, JoinGraphShape::kStar, 4001);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    int64_t prev = 0;
    const uint64_t max_m = UsableWorkers(12, space, 16);
    for (uint64_t m = 1; m <= max_m; m *= 2) {
      MpqOptions opts;
      opts.space = space;
      opts.num_workers = m;
      MpqOptimizer mpq(opts);
      StatusOr<MpqResult> result = mpq.Optimize(q);
      ASSERT_TRUE(result.ok());
      const int64_t sets = result.value().max_worker_memo_sets;
      if (prev > 0) {
        if (space == PlanSpace::kLinear) {
          EXPECT_EQ(sets, prev * 3 / 4);
        } else {
          EXPECT_EQ(sets, prev * 7 / 8);
        }
      }
      prev = sets;
    }
  }
}

TEST(IntegrationTest, TotalSplitsShrinkWithParallelism) {
  // Theorem 6/7: per-worker enumeration work decreases with m; the MAX
  // over workers (which equals total/m by skew-freeness) must shrink.
  const Query q = MakeQuery(12, JoinGraphShape::kStar, 4002);
  int64_t prev_per_worker = 0;
  for (uint64_t m : {1u, 2u, 4u, 8u}) {
    MpqOptions opts;
    opts.space = PlanSpace::kLinear;
    opts.num_workers = m;
    MpqOptimizer mpq(opts);
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    const int64_t per_worker =
        result.value().total_splits / static_cast<int64_t>(m);
    if (prev_per_worker > 0) {
      EXPECT_LT(per_worker, prev_per_worker);
    }
    prev_per_worker = per_worker;
  }
}

TEST(IntegrationTest, SerializedQueriesIdenticalAcrossPartitions) {
  // All workers must receive the same query bytes and numbering — the
  // correctness precondition called out in Section 4.2.
  const Query q = MakeQuery(8, JoinGraphShape::kStar, 4003);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;
  std::vector<uint8_t> first = MpqOptimizer::BuildRequest(q, 0, opts);
  for (uint64_t part = 1; part < 4; ++part) {
    std::vector<uint8_t> req = MpqOptimizer::BuildRequest(q, part, opts);
    ASSERT_EQ(req.size(), first.size());
    // Requests differ only in the partition id field.
    int diff_bytes = 0;
    for (size_t i = 0; i < req.size(); ++i) {
      if (req[i] != first[i]) ++diff_bytes;
    }
    EXPECT_LE(diff_bytes, 8);
  }
}

TEST(IntegrationTest, LargeLinearQueryEndToEnd) {
  // A 16-table query exercising deeper recursion and larger memos.
  const Query q = MakeQuery(16, JoinGraphShape::kStar, 4004);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 64;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(
      result.value().arena.node(result.value().best[0]).cost.time() /
          serial.value().arena.node(serial.value().best[0]).cost.time(),
      1.0, 1e-12);
}

}  // namespace
}  // namespace mpqopt
