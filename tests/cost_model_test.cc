// Copyright 2026 mpqopt authors.

#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace mpqopt {
namespace {

TEST(CostModelTest, ScanCostEqualsCardinalityInTimeMetric) {
  const CostModel model(Objective::kTime);
  EXPECT_DOUBLE_EQ(model.ScanCost(1000).time(), 1000);
  EXPECT_EQ(model.ScanCost(1000).num_metrics(), 1);
}

TEST(CostModelTest, ScanCostBufferIsOneBlock) {
  CostModelOptions opts;
  opts.block_size = 64;
  const CostModel model(Objective::kTimeAndBuffer, opts);
  const CostVector c = model.ScanCost(1000);
  EXPECT_EQ(c.num_metrics(), 2);
  EXPECT_DOUBLE_EQ(c[1], 64);
}

TEST(CostModelTest, BlockNestedLoopFormula) {
  CostModelOptions opts;
  opts.block_size = 100;
  opts.output_cost_factor = 1.0;
  const CostModel model(Objective::kTime, opts);
  // |L|=250 -> 3 blocks; 250 + 3*1000 + out 50.
  EXPECT_DOUBLE_EQ(
      model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 250, 1000, 50),
      250 + 3 * 1000 + 50);
}

TEST(CostModelTest, HashJoinFormula) {
  CostModelOptions opts;
  opts.hash_constant = 1.2;
  const CostModel model(Objective::kTime, opts);
  EXPECT_DOUBLE_EQ(model.LocalJoinTime(JoinAlgorithm::kHashJoin, 100, 200, 30),
                   1.2 * 300 + 30);
}

TEST(CostModelTest, SortMergeFormula) {
  const CostModel model(Objective::kTime);
  const double expected =
      1024 * 10 + 16 * 4 + 1024 + 16 + 7;  // n log n terms + merge + out
  EXPECT_DOUBLE_EQ(
      model.LocalJoinTime(JoinAlgorithm::kSortMergeJoin, 1024, 16, 7),
      expected);
}

TEST(CostModelTest, JoinCostAddsChildTimes) {
  const CostModel model(Objective::kTime);
  const CostVector l = CostVector::Scalar(500);
  const CostVector r = CostVector::Scalar(700);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 100, 200, 30);
  EXPECT_DOUBLE_EQ(
      joined.time(),
      500 + 700 + model.LocalJoinTime(JoinAlgorithm::kHashJoin, 100, 200, 30));
}

TEST(CostModelTest, BufferMetricIsPeakNotSum) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 5000);
  const CostVector r = CostVector::TimeBuffer(10, 300);
  // Hash join build side of 100 rows: local buffer 100 < child peak 5000.
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 100, 200, 30);
  EXPECT_DOUBLE_EQ(joined[1], 5000);
}

TEST(CostModelTest, HashJoinBufferIsBuildSide) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 1);
  const CostVector r = CostVector::TimeBuffer(10, 1);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 4000, 200, 30);
  EXPECT_DOUBLE_EQ(joined[1], 4000);
}

TEST(CostModelTest, SortMergeBufferIsBothSides) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 1);
  const CostVector r = CostVector::TimeBuffer(10, 1);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kSortMergeJoin, l, r, 4000, 600, 30);
  EXPECT_DOUBLE_EQ(joined[1], 4600);
}

TEST(CostModelTest, MonotoneInInputCardinalities) {
  const CostModel model(Objective::kTime);
  for (JoinAlgorithm alg : kJoinAlgorithms) {
    const double base = model.LocalJoinTime(alg, 1000, 1000, 10);
    EXPECT_LT(base, model.LocalJoinTime(alg, 2000, 1000, 10));
    EXPECT_LT(base, model.LocalJoinTime(alg, 1000, 2000, 10));
    EXPECT_LT(base, model.LocalJoinTime(alg, 1000, 1000, 500));
  }
}

TEST(CostModelTest, HashBeatsNestedLoopOnLargeInputs) {
  const CostModel model(Objective::kTime);
  EXPECT_LT(model.LocalJoinTime(JoinAlgorithm::kHashJoin, 1e6, 1e6, 10),
            model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 1e6, 1e6, 10));
}

TEST(CostModelTest, NestedLoopCompetitiveOnTinyOuter) {
  CostModelOptions opts;
  opts.block_size = 100;
  const CostModel model(Objective::kTime, opts);
  // A one-block outer makes BNL a single inner pass.
  EXPECT_LT(
      model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 10, 1000, 10),
      model.LocalJoinTime(JoinAlgorithm::kSortMergeJoin, 10, 1000, 10));
}

/// The textbook formulas written out directly from the cardinalities,
/// in the association order the DP's plans are pinned to.
double ReferenceLocalTime(JoinAlgorithm alg, double l, double r, double out,
                          const CostModelOptions& o) {
  double work = 0;
  switch (alg) {
    case JoinAlgorithm::kBlockNestedLoop:
      work = l + std::ceil(l / o.block_size) * r;
      break;
    case JoinAlgorithm::kHashJoin:
      work = o.hash_constant * (l + r);
      break;
    case JoinAlgorithm::kSortMergeJoin:
      work = l * (l > 2 ? std::log2(l) : 1.0) +
             r * (r > 2 ? std::log2(r) : 1.0) + l + r;
      break;
    case JoinAlgorithm::kScan:
      break;
  }
  return work + o.output_cost_factor * out;
}

double ReferenceLocalBuffer(JoinAlgorithm alg, double l, double r,
                            const CostModelOptions& o) {
  switch (alg) {
    case JoinAlgorithm::kBlockNestedLoop:
      return o.block_size;
    case JoinAlgorithm::kHashJoin:
      return l;
    case JoinAlgorithm::kSortMergeJoin:
      return l + r;
    case JoinAlgorithm::kScan:
      break;
  }
  return 0;
}

TEST(CostModelTest, TermsKernelEqualsReferenceFormulasBitForBit) {
  CostModelOptions opts;
  opts.block_size = 64;
  opts.hash_constant = 1.3;
  opts.output_cost_factor = 0.7;
  const double cards[] = {0.5, 1, 2, 2.5, 99, 100, 101, 1e6, 1e15};
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    const CostModel model(objective, opts);
    const bool mo = objective == Objective::kTimeAndBuffer;
    const CostVector lc =
        mo ? CostVector::TimeBuffer(123.25, 77) : CostVector::Scalar(123.25);
    const CostVector rc =
        mo ? CostVector::TimeBuffer(0.125, 4096) : CostVector::Scalar(0.125);
    for (double l : cards) {
      const JoinTerms lt = model.Terms(l);
      EXPECT_EQ(lt.card, l);
      EXPECT_EQ(lt.sort, l * (l > 2 ? std::log2(l) : 1.0)) << l;
      EXPECT_EQ(lt.sort, model.SortTime(l)) << l;
      EXPECT_EQ(lt.blocks, std::ceil(l / opts.block_size)) << l;
      for (double r : cards) {
        const JoinTerms rt = model.Terms(r);
        for (double out : cards) {
          for (JoinAlgorithm alg : kJoinAlgorithms) {
            const double local = ReferenceLocalTime(alg, l, r, out, opts);
            EXPECT_EQ(model.LocalJoinTime(alg, lt, rt, out), local)
                << JoinAlgorithmName(alg) << " " << l << " " << r;
            EXPECT_EQ(model.LocalJoinTime(alg, l, r, out), local);
            const double time = lc.time() + rc.time() + local;
            for (const CostVector& joined :
                 {model.JoinCost(alg, lc, rc, lt, rt, out),
                  model.JoinCost(alg, lc, rc, l, r, out)}) {
              ASSERT_EQ(joined.num_metrics(), mo ? 2 : 1);
              EXPECT_EQ(joined.time(), time);
              if (mo) {
                EXPECT_EQ(joined[1],
                          std::max({lc[1], rc[1],
                                    ReferenceLocalBuffer(alg, l, r, opts)}));
              }
            }
          }
        }
      }
    }
  }
}

TEST(CostModelTest, NumMetricsFollowsObjective) {
  EXPECT_EQ(CostModel(Objective::kTime).num_metrics(), 1);
  EXPECT_EQ(CostModel(Objective::kTimeAndBuffer).num_metrics(), 2);
}

TEST(CostModelTest, AlgorithmNames) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kScan), "Scan");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kBlockNestedLoop), "BNL");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kHashJoin), "HJ");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kSortMergeJoin), "SMJ");
}

}  // namespace
}  // namespace mpqopt
