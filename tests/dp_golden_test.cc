// Copyright 2026 mpqopt authors.
//
// Golden corpus of the partition DP: for every (variant x plan space)
// cell, one 64-bit digest over the serialized plan sets and the DpStats
// counters of every partition of a seed sweep of queries. The digests
// pin the DP's exact output — plan structure, algorithm choice, cost and
// cardinality bits, frontier order, and the enumeration counters — so any
// rewrite of the DP must reproduce them byte for byte. A mismatch names
// its cell; rerun with --gtest_also_run_disabled_tests and the
// PrintDigests test to see every cell's current value.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/generator.h"
#include "common/serialize.h"
#include "optimizer/dp.h"
#include "optimizer/pqo.h"
#include "partition/constraints.h"
#include "plan/plan_serde.h"
#include "plancache/fingerprint.h"

namespace mpqopt {
namespace {

enum class Variant { kTime, kPareto1, kPareto10, kInterestingOrders, kPqo };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kTime: return "time";
    case Variant::kPareto1: return "pareto_a1";
    case Variant::kPareto10: return "pareto_a10";
    case Variant::kInterestingOrders: return "interesting_orders";
    case Variant::kPqo: return "pqo";
  }
  return "?";
}

Query MakeQuery(int n, JoinGraphShape shape, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

/// Appends one partition's plan set and counters to `w`.
void AppendPartition(Variant variant, const Query& q,
                     const ConstraintSet& constraints, PlanSpace space,
                     ByteWriter* w) {
  if (variant == Variant::kPqo) {
    PqoConfig config;
    config.space = space;
    config.parametric_table = q.num_tables() / 2;
    StatusOr<PqoResult> r = RunParametricDp(q, constraints, config);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<PlanId> ids;
    for (const PqoPlan& p : r.value().plans) ids.push_back(p.plan);
    SerializePlanSet(r.value().arena, ids, w);
    // plans_costed is not part of the PQO cell: it did not exist for PQO
    // when the corpus was captured.
    w->WriteI64(r.value().stats.admissible_sets);
    w->WriteI64(r.value().stats.splits_tried);
    return;
  }
  DpConfig config;
  config.space = space;
  if (variant == Variant::kPareto1 || variant == Variant::kPareto10) {
    config.objective = Objective::kTimeAndBuffer;
    config.alpha = variant == Variant::kPareto1 ? 1.0 : 10.0;
  }
  config.interesting_orders = variant == Variant::kInterestingOrders;
  StatusOr<DpResult> r = RunPartitionDp(q, constraints, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  SerializePlanSet(r.value().arena, r.value().best, w);
  w->WriteI64(r.value().stats.admissible_sets);
  w->WriteI64(r.value().stats.splits_tried);
  w->WriteI64(r.value().stats.plans_costed);
}

/// Digest of one cell: chain/star/cycle/clique queries over three seeds
/// at three sizes, every partition of every usable m in {1, 4, 16}.
uint64_t CellDigest(Variant variant, PlanSpace space) {
  ByteWriter w;
  const std::vector<int> sizes = space == PlanSpace::kLinear
                                     ? std::vector<int>{1, 5, 8}
                                     : std::vector<int>{1, 6, 9};
  for (int n : sizes) {
    for (JoinGraphShape shape :
         {JoinGraphShape::kChain, JoinGraphShape::kStar,
          JoinGraphShape::kCycle, JoinGraphShape::kClique}) {
      for (uint64_t seed : {3u, 17u, 40u}) {
        const Query q = MakeQuery(n, shape, seed);
        for (uint64_t m : {1u, 4u, 16u}) {
          if (UsableWorkers(n, space, m) != m) continue;
          for (uint64_t part = 0; part < m; ++part) {
            StatusOr<ConstraintSet> c =
                ConstraintSet::FromPartitionId(n, space, part, m);
            EXPECT_TRUE(c.ok());
            if (!c.ok()) return 0;
            AppendPartition(variant, q, c.value(), space, &w);
          }
        }
      }
    }
  }
  return HashBytes64(w.buffer().data(), w.buffer().size(), 0);
}

struct GoldenCell {
  Variant variant;
  PlanSpace space;
  uint64_t digest;
};

// Captured from the per-variant DP implementations before they were
// merged into one skeleton (optimizer/dp_skeleton.h).
constexpr GoldenCell kGolden[] = {
    {Variant::kTime, PlanSpace::kLinear, 0x6641fb1f61ae4b5a},
    {Variant::kTime, PlanSpace::kBushy, 0x58bd4cd06bd3bbc4},
    {Variant::kPareto1, PlanSpace::kLinear, 0x781fdf4ed014a9e7},
    {Variant::kPareto1, PlanSpace::kBushy, 0x6ef29e1379f721d9},
    {Variant::kPareto10, PlanSpace::kLinear, 0x93f7a13c6bc8bc84},
    {Variant::kPareto10, PlanSpace::kBushy, 0x46ab811cadf6850d},
    {Variant::kInterestingOrders, PlanSpace::kLinear, 0xd6f52162d722ec19},
    {Variant::kInterestingOrders, PlanSpace::kBushy, 0x6bda3584b0054c08},
    {Variant::kPqo, PlanSpace::kLinear, 0x733fc78c9c4a3e1b},
    {Variant::kPqo, PlanSpace::kBushy, 0x9e6be3a045f1b463},
};

TEST(DpGoldenTest, DigestsMatchCorpus) {
  for (const GoldenCell& cell : kGolden) {
    EXPECT_EQ(CellDigest(cell.variant, cell.space), cell.digest)
        << VariantName(cell.variant) << " x " << PlanSpaceName(cell.space);
  }
}

TEST(DpGoldenTest, DISABLED_PrintDigests) {
  for (const GoldenCell& cell : kGolden) {
    std::printf("%s x %s: 0x%016llx\n",
                VariantName(cell.variant), PlanSpaceName(cell.space),
                static_cast<unsigned long long>(
                    CellDigest(cell.variant, cell.space)));
  }
}

}  // namespace
}  // namespace mpqopt
