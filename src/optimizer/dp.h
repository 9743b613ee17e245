// Copyright 2026 mpqopt authors.
//
// The dynamic-programming plan search executed by each worker on its plan
// space partition (paper Algorithm 2, with the split generation of
// Algorithm 5). Running it with an empty constraint set on the full index
// IS the classical serial optimizer (Selinger-style for linear spaces,
// Vance/Maier-style for bushy spaces with Cartesian products), which is
// exactly the paper's m = 1 baseline.
//
// Four DP variants share one enumeration skeleton (optimizer/
// dp_skeleton.h) and differ only in their memo policy: the entry layout,
// the pruning function, and how a kept plan becomes a PlanNode.
//  * kTime: one best plan per admissible table set (32-byte memo entry).
//  * kTimeAndBuffer: an alpha-approximate Pareto set per table set.
//  * interesting_orders: the best plan per (table set, order class).
//  * PQO (optimizer/pqo.h): the lower envelope of affine cost lines.
// The first three policies live in dp.cc, the PQO policy in pqo.cc.

#ifndef MPQOPT_OPTIMIZER_DP_H_
#define MPQOPT_OPTIMIZER_DP_H_

#include <cstdint>
#include <vector>

#include "catalog/query.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "partition/constraints.h"
#include "plan/plan.h"

namespace mpqopt {

/// Configuration of one DP run.
struct DpConfig {
  PlanSpace space = PlanSpace::kLinear;
  Objective objective = Objective::kTime;
  /// Approximation factor of the Pareto pruning function; only used in
  /// kTimeAndBuffer mode. Must be >= 1.
  double alpha = 10.0;
  /// Track interesting orders: keep the best plan per (table set, order
  /// class), let sort-merge joins consume/produce orders (paper §5.4
  /// extension). Single-objective only.
  bool interesting_orders = false;
  /// Cost model tuning constants.
  CostModelOptions cost_options;
  /// Safety valve: refuse runs whose memo would exceed this many entries
  /// (the caller should add workers instead).
  int64_t max_memo_entries = int64_t{1} << 28;
};

/// Counters describing one DP run; the benchmark harness aggregates these
/// into the paper's figures.
struct DpStats {
  /// Admissible join results (memo slots) — the paper's
  /// "Memory (relations)" metric and the quantity of Theorems 2/3.
  int64_t admissible_sets = 0;
  /// Operand pairs generated (the quantity of Theorems 6/7).
  int64_t splits_tried = 0;
  /// Cost evaluations (splits x join algorithms x plan pairs).
  int64_t plans_costed = 0;
  /// Pure optimization time in seconds (excludes (de)serialization).
  double seconds = 0;
};

/// Output of one DP run: the partition-optimal plan(s) materialized in a
/// private arena. `best` has exactly one element in kTime mode and the
/// partition's Pareto frontier in kTimeAndBuffer mode. Interesting-order
/// plans carry their true charged costs, which the order-blind CostModel
/// cannot recompute: validate them with
/// PlanValidationOptions::check_costs = false.
struct DpResult {
  PlanArena arena;
  std::vector<PlanId> best;
  DpStats stats;
};

/// Finds the optimal plan(s) for `query` within the plan-space partition
/// defined by `constraints` (paper Algorithm 2). Use
/// ConstraintSet::None(space) for the full, unpartitioned plan space.
StatusOr<DpResult> RunPartitionDp(const Query& query,
                                  const ConstraintSet& constraints,
                                  const DpConfig& config);

/// Convenience wrapper: classical serial optimization over the whole plan
/// space (m = 1).
StatusOr<DpResult> OptimizeSerial(const Query& query, const DpConfig& config);

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_DP_H_
