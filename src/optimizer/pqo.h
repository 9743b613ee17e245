// Copyright 2026 mpqopt authors.
//
// Parametric query optimization (PQO) — a member of the DP family the
// paper's partitioning parallelizes "for free" (Sections 2 and 4:
// Ganguly VLDB'98, Ioannidis et al. VLDBJ'97, Hulgeri & Sudarshan
// VLDB'03 all share the classical DP scheme; only the pruning function
// differs).
//
// Model: one designated table's cardinality is unknown at optimization
// time and modeled as affine in a parameter theta in [0, 1]:
//
//     card_t(theta) = base * (1 + variability * theta).
//
// Because join operands are disjoint table sets, at most one operand of
// any join depends on theta, so with the BNL and hash-join formulas every
// plan's total cost is exactly affine: cost(theta) = a + b * theta.
// (Sort-merge join's n log n term is not affine and is excluded in PQO
// mode.) The pruning function keeps, per table set, the LOWER ENVELOPE of
// the plans' cost lines over [0, 1] — exactly the plans that are optimal
// for at least one parameter value. The optimizer returns the envelope of
// the full query: the parametric optimal set of plans plus the theta
// ranges where each wins.

#ifndef MPQOPT_OPTIMIZER_PQO_H_
#define MPQOPT_OPTIMIZER_PQO_H_

#include <vector>

#include "catalog/query.h"
#include "common/status.h"
#include "optimizer/dp.h"
#include "partition/constraints.h"
#include "plan/plan.h"

namespace mpqopt {

/// A cost that depends affinely on the unknown parameter theta in [0,1]:
/// value(theta) = constant + slope * theta.
struct AffineCost {
  double constant = 0;
  double slope = 0;

  double At(double theta) const { return constant + slope * theta; }

  AffineCost Plus(const AffineCost& other) const {
    return {constant + other.constant, slope + other.slope};
  }
  AffineCost Scaled(double factor) const {
    return {constant * factor, slope * factor};
  }
  /// Product with a plain number (cards of theta-free operands).
  static AffineCost Constant(double v) { return {v, 0}; }
};

/// Computes the subset of `lines` forming the lower envelope over
/// [0, 1], i.e. the indices of lines that are strictly minimal for some
/// theta. Ties are resolved toward the earlier index.
std::vector<size_t> LowerEnvelope(const std::vector<AffineCost>& lines);

/// Configuration of a PQO run.
struct PqoConfig {
  PlanSpace space = PlanSpace::kLinear;
  /// Table whose cardinality is parameter-dependent.
  int parametric_table = 0;
  /// card(theta) = base * (1 + variability * theta).
  double variability = 9.0;  // 10x swing across the parameter range
  CostModelOptions cost_options;
  int64_t max_memo_entries = int64_t{1} << 28;
};

/// One plan of the parametric optimal set.
struct PqoPlan {
  PlanId plan = kInvalidPlanId;
  AffineCost cost;
  /// Theta interval [theta_begin, theta_end) where this plan is optimal.
  double theta_begin = 0;
  double theta_end = 0;
};

/// Result: the parametric optimal plans with their winning intervals,
/// ordered by theta.
struct PqoResult {
  PlanArena arena;
  std::vector<PqoPlan> plans;
  /// DP counters; ParallelParametricOptimize reports the largest
  /// partition's admissible_sets and sums the rest over partitions.
  DpStats stats;
};

/// Finds the parametric optimal plan set within one plan-space partition
/// (use ConstraintSet::None for the serial optimizer). It runs the same
/// DP skeleton and partitioning as the other optimizer variants with an
/// envelope-pruning memo policy — the paper's genericity claim.
StatusOr<PqoResult> RunParametricDp(const Query& query,
                                    const ConstraintSet& constraints,
                                    const PqoConfig& config);

/// Parallel PQO over `num_partitions` partitions: runs each partition's
/// DP and merges the returned envelopes (master-side final prune).
StatusOr<PqoResult> ParallelParametricOptimize(const Query& query,
                                               uint64_t num_partitions,
                                               const PqoConfig& config);

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_PQO_H_
