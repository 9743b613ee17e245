// Copyright 2026 mpqopt authors.
//
// Cost model with the standard textbook formulas the paper's evaluation
// uses ("standard cost formulas [Steinbrunn et al.] ... for standard join
// operators such as block-nested loop join, hash join, and sort-merge
// join", Section 6.1). Costs are abstract work units proportional to tuple
// accesses.
//
// Time metric (always metric 0):
//   Scan(R):           |R|
//   BNL(L, R):         |L| + ceil(|L| / B) * |R|   (B = block size in rows)
//   Hash(L, R):        c_h * (|L| + |R|)           (build + probe)
//   SortMerge(L, R):   |L| log2 |L| + |R| log2 |R| + |L| + |R|
// plus |out| for producing the join result; plan time is the sum over all
// operators.
//
// Buffer metric (metric 1 in kTimeAndBuffer mode, following the
// multi-objective query optimization literature the paper cites):
//   Scan: 1 block; BNL: B rows; Hash: |L| rows (build table);
//   SortMerge: |L| + |R| rows (sort workspace).
// Plan buffer is the maximum over operator workspaces — operator memory is
// reused down the pipeline, the peak governs admission. Both combination
// rules (sum for time, max for buffer) are monotone, so the principle of
// optimality holds for Pareto-set DP.

#ifndef MPQOPT_COST_COST_MODEL_H_
#define MPQOPT_COST_COST_MODEL_H_

#include <cmath>
#include <cstdint>

#include "cost/cost_vector.h"

namespace mpqopt {

/// Physical operator implementations considered by the optimizer.
enum class JoinAlgorithm : uint8_t {
  kScan = 0,           ///< leaf table scan (not a join)
  kBlockNestedLoop = 1,
  kHashJoin = 2,
  kSortMergeJoin = 3,
};

/// Returns a short display name, e.g. "HJ".
const char* JoinAlgorithmName(JoinAlgorithm alg);

/// Number of join implementations (excluding kScan).
inline constexpr int kNumJoinAlgorithms = 3;

/// The list of join implementations, for enumeration loops.
inline constexpr JoinAlgorithm kJoinAlgorithms[kNumJoinAlgorithms] = {
    JoinAlgorithm::kBlockNestedLoop, JoinAlgorithm::kHashJoin,
    JoinAlgorithm::kSortMergeJoin};

/// Which cost metrics the optimizer tracks.
enum class Objective : uint8_t {
  kTime = 0,           ///< classical single-objective optimization
  kTimeAndBuffer = 1,  ///< multi-objective: (execution time, buffer space)
};

/// Tuning constants of the cost formulas.
struct CostModelOptions {
  double block_size = 100.0;       ///< rows per BNL block
  double hash_constant = 1.2;      ///< per-row build+probe factor
  double output_cost_factor = 1.0; ///< cost per produced output row
  /// Per-row cost factor of an order-producing (clustered-index-style)
  /// scan, relative to a plain heap scan. Interesting-orders mode only.
  double sorted_scan_factor = 1.2;
};

/// The terms of the local join-time formulas that depend on one input
/// alone. They are fixed per table set, so the DP computes them once per
/// memo entry and costs each split with adds and multiplies only.
struct JoinTerms {
  double card = 0;    ///< |X|, rows
  double sort = 0;    ///< |X| log2 |X| (|X| when |X| <= 2): SortTime
  double blocks = 0;  ///< ceil(|X| / B): BNL blocks when X is the outer
};

/// Stateless cost model; cheap to copy into each worker.
class CostModel {
 public:
  explicit CostModel(Objective objective,
                     CostModelOptions options = CostModelOptions())
      : objective_(objective), options_(options) {}

  Objective objective() const { return objective_; }
  int num_metrics() const {
    return objective_ == Objective::kTime ? 1 : 2;
  }

  /// Cost of scanning a base table with `card` rows.
  CostVector ScanCost(double card) const;

  /// The per-input terms of an input of `card` rows.
  JoinTerms Terms(double card) const {
    return {card, SortTime(card), std::ceil(card / options_.block_size)};
  }

  /// Operator-local work (time metric only) of joining inputs with terms
  /// `l` and `r` into `output_card` rows: the one copy of the time
  /// formulas, inlined into the DP's per-split loop.
  double LocalJoinTime(JoinAlgorithm alg, const JoinTerms& l,
                       const JoinTerms& r, double output_card) const {
    double work = 0;
    switch (alg) {
      case JoinAlgorithm::kBlockNestedLoop:
        work = l.card + l.blocks * r.card;
        break;
      case JoinAlgorithm::kHashJoin:
        work = options_.hash_constant * (l.card + r.card);
        break;
      case JoinAlgorithm::kSortMergeJoin:
        work = l.sort + r.sort + l.card + r.card;
        break;
      case JoinAlgorithm::kScan:
        MPQOPT_CHECK(false);  // scans are costed via ScanCost()
    }
    return work + options_.output_cost_factor * output_card;
  }

  /// LocalJoinTime from cardinalities.
  double LocalJoinTime(JoinAlgorithm alg, double left_card, double right_card,
                       double output_card) const {
    return LocalJoinTime(alg, Terms(left_card), Terms(right_card),
                         output_card);
  }

  /// Full plan cost of joining two subplans with the given algorithm.
  /// `left_cost`/`right_cost` are the subplan cost vectors; `l` and `r`
  /// the inputs' terms, `output_card` the estimated output rows.
  CostVector JoinCost(JoinAlgorithm alg, const CostVector& left_cost,
                      const CostVector& right_cost, const JoinTerms& l,
                      const JoinTerms& r, double output_card) const {
    const double time = left_cost.time() + right_cost.time() +
                        LocalJoinTime(alg, l, r, output_card);
    if (objective_ == Objective::kTime) return CostVector::Scalar(time);
    double local_buffer = 0;
    switch (alg) {
      case JoinAlgorithm::kBlockNestedLoop:
        local_buffer = options_.block_size;
        break;
      case JoinAlgorithm::kHashJoin:
        local_buffer = l.card;  // build-side hash table
        break;
      case JoinAlgorithm::kSortMergeJoin:
        local_buffer = l.card + r.card;  // sort workspace
        break;
      case JoinAlgorithm::kScan:
        MPQOPT_CHECK(false);
    }
    double buffer =
        left_cost[1] > right_cost[1] ? left_cost[1] : right_cost[1];
    if (local_buffer > buffer) buffer = local_buffer;
    return CostVector::TimeBuffer(time, buffer);
  }

  /// JoinCost from cardinalities.
  CostVector JoinCost(JoinAlgorithm alg, const CostVector& left_cost,
                      const CostVector& right_cost, double left_card,
                      double right_card, double output_card) const {
    return JoinCost(alg, left_cost, right_cost, Terms(left_card),
                    Terms(right_card), output_card);
  }

  // --- Interesting-orders mode (see optimizer/orders.h) ---------------

  /// Cost of explicitly sorting `card` rows (n log2 n).
  double SortTime(double card) const {
    return card * (card > 2 ? std::log2(card) : 1.0);
  }

  /// Cost of an order-producing scan of `card` rows.
  double SortedScanTime(double card) const {
    return options_.sorted_scan_factor * card;
  }

  /// Merge phase of a sort-merge join on presorted inputs (no sort term).
  double MergePhaseTime(double left_card, double right_card,
                        double output_card) const {
    return left_card + right_card + options_.output_cost_factor * output_card;
  }

 private:
  Objective objective_;
  CostModelOptions options_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COST_COST_MODEL_H_
