// Copyright 2026 mpqopt authors.
//
// The three memo policies behind RunPartitionDp; the enumeration itself
// is the shared skeleton of optimizer/dp_skeleton.h.

#include "optimizer/dp.h"

#include <limits>

#include "optimizer/dp_skeleton.h"
#include "optimizer/orders.h"
#include "optimizer/pruning.h"

namespace mpqopt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Memo entry of the single-objective DP: the best plan for one admissible
/// table set, O(1) space (Theorem 4) — children are recovered through
/// left_bits at reconstruction time. The entry is its own (only) plan.
/// `terms` holds the set's join-cost terms, computed once in Begin.
struct ScalarEntry {
  double cost = kInf;
  JoinTerms terms;
  uint64_t left_bits = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};
static_assert(sizeof(ScalarEntry) == 48);

/// kTime: keep the single cheapest plan per table set.
class ScalarPolicy {
 public:
  using Entry = ScalarEntry;

  ScalarPolicy(const Query&, const DpConfig& config)
      : model_(config.objective, config.cost_options) {}

  Entry ScanEntry(int, double card) const {
    return {model_.ScanCost(card).time(), model_.Terms(card), 0,
            JoinAlgorithm::kScan};
  }
  Entry Begin(TableSet, double card) const {
    return {kInf, model_.Terms(card)};
  }
  void Combine(TableSet left, TableSet, const Entry& le, const Entry& re,
               Entry* best, int64_t* plans_costed) const {
    MPQOPT_DCHECK(le.cost < kInf && re.cost < kInf);
    const double base = le.cost + re.cost;
    for (JoinAlgorithm alg : kJoinAlgorithms) {
      const double cost =
          base + model_.LocalJoinTime(alg, le.terms, re.terms,
                                      best->terms.card);
      ++*plans_costed;
      if (cost < best->cost) {
        best->cost = cost;
        best->left_bits = left.bits();
        best->alg = alg;
      }
    }
  }
  void Finish(Entry* best) const {
    MPQOPT_CHECK(best->cost < kInf);  // every admissible set has a split
  }

  static const Entry& PlanAt(const Entry& e, uint32_t) { return e; }
  double NodeCard(const Entry& e) const { return e.terms.card; }
  CostVector NodeCost(const Entry& p) const {
    return CostVector::Scalar(p.cost);
  }
  std::vector<uint32_t> Answer(const Entry&) const { return {0}; }

 private:
  const CostModel model_;
};

/// kTimeAndBuffer: keep an alpha-approximate Pareto frontier per set.
class ParetoPolicy : public FrontierMemo<JoinTerms, PlanRef<CostVector>> {
 public:
  ParetoPolicy(const Query&, const DpConfig& config)
      : model_(config.objective, config.cost_options), alpha_(config.alpha) {}

  Entry ScanEntry(int, double card) {
    return Scans(model_.Terms(card), {{model_.ScanCost(card)}});
  }
  Entry Begin(TableSet u, double card) {
    return FrontierMemo::Begin(u, model_.Terms(card));
  }
  void Combine(TableSet left, TableSet, const Entry& le, const Entry& re,
               Entry* entry, int64_t* plans_costed) {
    const auto cost_of = [](const Plan& p) -> const CostVector& {
      return p.cost;
    };
    for (uint32_t li = 0; li < le.num_plans; ++li) {
      for (uint32_t ri = 0; ri < re.num_plans; ++ri) {
        for (JoinAlgorithm alg : kJoinAlgorithms) {
          ++*plans_costed;
          const Plan cand = {
              model_.JoinCost(alg, le.plans[li].cost, re.plans[ri].cost,
                              le.card, re.card, entry->card.card),
              left.bits(), li, ri, alg};
          ParetoInsert(&scratch_, cand, cost_of, alpha_);
        }
      }
    }
  }
  double NodeCard(const Entry& e) const { return e.card.card; }
  CostVector NodeCost(const Plan& p) const { return p.cost; }

 private:
  const CostModel model_;
  const double alpha_;
};

/// One kept plan of a (table set, order class) memo slot.
struct IoPlan {
  double cost = kInf;
  uint64_t left_bits = 0;
  uint32_t left_idx = 0;
  uint32_t right_idx = 0;
  /// Order class of the output (kNoOrder if unordered).
  int16_t order = kNoOrder;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

/// Order-aware pruning relation: plan `a` covers plan `b` iff it is at
/// most as expensive AND provides at least b's order (any order subsumes
/// "no order"). A candidate that an incumbent covers is useless; keeping
/// it evicts the incumbents it covers.
constexpr auto kCovers = [](const IoPlan& a, const IoPlan& b) {
  return a.cost <= b.cost && (b.order == kNoOrder || a.order == b.order);
};

/// Interesting orders (paper Section 5.4 extension; see orders.h): keep
/// the best plan per (table set, order class) so that sort-merge joins
/// can exploit orders produced upstream. An SMJ whose input is already
/// sorted in the join's attribute class skips that input's sort term, and
/// its output is sorted in that class; block nested loop preserves the
/// outer order; hash joins destroy order; scans come in heap (unordered)
/// and sorted variants. The partitioning is orthogonal to the order
/// dimension: the same constraints restrict the same table sets.
class InterestingOrderPolicy : public FrontierMemo<JoinTerms, IoPlan> {
 public:
  InterestingOrderPolicy(const Query& query, const DpConfig& config)
      : query_(query),
        model_(config.objective, config.cost_options),
        orders_(query) {}

  Entry ScanEntry(int t, double card) {
    // Heap scan: unordered; plus one order-producing scan per distinct
    // attribute class.
    std::vector<IoPlan> scans = {{model_.ScanCost(card).time()}};
    const int num_attrs =
        static_cast<int>(query_.table(t).attribute_domains.size());
    for (int a = 0; a < num_attrs; ++a) {
      const auto order = static_cast<int16_t>(orders_.ClassOf(t, a));
      DominanceInsert(&scans, {model_.SortedScanTime(card), 0, 0, 0, order},
                      kCovers, kCovers);
    }
    return Scans(model_.Terms(card), std::move(scans));
  }
  Entry Begin(TableSet u, double card) {
    return FrontierMemo::Begin(u, model_.Terms(card));
  }
  void Combine(TableSet left, TableSet right, const Entry& le,
               const Entry& re, Entry* entry, int64_t* plans_costed) {
    orders_.MergeClassesForCut(left, right, &merge_classes_);
    const JoinTerms& l = le.card;
    const JoinTerms& r = re.card;
    const double out = entry->card.card;
    for (uint32_t li = 0; li < le.num_plans; ++li) {
      for (uint32_t ri = 0; ri < re.num_plans; ++ri) {
        const IoPlan& lp = le.plans[li];
        const IoPlan& rp = re.plans[ri];
        const double base = lp.cost + rp.cost;
        const auto offer = [&](JoinAlgorithm alg, double cost, int order) {
          ++*plans_costed;
          DominanceInsert(&scratch_,
                          {cost, left.bits(), li, ri,
                           static_cast<int16_t>(order), alg},
                          kCovers, kCovers);
        };
        // Block nested loop: preserves the outer (left) order.
        offer(JoinAlgorithm::kBlockNestedLoop,
              base + model_.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop,
                                          l, r, out),
              lp.order);
        // Hash join: destroys order.
        offer(JoinAlgorithm::kHashJoin,
              base + model_.LocalJoinTime(JoinAlgorithm::kHashJoin, l, r,
                                          out),
              kNoOrder);
        // Sort-merge join: one variant per equality class crossing the
        // cut; inputs already sorted in that class skip their sort.
        for (int cls : merge_classes_) {
          double cost = base + model_.MergePhaseTime(l.card, r.card, out);
          if (lp.order != cls) cost += l.sort;
          if (rp.order != cls) cost += r.sort;
          offer(JoinAlgorithm::kSortMergeJoin, cost, cls);
        }
      }
    }
  }
  double NodeCard(const Entry& e) const { return e.card.card; }
  CostVector NodeCost(const IoPlan& p) const {
    return CostVector::Scalar(p.cost);
  }
  /// The cheapest plan of the full query, whatever its order.
  std::vector<uint32_t> Answer(const Entry& e) const {
    uint32_t best = 0;
    for (uint32_t i = 1; i < e.num_plans; ++i) {
      if (e.plans[i].cost < e.plans[best].cost) best = i;
    }
    return {best};
  }

 private:
  const Query& query_;
  const CostModel model_;
  const OrderClasses orders_;
  /// The merge classes of the split being costed, reused across splits.
  std::vector<int> merge_classes_;
};

/// Runs Policy's DP and materializes the plans its Answer picks.
template <class Policy>
StatusOr<DpResult> RunWith(const Query& query,
                           const ConstraintSet& constraints,
                           const DpConfig& config) {
  DpResult result;
  const Status status = RunDp<Policy>(
      query, constraints, config, &result.stats,
      [&](const DpSkeleton<Policy>& dp, TableSet all) {
        for (uint32_t i : dp.policy().Answer(dp.EntryOf(all))) {
          result.best.push_back(dp.Build(all, i, &result.arena));
        }
      });
  if (!status.ok()) return status;
  return result;
}

}  // namespace

StatusOr<DpResult> RunPartitionDp(const Query& query,
                                  const ConstraintSet& constraints,
                                  const DpConfig& config) {
  if (config.interesting_orders) {
    if (config.objective != Objective::kTime) {
      return Status::Unimplemented(
          "interesting orders are supported for single-objective "
          "optimization only");
    }
    return RunWith<InterestingOrderPolicy>(query, constraints, config);
  }
  if (config.objective == Objective::kTime) {
    return RunWith<ScalarPolicy>(query, constraints, config);
  }
  if (config.alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1");
  }
  return RunWith<ParetoPolicy>(query, constraints, config);
}

StatusOr<DpResult> OptimizeSerial(const Query& query, const DpConfig& config) {
  return RunPartitionDp(query, ConstraintSet::None(config.space), config);
}

}  // namespace mpqopt
