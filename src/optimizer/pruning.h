// Copyright 2026 mpqopt authors.
//
// Pruning functions. The paper's key observation (Section 4) is that the
// whole family of DP-based optimizers — classical single-objective,
// multi-objective, parametric — differ only in the pruning function, so
// MPQ parallelizes all of them at once. We provide the two the evaluation
// uses:
//
//  * Scalar pruning: keep the single cheapest plan per table set.
//  * Approximate Pareto pruning with factor alpha (Trummer & Koch,
//    SIGMOD 2014): a candidate is discarded iff an incumbent
//    alpha-dominates it (incumbent_i <= alpha * candidate_i in every
//    metric); on insertion, incumbents weakly dominated by the candidate
//    are evicted. alpha = 1 maintains the exact Pareto frontier; larger
//    alpha trades precision for smaller frontier sets and is the knob of
//    the paper's Table 1.

#ifndef MPQOPT_OPTIMIZER_PRUNING_H_
#define MPQOPT_OPTIMIZER_PRUNING_H_

#include <vector>

#include "cost/cost_vector.h"

namespace mpqopt {

/// Inserts `item` into the plan set `set` unless some incumbent rejects
/// it (rejects(incumbent, item)); on insertion, evicts every incumbent the
/// item displaces (evicts(item, incumbent)). Returns true if the item was
/// inserted. The shape every set-keeping pruning function shares.
template <typename T, typename Rejects, typename Evicts>
bool DominanceInsert(std::vector<T>* set, const T& item,
                     const Rejects& rejects, const Evicts& evicts) {
  for (const T& incumbent : *set) {
    if (rejects(incumbent, item)) return false;
  }
  size_t w = 0;
  for (size_t r = 0; r < set->size(); ++r) {
    if (!evicts(item, (*set)[r])) {
      if (w != r) (*set)[w] = (*set)[r];
      ++w;
    }
  }
  set->resize(w);
  set->push_back(item);
  return true;
}

/// Inserts `item` into the frontier `set` under approximate Pareto
/// pruning. `cost_of` maps an item to its CostVector. Returns true if the
/// item was inserted (and dominated incumbents evicted), false if an
/// incumbent alpha-dominates it.
template <typename T, typename CostFn>
bool ParetoInsert(std::vector<T>* set, const T& item, const CostFn& cost_of,
                  double alpha) {
  const CostVector& cost = cost_of(item);
  return DominanceInsert(
      set, item,
      [&](const T& incumbent, const T&) {
        return cost_of(incumbent).AlphaDominates(cost, alpha);
      },
      // Evict incumbents the new plan weakly dominates (exact dominance,
      // so the frontier's alpha-coverage guarantee is preserved).
      [&](const T&, const T& incumbent) {
        return cost.WeaklyDominates(cost_of(incumbent));
      });
}

/// True if every vector in `reference` is alpha-covered by some vector in
/// `frontier` (used by tests to validate the formal guarantee: if a plan
/// with cost c exists, a plan with cost <= alpha * c is returned).
inline bool AlphaCovers(const std::vector<CostVector>& frontier,
                        const std::vector<CostVector>& reference,
                        double alpha) {
  for (const CostVector& ref : reference) {
    bool covered = false;
    for (const CostVector& f : frontier) {
      if (f.AlphaDominates(ref, alpha)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_PRUNING_H_
