// Copyright 2026 mpqopt authors.
//
// The one enumeration skeleton behind every DP variant. Serial,
// multi-objective, order-aware and parametric DP share the classical
// scheme and differ only in the pruning function (paper Sections 2 and
// 4), which is why one partitioning parallelizes all of them. DpSkeleton
// owns what they share: the flat rank-indexed memo, the per-table scan
// entries, the ascending-cardinality loop of Algorithm 2, the linear or
// bushy split source of Algorithm 5 (both yield only admissible operands,
// via PartitionIndex), the splits_tried count and plan reconstruction;
// RunDp adds the checks and timing around a run.
//
// A memo policy supplies only what differs: its Entry layout and scan
// entries (ScanEntry), an entry's cardinality (Begin), Combine, which
// costs one split's joins and prunes them into the entry, Finish, and how
// a kept plan becomes a PlanNode (PlanAt, NodeCard, NodeCost) and which
// plans answer the query (Answer). The policy is a template parameter, so
// every per-split call is resolved statically and inlined. Scalar, Pareto
// and InterestingOrder live in dp.cc, Parametric in pqo.cc.

#ifndef MPQOPT_OPTIMIZER_DP_SKELETON_H_
#define MPQOPT_OPTIMIZER_DP_SKELETON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "catalog/query.h"
#include "common/arena.h"
#include "common/status.h"
#include "cost/cardinality.h"
#include "optimizer/dp.h"
#include "partition/partition_index.h"
#include "plan/plan.h"

namespace mpqopt {

/// One kept plan of a multi-plan memo entry. left_idx and right_idx
/// select the operand plans within the children's entries.
template <class Cost>
struct PlanRef {
  Cost cost;
  uint64_t left_bits = 0;
  uint32_t left_idx = 0;
  uint32_t right_idx = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

/// Memo storage of the policies that keep several plans per table set.
/// A finished entry is an immutable arena array, so the memo does one
/// bump allocation per admissible set instead of one heap vector per set;
/// the plan set under construction lives in one scratch vector reused
/// across sets.
template <class Card, class PlanT>
class FrontierMemo {
 public:
  using Plan = PlanT;
  struct Entry {
    Card card{};
    const Plan* plans = nullptr;
    uint32_t num_plans = 0;
  };

  /// An entry with no plans yet; candidates go to the scratch set.
  Entry Begin(TableSet, Card card) {
    scratch_.clear();
    return {card};
  }
  /// Moves the scratch plan set into an immutable arena array in `entry`.
  void Finish(Entry* entry) {
    static_assert(std::is_trivially_copyable_v<Plan>);
    MPQOPT_CHECK(!scratch_.empty());
    Plan* plans = arena_.AllocateArray<Plan>(scratch_.size());
    std::memcpy(plans, scratch_.data(), scratch_.size() * sizeof(Plan));
    entry->plans = plans;
    entry->num_plans = static_cast<uint32_t>(scratch_.size());
  }
  /// The finished entry of a single table with the given scan plans.
  Entry Scans(Card card, std::vector<Plan> scans) {
    Entry e = Begin(TableSet(), card);
    scratch_ = std::move(scans);
    Finish(&e);
    return e;
  }

  static const Plan& PlanAt(const Entry& e, uint32_t idx) {
    return e.plans[idx];
  }
  double NodeCard(const Entry& e) const { return e.card; }
  std::vector<uint32_t> Answer(const Entry& e) const {
    std::vector<uint32_t> all(e.num_plans);
    for (uint32_t i = 0; i < e.num_plans; ++i) all[i] = i;
    return all;
  }

 protected:
  std::vector<Plan> scratch_;

 private:
  Arena arena_;
};

template <class Policy>
class DpSkeleton {
 public:
  using Entry = typename Policy::Entry;

  template <class Config>
  DpSkeleton(const PartitionIndex& index, const Query& query,
             const Config& config)
      : index_(index),
        query_(query),
        estimator_(query),
        policy_(query, config) {}

  const Policy& policy() const { return policy_; }

  /// Fills the memo for every admissible set in ascending cardinality.
  void Run(DpStats* stats) {
    const int n = index_.num_tables();
    memo_.assign(static_cast<size_t>(index_.size()), Entry());
    // Admissible singletons start with their scan plans (inadmissible
    // singletons are provably never used as operands).
    for (int t = 0; t < n; ++t) {
      scans_.push_back(policy_.ScanEntry(t, query_.table(t).cardinality));
      const int64_t rank = index_.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scans_.back();
    }
    const bool linear = index_.space() == PlanSpace::kLinear;
    for (int k = 2; k <= n; ++k) {
      index_.ForEachSetOfCard(k, [&](TableSet u, int64_t rank) {
        Entry entry = policy_.Begin(u, estimator_.Cardinality(u));
        const auto split = [&](TableSet left, TableSet right,
                               const Entry& le, const Entry& re) {
          ++stats->splits_tried;
          policy_.Combine(left, right, le, re, &entry, &stats->plans_costed);
        };
        if (linear) {
          for (int t : u) {
            if (!index_.InnerAllowed(t, u)) continue;
            split(u.Without(t), TableSet::Single(t),
                  memo_[static_cast<size_t>(index_.RankWithout(u, rank, t))],
                  scans_[t]);
          }
        } else {
          index_.ForEachSplit(
              u, [&](TableSet left, int64_t lrank, int64_t rrank) {
                split(left, u.Minus(left), memo_[static_cast<size_t>(lrank)],
                      memo_[static_cast<size_t>(rrank)]);
              });
        }
        policy_.Finish(&entry);
        memo_[static_cast<size_t>(rank)] = entry;
      });
    }
  }

  const Entry& EntryOf(TableSet s) const {
    if (s.Count() == 1) return scans_[s.Lowest()];
    const int64_t rank = index_.Rank(s);
    MPQOPT_CHECK_GE(rank, 0);
    return memo_[static_cast<size_t>(rank)];
  }

  /// Materializes kept plan `idx` of `s` into `arena`.
  PlanId Build(TableSet s, uint32_t idx, PlanArena* arena) const {
    const Entry& e = EntryOf(s);
    const auto& p = Policy::PlanAt(e, idx);
    if (s.Count() == 1) {
      return arena->MakeScan(s.Lowest(), policy_.NodeCard(e),
                             policy_.NodeCost(p));
    }
    uint32_t left_idx = 0;
    uint32_t right_idx = 0;
    if constexpr (requires { p.left_idx; }) {
      left_idx = p.left_idx;
      right_idx = p.right_idx;
    }
    const TableSet left(p.left_bits);
    const PlanId lid = Build(left, left_idx, arena);
    const PlanId rid = Build(s.Minus(left), right_idx, arena);
    return arena->MakeJoin(p.alg, lid, rid, policy_.NodeCard(e),
                           policy_.NodeCost(p));
  }

 private:
  const PartitionIndex& index_;
  const Query& query_;
  const CardinalityEstimator estimator_;
  Policy policy_;
  std::vector<Entry> memo_;
  std::vector<Entry> scans_;
};

/// Runs one DP over the partition `constraints` defines: the checks every
/// variant shares, then Policy(query, config)'s DP, then
/// emit(dp, all_tables) to materialize the answer. `stats` gets the
/// admissible-set count, the enumeration counters and the time of the DP
/// plus materialization.
template <class Policy, class Config, class Emit>
Status RunDp(const Query& query, const ConstraintSet& constraints,
             const Config& config, DpStats* stats, Emit&& emit) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  if (constraints.space() != config.space) {
    return Status::InvalidArgument("constraint set is for the other space");
  }
  const PartitionIndex index(query.num_tables(), constraints);
  if (index.size() > config.max_memo_entries) {
    return Status::OutOfRange(
        "plan space partition too large; increase the number of workers");
  }
  stats->admissible_sets = index.size();
  const auto start = std::chrono::steady_clock::now();
  DpSkeleton<Policy> dp(index, query, config);
  dp.Run(stats);
  emit(dp, query.all_tables());
  stats->seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return Status::OK();
}

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_DP_SKELETON_H_
