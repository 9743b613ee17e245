// Copyright 2026 mpqopt authors.
//
// PartitionIndex: the materialization-free equivalent of the paper's
// AdmJoinResults (Algorithm 4).
//
// Constraints partition the query tables into disjoint GROUPS (pairs for
// linear, triples for bushy, plus leftover single tables when n is not a
// multiple of the group width). The admissible join results are exactly
// the Cartesian product, over groups, of the admissible local subsets of
// each group. This product structure gives every admissible set a dense
// mixed-radix RANK computed in O(#groups) with no hash table:
//
//     rank(S) = sum_g digit_g((S >> offset_g) & mask_g) * stride_g
//
// where digit_g maps the (at most 8) local bit patterns of group g to
// 0..num_digits_g-1, or rejects inadmissible patterns. The DP memo is then
// a flat vector indexed by rank — this is what makes the per-worker space
// bound of Theorem 4 (O(2^n (3/4)^l) resp. O(2^n (7/8)^l)) tight in
// practice, and lookups O(1)-ish.
//
// The same structure drives:
//  * enumeration of admissible sets in ascending cardinality (the DP's
//    outer loop, Algorithm 2),
//  * the constrained split enumeration for bushy plans that only generates
//    admissible operand pairs (Algorithm 5, the 21/27 factor),
//  * the inner-operand admissibility test for linear plans.

#ifndef MPQOPT_PARTITION_PARTITION_INDEX_H_
#define MPQOPT_PARTITION_PARTITION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/table_set.h"
#include "partition/constraints.h"

namespace mpqopt {

/// Index over the admissible join results of one plan-space partition.
class PartitionIndex {
 public:
  /// Builds the index for `num_tables` query tables under `constraints`.
  /// With an empty constraint set this indexes the full power set
  /// (the m = 1 / serial case).
  PartitionIndex(int num_tables, const ConstraintSet& constraints);

  int num_tables() const { return num_tables_; }
  PlanSpace space() const { return space_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Number of admissible table subsets, including the empty set and all
  /// admissible singletons. This is the memo size of the worker DP — the
  /// quantity the paper plots as "Memory (relations)".
  int64_t size() const { return size_; }

  /// Number of admissible subsets with exactly k tables.
  int64_t CountSetsOfCard(int k) const;

  /// Dense rank of an admissible set in [0, size()), or -1 when `s`
  /// violates a constraint.
  int64_t Rank(TableSet s) const {
    int64_t rank = 0;
    for (const Group& g : groups_) {
      const uint8_t pattern = LocalPattern(s, g);
      const int8_t digit = g.digit_of_pattern[pattern];
      if (digit < 0) return -1;
      rank += static_cast<int64_t>(digit) * g.stride;
    }
    return rank;
  }

  bool Contains(TableSet s) const { return Rank(s) >= 0; }

  /// Invokes fn(TableSet set, int64_t rank) for every admissible set with
  /// exactly `k` tables, in mixed-radix order.
  template <typename Fn>
  void ForEachSetOfCard(int k, Fn&& fn) const {
    EnumerateRec(0, TableSet::Empty(), 0, k, fn);
  }

  /// Invokes fn(TableSet set, int64_t rank) for every admissible set
  /// (all cardinalities, including the empty set).
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (int k = 0; k <= num_tables_; ++k) {
      EnumerateRec(0, TableSet::Empty(), 0, k, fn);
    }
  }

  /// Linear DP: true if `table` may serve as the inner (last-joined)
  /// operand of join result `u`, i.e. no constraint (table ≺ v) with
  /// v ∈ u exists (Algorithm 5, linear variant).
  bool InnerAllowed(int table, TableSet u) const {
    const int successor = must_precede_[table];
    return successor < 0 || !u.Contains(successor);
  }

  /// Bushy DP: invokes fn(TableSet left, int64_t left_rank,
  /// int64_t right_rank) for every admissible ordered split of `u` into
  /// (left, u \ left) — both operands admissible, excluding the trivial
  /// splits left = {} and left = u. Only admissible splits are generated,
  /// never filtered (Algorithm 5, bushy variant); ranks are accumulated
  /// digit-by-digit so no Rank() call is needed in the DP's hot loop.
  ///
  /// The splits come in mixed-radix order over the groups' local split
  /// lists (group 0 the slowest digit), walked without recursion: the
  /// trailing groups' local splits are first expanded into one buffer of
  /// at most kMaxTailSplits (left bits, rank deltas); an odometer then
  /// walks the leading groups, and each leading prefix runs one flat
  /// loop over the buffer.
  template <typename Fn>
  void ForEachSplit(TableSet u, Fn&& fn) const {
    // Trailing groups [lead, G), expanded back to front: prepending group
    // g makes it the slower digit of the buffer. Entry i * n + j of the
    // new buffer is local split i of g plus old entry j; writing i in
    // descending order leaves every old entry intact until i = 0 adds to
    // it in place.
    SplitDelta tail[kMaxTailSplits];
    tail[0] = SplitDelta();
    size_t n = 1;
    int lead = num_groups();
    for (; lead > 0; --lead) {
      const Group& g = groups_[static_cast<size_t>(lead - 1)];
      const uint8_t pattern = LocalPattern(u, g);
      const size_t count = g.split_count[pattern];
      if (n * count > kMaxTailSplits) break;
      for (size_t i = count; i-- > 0;) {
        const SplitDelta d = LocalSplit(g, pattern, i);
        SplitDelta* out = tail + i * n;
        for (size_t j = 0; j < n; ++j) out[j] = tail[j].Plus(d);
      }
      n *= count;
    }
    // Leading groups [0, lead): prefix[k] sums the current local splits
    // of groups [0, k); digit[k] is group k's position in its split list.
    SplitDelta prefix[kMaxTables + 1];
    uint8_t digit[kMaxTables];
    prefix[0] = SplitDelta();
    int k = 0;
    for (;;) {
      for (; k < lead; ++k) {
        const Group& g = groups_[static_cast<size_t>(k)];
        digit[k] = 0;
        prefix[k + 1] = prefix[k].Plus(LocalSplit(g, LocalPattern(u, g), 0));
      }
      const SplitDelta& p = prefix[lead];
      for (size_t j = 0; j < n; ++j) {
        const TableSet left(p.left_bits | tail[j].left_bits);
        if (left.IsEmpty() || left == u) continue;
        fn(left, p.left_rank + tail[j].left_rank,
           p.right_rank + tail[j].right_rank);
      }
      // Advance the odometer: bump the innermost leading group that has
      // splits left, then reset the ones after it (at the top of the loop).
      for (;;) {
        if (k == 0) return;
        --k;
        const Group& g = groups_[static_cast<size_t>(k)];
        const uint8_t pattern = LocalPattern(u, g);
        if (++digit[k] < g.split_count[pattern]) {
          prefix[k + 1] = prefix[k].Plus(LocalSplit(g, pattern, digit[k]));
          ++k;
          break;
        }
      }
    }
  }

  /// O(1) rank update for the linear DP: rank of (u without table t),
  /// given rank(u). Requires u to be admissible, t ∈ u, and u \ {t}
  /// admissible (guaranteed when t passes InnerAllowed, see
  /// Theorem 2's argument).
  int64_t RankWithout(TableSet u, int64_t rank_u, int table) const {
    const GroupOfTable& gt = group_of_table_[table];
    const Group& g = groups_[gt.group_index];
    const uint8_t pattern = LocalPattern(u, g);
    const uint8_t reduced =
        pattern & static_cast<uint8_t>(~(1u << (table - g.offset)));
    const int8_t d_full = g.digit_of_pattern[pattern];
    const int8_t d_red = g.digit_of_pattern[reduced];
    MPQOPT_DCHECK(d_full >= 0 && d_red >= 0);
    return rank_u - static_cast<int64_t>(d_full - d_red) * g.stride;
  }

  /// Total number of admissible ordered splits summed over all admissible
  /// join results of cardinality >= 2, excluding trivial splits. Used by
  /// the complexity ablation (Theorem 7's 3^n (21/27)^l bound).
  int64_t CountAdmissibleSplits() const;

 private:
  struct Group {
    int offset = 0;  ///< index of the first table in the group
    int width = 0;   ///< 1, 2, or 3 tables
    int num_digits = 0;
    int64_t stride = 0;
    /// pattern (local bits) -> digit, or -1 if inadmissible.
    int8_t digit_of_pattern[8];
    /// digit -> pattern (local bits).
    uint8_t pattern_of_digit[8];
    uint8_t popcount_of_digit[8];
    /// split_list[p] = sub-patterns l of p such that both l and p\l are
    /// admissible patterns; split_count[p] is its length.
    uint8_t split_list[8][8];
    uint8_t split_count[8];
    /// Maximum popcount over admissible digits (for enumeration pruning).
    int max_popcount = 0;
  };

  /// Fills digit/pattern/split tables of `g`; `excluded_pattern` is the
  /// local bit pattern a constraint forbids, or 0xFF for none.
  static void BuildGroupTables(Group* g, uint8_t excluded_pattern);

  static uint8_t LocalPattern(TableSet s, const Group& g) {
    return static_cast<uint8_t>((s.bits() >> g.offset) &
                                ((uint64_t{1} << g.width) - 1));
  }

  template <typename Fn>
  void EnumerateRec(size_t group_idx, TableSet prefix, int64_t rank,
                    int remaining, Fn&& fn) const {
    if (group_idx == groups_.size()) {
      if (remaining == 0) fn(prefix, rank);
      return;
    }
    // Prune: the remaining groups cannot supply `remaining` more tables.
    if (remaining > suffix_max_popcount_[group_idx]) return;
    const Group& g = groups_[group_idx];
    for (int d = 0; d < g.num_digits; ++d) {
      const int pop = g.popcount_of_digit[d];
      if (pop > remaining) continue;
      const TableSet bits(static_cast<uint64_t>(g.pattern_of_digit[d])
                          << g.offset);
      EnumerateRec(group_idx + 1, prefix.Union(bits), rank + d * g.stride,
                   remaining - pop, fn);
    }
  }

  /// Upper bound of ForEachSplit's trailing-split buffer.
  static constexpr size_t kMaxTailSplits = 256;

  /// One operand pair's contribution, summed over groups: the left
  /// operand's bits and both operands' rank digits times their strides.
  /// No member initializers, so ForEachSplit's buffers start
  /// uninitialized; SplitDelta() is the zero delta.
  struct SplitDelta {
    uint64_t left_bits;
    int64_t left_rank;
    int64_t right_rank;

    SplitDelta Plus(const SplitDelta& o) const {
      return {left_bits | o.left_bits, left_rank + o.left_rank,
              right_rank + o.right_rank};
    }
  };

  /// Local split `i` of `pattern` in group `g`, as a SplitDelta.
  static SplitDelta LocalSplit(const Group& g, uint8_t pattern, size_t i) {
    const uint8_t l = g.split_list[pattern][i];
    const uint8_t r = static_cast<uint8_t>(pattern & ~l);
    return {static_cast<uint64_t>(l) << g.offset,
            g.digit_of_pattern[l] * g.stride,
            g.digit_of_pattern[r] * g.stride};
  }

  struct GroupOfTable {
    int group_index = 0;
  };

  int num_tables_;
  PlanSpace space_;
  std::vector<Group> groups_;
  int64_t size_;
  /// must_precede_[t] = v if a linear constraint (t ≺ v) exists, else -1.
  int must_precede_[kMaxTables];
  /// Which group each table belongs to (for RankWithout).
  GroupOfTable group_of_table_[kMaxTables];
  /// suffix_max_popcount_[g] = sum of max_popcount over groups g..end.
  std::vector<int> suffix_max_popcount_;
  /// count_by_card_[k] = number of admissible sets with k tables.
  std::vector<int64_t> count_by_card_;
};

}  // namespace mpqopt

#endif  // MPQOPT_PARTITION_PARTITION_INDEX_H_
