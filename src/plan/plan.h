// Copyright 2026 mpqopt authors.
//
// Query plan representation (paper Section 3). Plans are binary trees:
// Scan(q) leaves and Join(left, right) inner nodes where `left` is the
// outer and `right` the inner operand. Left-deep plans are the subset in
// which every right operand is a scan.
//
// Plans are arena-allocated: a PlanId is an index into a PlanArena and a
// DP plan costs O(1) memo space (two child ids + operator + cost), which is
// what makes Theorem 4's space bound hold. Arenas are per-worker — MPQ
// workers never share plan memory.

#ifndef MPQOPT_PLAN_PLAN_H_
#define MPQOPT_PLAN_PLAN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/table_set.h"
#include "cost/cost_model.h"
#include "cost/cost_vector.h"

namespace mpqopt {

/// Index of a plan node inside a PlanArena.
using PlanId = int32_t;

/// Sentinel for "no plan".
inline constexpr PlanId kInvalidPlanId = -1;

/// One operator node of a plan tree.
struct PlanNode {
  /// Tables covered by this subtree.
  TableSet tables;
  /// Children (kInvalidPlanId for scans).
  PlanId left = kInvalidPlanId;
  PlanId right = kInvalidPlanId;
  /// kScan for leaves, a join implementation otherwise.
  JoinAlgorithm algorithm = JoinAlgorithm::kScan;
  /// For scans: the scanned table index. Unused for joins.
  int32_t table = -1;
  /// Estimated output rows.
  double cardinality = 0;
  /// Cumulative plan cost of this subtree.
  CostVector cost;

  bool IsScan() const { return algorithm == JoinAlgorithm::kScan; }
};

/// Bump allocator for plan nodes. Node ids are stable; nodes are never
/// freed individually (a worker drops the whole arena when it finishes).
///
/// Nodes live in geometrically growing chunks (8, 16, 32, ... nodes)
/// carved out of a common/arena.h bump arena, so appending never moves
/// existing nodes (references handed out by node() stay valid across
/// growth) and the slack stays within the 2x a vector's capacity policy
/// allowed. Deep copy is supported, so results holding an arena copy
/// by value.
class PlanArena {
 public:
  PlanArena() = default;

  PlanArena(const PlanArena& other) { CopyFrom(other); }
  PlanArena& operator=(const PlanArena& other) {
    if (this != &other) {
      Clear();
      CopyFrom(other);
    }
    return *this;
  }

  PlanArena(PlanArena&& other) noexcept
      : arena_(std::move(other.arena_)),
        chunks_(std::move(other.chunks_)),
        size_(other.size_) {
    other.chunks_.clear();
    other.size_ = 0;
  }
  PlanArena& operator=(PlanArena&& other) noexcept {
    if (this != &other) {
      arena_ = std::move(other.arena_);
      chunks_ = std::move(other.chunks_);
      other.chunks_.clear();
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  /// Creates a scan leaf for `table`.
  PlanId MakeScan(int table, double cardinality, const CostVector& cost) {
    PlanNode node;
    node.tables = TableSet::Single(table);
    node.algorithm = JoinAlgorithm::kScan;
    node.table = table;
    node.cardinality = cardinality;
    node.cost = cost;
    return Append(node);
  }

  /// Creates a join of two existing nodes.
  PlanId MakeJoin(JoinAlgorithm alg, PlanId left, PlanId right,
                  double cardinality, const CostVector& cost) {
    MPQOPT_DCHECK(alg != JoinAlgorithm::kScan);
    MPQOPT_DCHECK(left >= 0 && left < static_cast<PlanId>(size_));
    MPQOPT_DCHECK(right >= 0 && right < static_cast<PlanId>(size_));
    PlanNode node;
    node.tables = this->node(left).tables.Union(this->node(right).tables);
    MPQOPT_DCHECK(!this->node(left).tables.Intersects(this->node(right).tables));
    node.left = left;
    node.right = right;
    node.algorithm = alg;
    node.cardinality = cardinality;
    node.cost = cost;
    return Append(node);
  }

  const PlanNode& node(PlanId id) const {
    MPQOPT_DCHECK(id >= 0 && id < static_cast<PlanId>(size_));
    const size_t i = static_cast<size_t>(id);
    return chunks_[ChunkOf(i)][i - ChunkBase(ChunkOf(i))];
  }

  size_t size() const { return size_; }

  /// Approximate resident bytes, for memory accounting (counts arena
  /// slack, like the capacity of a vector).
  size_t MemoryBytes() const {
    return arena_.ApproxBytes() + chunks_.capacity() * sizeof(PlanNode*);
  }

  void Reserve(size_t n) {
    // Size the arena for every chunk about to be added in one shot —
    // the decode hot path calls this with the wire-derived node bound,
    // and one malloc beats the block-doubling chain.
    size_t chunk_nodes = 0;
    for (size_t c = chunks_.size(); ChunkBase(c) < n; ++c) {
      chunk_nodes += size_t{8} << c;
    }
    if (chunk_nodes > 0) {
      arena_.ReserveBytes(chunk_nodes * sizeof(PlanNode) + alignof(PlanNode));
    }
    while (ChunkBase(chunks_.size()) < n) AddChunk();
  }
  void Clear() {
    size_ = 0;
    chunks_.clear();
    arena_.Reset();
  }

 private:
  /// Chunk c holds nodes [8*(2^c - 1), 8*(2^(c+1) - 1)) — capacity 8<<c.
  static size_t ChunkOf(size_t id) {
    return static_cast<size_t>(std::bit_width((id >> 3) + 1)) - 1;
  }
  static size_t ChunkBase(size_t chunk) { return (size_t{8} << chunk) - 8; }

  void AddChunk() {
    chunks_.push_back(
        arena_.AllocateArray<PlanNode>(size_t{8} << chunks_.size()));
  }

  PlanId Append(const PlanNode& node) {
    const size_t chunk = ChunkOf(size_);
    if (chunk == chunks_.size()) AddChunk();
    // Placement-new: the arena hands out uninitialized storage.
    new (&chunks_[chunk][size_ - ChunkBase(chunk)]) PlanNode(node);
    return static_cast<PlanId>(size_++);
  }

  void CopyFrom(const PlanArena& other) {
    static_assert(std::is_trivially_copyable_v<PlanNode>);
    Reserve(other.size_);
    for (size_t chunk = 0; ChunkBase(chunk) < other.size_; ++chunk) {
      const size_t count =
          std::min(other.size_ - ChunkBase(chunk), size_t{8} << chunk);
      std::memcpy(chunks_[chunk], other.chunks_[chunk],
                  count * sizeof(PlanNode));
    }
    size_ = other.size_;
  }

  Arena arena_;
  std::vector<PlanNode*> chunks_;
  size_t size_ = 0;
};

/// True if the subtree rooted at `id` is left-deep (every right child of
/// every join is a scan).
bool IsLeftDeep(const PlanArena& arena, PlanId id);

/// For a left-deep plan, returns the join order as a table sequence
/// (outermost/first-joined table first). CHECK-fails on bushy plans.
std::vector<int> LeftDeepJoinOrder(const PlanArena& arena, PlanId id);

/// Renders e.g. "HJ(SMJ(R0, R2), R1)" using table names "R<i>".
std::string PlanToString(const PlanArena& arena, PlanId id);

/// Number of join nodes in the subtree.
int CountJoins(const PlanArena& arena, PlanId id);

/// Deep-copies the subtree rooted at `id` from `source` into `dest`
/// (used by masters re-materializing worker plans into their own arena).
PlanId CopyPlan(const PlanArena& source, PlanId id, PlanArena* dest);

}  // namespace mpqopt

#endif  // MPQOPT_PLAN_PLAN_H_
