// Copyright 2026 mpqopt authors.
//
// Query and statistics model (paper Section 3).
//
// A query is a set of tables to be joined, identified by dense indices
// 0..n-1 (the paper's Q_x numbering; all workers must agree on it, which we
// guarantee by embedding the numbering in the serialized query). Following
// the paper's experimental setup, queries carry equality join predicates
// with precomputed selectivities, and every statistic a worker needs for
// cost estimation travels with the query — the master "sends query-specific
// statistics (e.g. predicate selectivity values) to each worker".

#ifndef MPQOPT_CATALOG_QUERY_H_
#define MPQOPT_CATALOG_QUERY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "common/table_set.h"

namespace mpqopt {

/// Shape of the join graph used by the workload generator. With Cartesian
/// products allowed, the DP examines the same table sets regardless of
/// shape (paper Figure 3 shows the negligible impact).
enum class JoinGraphShape : uint8_t {
  kChain = 0,
  kStar = 1,
  kCycle = 2,
  kClique = 3,
};

/// Returns a lowercase name ("chain", "star", ...) for display.
const char* JoinGraphShapeName(JoinGraphShape shape);

/// Statistics of one base table referenced by a query.
struct TableInfo {
  /// Number of rows.
  double cardinality = 0;
  /// Domain sizes (number of distinct values) of the join attributes.
  std::vector<double> attribute_domains;
  /// Table name, e.g. "R3". Not used by the optimizer's cost math, but it
  /// is the catalog identity that the plan cache's statistics-sensitive
  /// invalidation keys on (see PlanCache::InvalidateWhere), so two
  /// different catalog tables must not share a name.
  std::string name;
};

/// An equality join predicate t_l.a_l = t_r.a_r with its selectivity.
struct JoinPredicate {
  int left_table = 0;
  int left_attribute = 0;
  int right_table = 0;
  int right_attribute = 0;
  /// Estimated fraction of the cross product that satisfies the predicate;
  /// for equality predicates this is 1 / max(domain_l, domain_r)
  /// (Steinbrunn et al.).
  double selectivity = 1.0;
};

/// A join query: tables with statistics plus join predicates.
class Query {
 public:
  Query() = default;
  Query(std::vector<TableInfo> tables, std::vector<JoinPredicate> predicates)
      : tables_(std::move(tables)), predicates_(std::move(predicates)) {}

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const std::vector<TableInfo>& tables() const { return tables_; }
  const TableInfo& table(int i) const { return tables_[i]; }
  const std::vector<JoinPredicate>& predicates() const { return predicates_; }

  /// The set {0, ..., n-1} of all table indices.
  TableSet all_tables() const { return TableSet::AllTables(num_tables()); }

  /// Validates internal consistency (indices in range, selectivities in
  /// (0, 1], cardinalities positive). Called after deserialization.
  Status Validate() const;

  /// Byte-exact wire encoding: this is the payload the master ships to each
  /// worker (together with the partition id and the partition count).
  void Serialize(ByteWriter* writer) const;
  static StatusOr<Query> Deserialize(ByteReader* reader);

  /// Multi-line human-readable description for examples and debugging.
  std::string ToString() const;

 private:
  std::vector<TableInfo> tables_;
  std::vector<JoinPredicate> predicates_;
};

}  // namespace mpqopt

#endif  // MPQOPT_CATALOG_QUERY_H_
