// Copyright 2026 mpqopt authors.

#include "optimizer/orders.h"

#include <algorithm>
#include <numeric>

namespace mpqopt {
namespace {

int Find(std::vector<int>* parent, int x) {
  while ((*parent)[x] != x) {
    (*parent)[x] = (*parent)[(*parent)[x]];  // path halving
    x = (*parent)[x];
  }
  return x;
}

void Union(std::vector<int>* parent, int a, int b) {
  (*parent)[Find(parent, a)] = Find(parent, b);
}

}  // namespace

OrderClasses::OrderClasses(const Query& query) {
  const int n = query.num_tables();
  table_attr_offset_.resize(n);
  int total_attrs = 0;
  for (int t = 0; t < n; ++t) {
    table_attr_offset_[t] = total_attrs;
    total_attrs += static_cast<int>(query.table(t).attribute_domains.size());
  }
  std::vector<int> parent(total_attrs);
  std::iota(parent.begin(), parent.end(), 0);
  for (const JoinPredicate& p : query.predicates()) {
    Union(&parent, IndexOf(p.left_table, p.left_attribute),
          IndexOf(p.right_table, p.right_attribute));
  }
  // Dense class ids in first-occurrence order.
  class_of_index_.assign(total_attrs, kNoOrder);
  std::vector<int> root_class(total_attrs, kNoOrder);
  for (int i = 0; i < total_attrs; ++i) {
    const int root = Find(&parent, i);
    if (root_class[root] == kNoOrder) root_class[root] = num_classes_++;
    class_of_index_[i] = root_class[root];
  }
  // Per-table adjacency of crossing predicates, for MergeClassesForCut.
  adjacency_.resize(n);
  for (const JoinPredicate& p : query.predicates()) {
    const int cls = ClassOfPredicate(p);
    adjacency_[p.left_table].push_back({p.right_table, cls});
    adjacency_[p.right_table].push_back({p.left_table, cls});
  }
}

int OrderClasses::ClassOf(int table, int attr) const {
  return class_of_index_[IndexOf(table, attr)];
}

int OrderClasses::ClassOfPredicate(const JoinPredicate& p) const {
  return ClassOf(p.left_table, p.left_attribute);
}

void OrderClasses::MergeClassesForCut(TableSet left, TableSet right,
                                      std::vector<int>* classes) const {
  classes->clear();
  const TableSet probe = left.Count() <= right.Count() ? left : right;
  const TableSet other = left.Count() <= right.Count() ? right : left;
  for (int t : probe) {
    for (const Edge& e : adjacency_[t]) {
      if (other.Contains(e.other_table) &&
          std::find(classes->begin(), classes->end(), e.cls) ==
              classes->end()) {
        classes->push_back(e.cls);
      }
    }
  }
}

bool OrderClasses::TableHasClass(int table, int cls) const {
  const int begin = table_attr_offset_[table];
  const int end = table + 1 < static_cast<int>(table_attr_offset_.size())
                      ? table_attr_offset_[table + 1]
                      : static_cast<int>(class_of_index_.size());
  for (int i = begin; i < end; ++i) {
    if (class_of_index_[i] == cls) return true;
  }
  return false;
}

}  // namespace mpqopt
