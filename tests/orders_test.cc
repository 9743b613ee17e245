// Copyright 2026 mpqopt authors.

#include "optimizer/orders.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/generator.h"

namespace mpqopt {
namespace {

/// Three tables, two attributes each; predicates chain t0.a0 = t1.a0 and
/// t1.a0 = t2.a1, so {t0.a0, t1.a0, t2.a1} form one class.
Query ChainedQuery() {
  std::vector<TableInfo> tables(3);
  for (auto& t : tables) {
    t.cardinality = 100;
    t.attribute_domains = {10.0, 10.0};
  }
  std::vector<JoinPredicate> preds;
  preds.push_back({0, 0, 1, 0, 0.1});
  preds.push_back({1, 0, 2, 1, 0.1});
  return Query(std::move(tables), std::move(preds));
}

TEST(OrderClassesTest, TransitiveMerging) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  EXPECT_EQ(orders.ClassOf(0, 0), orders.ClassOf(1, 0));
  EXPECT_EQ(orders.ClassOf(1, 0), orders.ClassOf(2, 1));
}

TEST(OrderClassesTest, UnrelatedAttributesStaySeparate) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  EXPECT_NE(orders.ClassOf(0, 0), orders.ClassOf(0, 1));
  EXPECT_NE(orders.ClassOf(0, 1), orders.ClassOf(1, 1));
  EXPECT_NE(orders.ClassOf(2, 0), orders.ClassOf(2, 1));
}

TEST(OrderClassesTest, ClassCount) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  // 6 attributes, 2 merges -> 4 classes.
  EXPECT_EQ(orders.num_classes(), 4);
}

TEST(OrderClassesTest, PredicateClassesMatchBothSides) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  for (const JoinPredicate& p : q.predicates()) {
    EXPECT_EQ(orders.ClassOfPredicate(p),
              orders.ClassOf(p.left_table, p.left_attribute));
    EXPECT_EQ(orders.ClassOfPredicate(p),
              orders.ClassOf(p.right_table, p.right_attribute));
  }
}

TEST(OrderClassesTest, MergeClassesForCut) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  const int cls = orders.ClassOf(0, 0);
  // One buffer across all cuts, as the DP uses it: each call replaces
  // the previous cut's classes.
  std::vector<int> classes = {-7, -8};
  // Cut {0} vs {1,2}: predicate 0-1 crosses.
  orders.MergeClassesForCut(TableSet::Single(0), TableSet::Single(1).With(2),
                            &classes);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], cls);
  // Cut {0,2} vs {1}: both predicates cross, but they share one class.
  orders.MergeClassesForCut(TableSet::Single(0).With(2), TableSet::Single(1),
                            &classes);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], cls);
  // Cut {0} vs {2}: cross product, no merge class.
  orders.MergeClassesForCut(TableSet::Single(0), TableSet::Single(2),
                            &classes);
  EXPECT_TRUE(classes.empty());
}

TEST(OrderClassesTest, MergeClassesDistinctForMultiplePredicates) {
  // Two independent predicates between the same two tables -> two
  // distinct merge classes across the cut.
  std::vector<TableInfo> tables(2);
  for (auto& t : tables) {
    t.cardinality = 100;
    t.attribute_domains = {10.0, 10.0};
  }
  std::vector<JoinPredicate> preds;
  preds.push_back({0, 0, 1, 0, 0.1});
  preds.push_back({0, 1, 1, 1, 0.1});
  const Query q(std::move(tables), std::move(preds));
  const OrderClasses orders(q);
  std::vector<int> classes;
  orders.MergeClassesForCut(TableSet::Single(0), TableSet::Single(1),
                            &classes);
  EXPECT_EQ(classes.size(), 2u);
  EXPECT_NE(classes[0], classes[1]);
}

TEST(OrderClassesTest, TableHasClass) {
  const Query q = ChainedQuery();
  const OrderClasses orders(q);
  const int cls = orders.ClassOf(1, 0);
  EXPECT_TRUE(orders.TableHasClass(0, cls));
  EXPECT_TRUE(orders.TableHasClass(1, cls));
  EXPECT_TRUE(orders.TableHasClass(2, cls));  // via attribute 1
  const int lone = orders.ClassOf(0, 1);
  EXPECT_TRUE(orders.TableHasClass(0, lone));
  EXPECT_FALSE(orders.TableHasClass(1, lone));
}

TEST(OrderClassesTest, StarQueryHubClasses) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, 3);
  const Query q = gen.Generate(6);
  const OrderClasses orders(q);
  // Every predicate connects the hub; both of its sides share a class.
  for (const JoinPredicate& p : q.predicates()) {
    EXPECT_EQ(orders.ClassOf(p.left_table, p.left_attribute),
              orders.ClassOf(p.right_table, p.right_attribute));
  }
  EXPECT_GE(orders.num_classes(), 1);
}

}  // namespace
}  // namespace mpqopt
