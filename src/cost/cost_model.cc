// Copyright 2026 mpqopt authors.

#include "cost/cost_model.h"

namespace mpqopt {

const char* JoinAlgorithmName(JoinAlgorithm alg) {
  switch (alg) {
    case JoinAlgorithm::kScan:
      return "Scan";
    case JoinAlgorithm::kBlockNestedLoop:
      return "BNL";
    case JoinAlgorithm::kHashJoin:
      return "HJ";
    case JoinAlgorithm::kSortMergeJoin:
      return "SMJ";
  }
  return "?";
}

CostVector CostModel::ScanCost(double card) const {
  if (objective_ == Objective::kTime) {
    return CostVector::Scalar(card);
  }
  // One block of scan buffer.
  return CostVector::TimeBuffer(card, options_.block_size);
}

}  // namespace mpqopt
