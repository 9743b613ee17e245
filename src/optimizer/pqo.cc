// Copyright 2026 mpqopt authors.

#include "optimizer/pqo.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "optimizer/dp_skeleton.h"

namespace mpqopt {
namespace {

/// Product of two affine costs where at most one side actually depends on
/// theta (join operands are disjoint table sets, so this always holds).
AffineCost AffineMul(const AffineCost& x, const AffineCost& y) {
  MPQOPT_DCHECK(x.slope == 0 || y.slope == 0);
  if (x.slope == 0) return {x.constant * y.constant, x.constant * y.slope};
  return {x.constant * y.constant, x.slope * y.constant};
}

/// Buffers the envelope computations reuse from call to call, so the DP's
/// frequent prunes allocate nothing once the buffers have grown.
struct EnvelopeScratch {
  std::vector<AffineCost> lines;
  std::vector<double> cuts;
  std::vector<double> probes;
  std::vector<uint8_t> marked;
  std::vector<size_t> keep;
};

/// Candidate evaluation points, into s->probes: 0, 1, and midpoints
/// between consecutive pairwise crossings inside (0, 1). Within each
/// resulting region the argmin line is constant, so evaluating the
/// regions' midpoints finds every line that is minimal somewhere.
void RegionProbes(const std::vector<AffineCost>& lines, EnvelopeScratch* s) {
  std::vector<double>& cuts = s->cuts;
  cuts.assign({0.0, 1.0});
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      const double denom = lines[i].slope - lines[j].slope;
      if (denom == 0) continue;
      const double theta = (lines[j].constant - lines[i].constant) / denom;
      if (theta > 0 && theta < 1) cuts.push_back(theta);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<double>& probes = s->probes;
  probes.clear();
  probes.push_back(0.0);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    probes.push_back(0.5 * (cuts[i] + cuts[i + 1]));
  }
  probes.push_back(1.0);
}

size_t ArgMinAt(const std::vector<AffineCost>& lines, double theta) {
  size_t best = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].At(theta) < lines[best].At(theta)) best = i;
  }
  return best;
}

/// LowerEnvelope into s->keep.
void LowerEnvelopeInto(const std::vector<AffineCost>& lines,
                       EnvelopeScratch* s) {
  s->keep.clear();
  if (lines.empty()) return;
  RegionProbes(lines, s);
  s->marked.assign(lines.size(), 0);
  for (double theta : s->probes) s->marked[ArgMinAt(lines, theta)] = 1;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (s->marked[i]) s->keep.push_back(i);
  }
}

using PqoRef = PlanRef<AffineCost>;

/// Drops plans that are nowhere minimal over [0, 1], keeping the rest in
/// order.
void EnvelopePrune(std::vector<PqoRef>* plans, EnvelopeScratch* s) {
  if (plans->size() <= 1) return;
  s->lines.clear();
  for (const PqoRef& p : *plans) s->lines.push_back(p.cost);
  LowerEnvelopeInto(s->lines, s);
  // keep is ascending, so compacting in place never overwrites a plan
  // that is still to be moved.
  for (size_t i = 0; i < s->keep.size(); ++i) {
    (*plans)[i] = (*plans)[s->keep[i]];
  }
  plans->resize(s->keep.size());
}

/// PQO's memo policy for the DP skeleton (optimizer/dp_skeleton.h):
/// affine cardinalities and costs, lower-envelope pruning.
class ParametricPolicy : public FrontierMemo<AffineCost, PqoRef> {
 public:
  ParametricPolicy(const Query& query, const PqoConfig& config)
      : query_(query), config_(config) {}

  Entry ScanEntry(int t, double base) {
    AffineCost card = AffineCost::Constant(base);
    if (t == config_.parametric_table) card.slope = base * config_.variability;
    return Scans(card, {{card}});
  }

  /// Affine cardinality of a table set. The constant is the regular
  /// estimator's cardinality `est`, which is clamped to at least one
  /// row; when the set contains the parametric table, the slope scales
  /// that clamped value by the variability, so card(theta) >= 1 on all of
  /// [0, 1] and stays affine. The constant is recomputed as
  /// base * (est / base), with base the product of the tables'
  /// cardinalities. The round trip changes only the last bits of
  /// rounding; it is kept because those bits reach the returned plans'
  /// costs and cardinalities.
  Entry Begin(TableSet u, double est) {
    double base = 1.0;
    for (int t : u) base *= query_.table(t).cardinality;
    AffineCost card = AffineCost::Constant(base * (est / base));
    if (u.Contains(config_.parametric_table)) {
      card.slope = card.constant * config_.variability;
    }
    return FrontierMemo::Begin(u, card);
  }

  void Combine(TableSet left, TableSet, const Entry& le, const Entry& re,
               Entry* entry, int64_t* plans_costed) {
    const CostModelOptions& opts = config_.cost_options;
    const AffineCost out = entry->card.Scaled(opts.output_cost_factor);
    for (uint32_t li = 0; li < le.num_plans; ++li) {
      for (uint32_t ri = 0; ri < re.num_plans; ++ri) {
        const AffineCost base = le.plans[li].cost.Plus(re.plans[ri].cost);
        // Block nested loop (smooth block model: |L| + |L||R|/B + out).
        scratch_.push_back(
            {base.Plus(le.card)
                 .Plus(AffineMul(le.card.Scaled(1.0 / opts.block_size),
                                 re.card))
                 .Plus(out),
             left.bits(), li, ri, JoinAlgorithm::kBlockNestedLoop});
        // Hash join: c_h * (|L| + |R|) + out.
        scratch_.push_back(
            {base.Plus(le.card.Plus(re.card).Scaled(opts.hash_constant))
                 .Plus(out),
             left.bits(), li, ri, JoinAlgorithm::kHashJoin});
        *plans_costed += 2;
        if (scratch_.size() > 64) EnvelopePrune(&scratch_, &envelope_);
      }
    }
  }
  void Finish(Entry* entry) {
    EnvelopePrune(&scratch_, &envelope_);
    FrontierMemo::Finish(entry);
  }

  // PlanNode convention in PQO results: cost metric 0 = the affine
  // constant, metric 1 = the slope; cardinality is taken at theta = 0.5.
  double NodeCard(const Entry& e) const { return e.card.At(0.5); }
  CostVector NodeCost(const PqoRef& p) const {
    return CostVector::TimeBuffer(p.cost.constant, p.cost.slope);
  }

 private:
  const Query& query_;
  const PqoConfig& config_;
  EnvelopeScratch envelope_;
};

/// Converts an envelope of (plan, line) pairs into interval-annotated
/// PqoPlans ordered by theta.
std::vector<PqoPlan> IntervalsFromEnvelope(
    const std::vector<PlanId>& plans, const std::vector<AffineCost>& lines) {
  MPQOPT_CHECK_EQ(plans.size(), lines.size());
  EnvelopeScratch scratch;
  RegionProbes(lines, &scratch);
  const std::vector<double>& probes = scratch.probes;
  std::vector<PqoPlan> out;
  // Region boundaries: reconstruct cut points from the probes (probes are
  // 0, midpoints, 1; the winning line changes only at cuts).
  std::vector<std::pair<double, size_t>> winners;  // (probe, argmin)
  for (double theta : probes) {
    winners.push_back({theta, ArgMinAt(lines, theta)});
  }
  size_t i = 0;
  while (i < winners.size()) {
    size_t j = i;
    while (j + 1 < winners.size() &&
           winners[j + 1].second == winners[i].second) {
      ++j;
    }
    PqoPlan plan;
    const size_t idx = winners[i].second;
    plan.plan = plans[idx];
    plan.cost = lines[idx];
    // Interval endpoints: exact crossings with the neighbouring winners.
    plan.theta_begin = out.empty() ? 0.0 : out.back().theta_end;
    if (j + 1 < winners.size()) {
      const AffineCost& a = lines[idx];
      const AffineCost& b = lines[winners[j + 1].second];
      const double denom = a.slope - b.slope;
      plan.theta_end =
          denom == 0 ? winners[j + 1].first
                     : (b.constant - a.constant) / denom;
    } else {
      plan.theta_end = 1.0;
    }
    out.push_back(plan);
    i = j + 1;
  }
  return out;
}

}  // namespace

std::vector<size_t> LowerEnvelope(const std::vector<AffineCost>& lines) {
  EnvelopeScratch scratch;
  LowerEnvelopeInto(lines, &scratch);
  return std::move(scratch.keep);
}

StatusOr<PqoResult> RunParametricDp(const Query& query,
                                    const ConstraintSet& constraints,
                                    const PqoConfig& config) {
  if (config.parametric_table < 0 ||
      config.parametric_table >= query.num_tables()) {
    return Status::InvalidArgument("parametric table out of range");
  }
  if (config.variability < 0) {
    return Status::InvalidArgument("variability must be non-negative");
  }
  PqoResult result;
  const Status status = RunDp<ParametricPolicy>(
      query, constraints, config, &result.stats,
      [&](const DpSkeleton<ParametricPolicy>& dp, TableSet all) {
        const ParametricPolicy::Entry& full = dp.EntryOf(all);
        std::vector<PlanId> plans;
        std::vector<AffineCost> lines;
        for (uint32_t i = 0; i < full.num_plans; ++i) {
          // A single-table query's plan node carries the base cardinality
          // and a zero slope; its line still carries the true slope.
          plans.push_back(
              all.Count() == 1
                  ? result.arena.MakeScan(
                        0, full.card.constant,
                        CostVector::TimeBuffer(full.card.constant, 0))
                  : dp.Build(all, i, &result.arena));
          lines.push_back(full.plans[i].cost);
        }
        result.plans = IntervalsFromEnvelope(plans, lines);
      });
  if (!status.ok()) return status;
  return result;
}

StatusOr<PqoResult> ParallelParametricOptimize(const Query& query,
                                               uint64_t num_partitions,
                                               const PqoConfig& config) {
  if (!IsPowerOfTwo(num_partitions)) {
    return Status::InvalidArgument("partition count must be a power of two");
  }
  PqoResult merged;
  std::vector<PlanId> plans;
  std::vector<AffineCost> lines;
  for (uint64_t part = 0; part < num_partitions; ++part) {
    StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
        query.num_tables(), config.space, part, num_partitions);
    if (!constraints.ok()) return constraints.status();
    StatusOr<PqoResult> result =
        RunParametricDp(query, constraints.value(), config);
    if (!result.ok()) return result.status();
    const DpStats& stats = result.value().stats;
    merged.stats.admissible_sets =
        std::max(merged.stats.admissible_sets, stats.admissible_sets);
    merged.stats.splits_tried += stats.splits_tried;
    merged.stats.plans_costed += stats.plans_costed;
    merged.stats.seconds += stats.seconds;
    // Re-materialize the partition's envelope plans into the master arena
    // (mirrors the master-side deserialization of worker responses).
    for (const PqoPlan& plan : result.value().plans) {
      plans.push_back(CopyPlan(result.value().arena, plan.plan,
                               &merged.arena));
      lines.push_back(plan.cost);
    }
  }
  // Master final prune: global lower envelope over partition envelopes.
  const std::vector<size_t> keep = LowerEnvelope(lines);
  std::vector<PlanId> kept_plans;
  std::vector<AffineCost> kept_lines;
  for (size_t idx : keep) {
    kept_plans.push_back(plans[idx]);
    kept_lines.push_back(lines[idx]);
  }
  merged.plans = IntervalsFromEnvelope(kept_plans, kept_lines);
  return merged;
}

}  // namespace mpqopt
