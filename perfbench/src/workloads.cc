// Copyright 2026 mpqopt authors.

#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <thread>

#include "catalog/generator.h"
#include "common/rng.h"
#include "optimizer/dp.h"
#include "optimizer/pruning.h"
#include "partition/constraints.h"
#include "plan/plan_validator.h"
#include "tests/rpc_test_util.h"

namespace perfbench {

using mpqopt::MpqOptions;
using mpqopt::MpqResult;
using mpqopt::Objective;
using mpqopt::OptimizerService;
using mpqopt::PlanSpace;
using mpqopt::Query;
using mpqopt::ServiceOptions;
using mpqopt::Status;
using mpqopt::StatusOr;

namespace {

/// splitmix64 finalizer over a combination of its arguments: seeds for
/// per-query generators and keys for signatures.
uint64_t Mix(uint64_t a, uint64_t b = 0) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Times one Optimize call and files its outcome in `log`; the result is
/// left in `*result` for the caller's correctness sample.
void TimedOptimize(OptimizerService& service, const Query& query,
                   const MpqOptions& options, SessionLog* log,
                   StatusOr<MpqResult>* result) {
  const auto start = Clock::now();
  *result = service.Optimize(query, options);
  const auto end = Clock::now();
  const double latency_ms = Millis(end - start);
  ++log->attempted;
  if (!result->ok()) {
    ++log->failed;
    return;
  }
  if (log->windows != nullptr) log->windows->Record(start, end);
  if (log->latency_ms == nullptr) return;
  const MpqResult& r = result->value();
  log->latency_ms->Record(latency_ms);
  if (r.from_plan_cache) {
    log->hit_latency_ms->Record(latency_ms);
    log->service_overhead_ms->Record(latency_ms);
    return;
  }
  log->service_overhead_ms->Record(latency_ms - r.wall_seconds * 1e3);
  if (!log->keep_rounds) return;
  RoundRecord rec;
  rec.latency_ms = latency_ms;
  rec.wall_ms = r.wall_seconds * 1e3;
  rec.master_ms = r.master_seconds * 1e3;
  rec.worker_max_ms = r.max_worker_seconds * 1e3;
  rec.worker_sum_ms =
      std::accumulate(r.worker_seconds.begin(), r.worker_seconds.end(), 0.0) *
      1e3;
  rec.plans_costed = r.total_plans_costed;
  rec.memo_sets_sum = std::accumulate(r.worker_memo_sets.begin(),
                                      r.worker_memo_sets.end(), int64_t{0});
  rec.memo_sets_max = r.max_worker_memo_sets;
  rec.bytes = r.network_bytes;
  rec.messages = r.network_messages;
  rec.partitions = r.worker_seconds.size();
  log->rounds.push_back(rec);
}

void KeepForCheck(const Query& query, const MpqOptions& options,
                  const MpqResult& result, SessionLog* log) {
  CheckedResult check;
  check.query = query;
  check.options = options;
  check.options.backend = nullptr;
  check.arena = result.arena;
  check.best = result.best;
  log->checks.push_back(std::move(check));
}

Query GeneratedQuery(mpqopt::JoinGraphShape shape, int tables, uint64_t seed) {
  mpqopt::GeneratorOptions options;
  options.shape = shape;
  return mpqopt::QueryGenerator(options, seed).Generate(tables);
}

// ------------------------------------- large_query and rpc_scatter

/// Sessions that each send distinct seeded queries, one after another.
/// Query i of a run is a function of (seed, i) alone; a plan cache, if
/// on, is probed and never hits.
class DistinctQueries : public Workload {
 public:
  void RunSession(int, Clock::time_point deadline, SessionLog* log) override {
    StatusOr<MpqResult> result = Status::Internal("not run");
    size_t checks = 0;
    while (Clock::now() < deadline) {
      const uint64_t i = next_.fetch_add(1);
      const Query query = QueryAt(i);
      TimedOptimize(*service_, query, options_, log, &result);
      if (result.ok() && Mix(seed_, i) % check_every_ == 0 &&
          checks < max_checks_) {
        KeepForCheck(query, options_, result.value(), log);
        ++checks;
      }
    }
  }

  OptimizerService& service() override { return *service_; }

 protected:
  DistinctQueries(uint64_t seed, mpqopt::JoinGraphShape shape, int tables,
                  MpqOptions options, uint64_t check_every, size_t max_checks)
      : seed_(seed),
        shape_(shape),
        tables_(tables),
        options_(options),
        check_every_(check_every),
        max_checks_(max_checks) {}

  /// Builds the service and serves one query before timing, so the
  /// backend's threads, connections and arenas are live.
  Status StartService(ServiceOptions so) {
    service_ = std::make_unique<OptimizerService>(so);
    if (!service_->init_status().ok()) return service_->init_status();
    return service_->Optimize(QueryAt(~uint64_t{0}), options_).status();
  }

  std::unique_ptr<OptimizerService> service_;

 private:
  Query QueryAt(uint64_t i) const {
    return GeneratedQuery(shape_, tables_, Mix(seed_, i));
  }

  const uint64_t seed_;
  const mpqopt::JoinGraphShape shape_;
  const int tables_;
  const MpqOptions options_;
  const uint64_t check_every_;
  const size_t max_checks_;
  // Not reset by SetUp: every segment of a run gets new queries.
  std::atomic<uint64_t> next_{0};
};

/// The paper's headline case: one session, distinct large bushy queries
/// (11 tables: the most the DP finishes 100 of in a few seconds on two
/// cores), split into the 8 partitions that size allows, on the
/// in-process async pool. The plan cache is on but every query is new,
/// so it is probed and bypassed.
class LargeQuery : public DistinctQueries {
 public:
  static constexpr int kPoolThreads = 1;

  explicit LargeQuery(uint64_t seed)
      : DistinctQueries(seed, mpqopt::JoinGraphShape::kStar, 11, Options(),
                        /*check_every=*/32, /*max_checks=*/2) {}

  ThreadBudget budget() const override { return {1, kPoolThreads, 0}; }
  size_t window_requests() const override { return 100; }  // p90

  Status SetUp(mpqopt::obs::TraceCollector* collector) override {
    ServiceOptions so;
    so.backend_kind = mpqopt::BackendKind::kAsyncBatch;
    so.backend_threads = kPoolThreads;
    so.enable_plan_cache = true;
    so.trace_collector = collector;
    return StartService(so);
  }

  void TearDown() override { service_.reset(); }

 private:
  static MpqOptions Options() {
    MpqOptions options;
    options.space = PlanSpace::kBushy;
    options.num_workers = 8;
    return options;
  }
};

/// Distinct medium multi-objective chain queries over loopback rpc
/// workers: the only workload on real sockets and the Pareto path. Small
/// DP per partition, so the fixed per-round costs (serialize, frames,
/// worker envelope, Pareto decode and prune) are a third of the latency.
class RpcScatter : public DistinctQueries {
 public:
  static constexpr int kSessions = 1;
  static constexpr int kWorkers = 2;

  explicit RpcScatter(uint64_t seed)
      : DistinctQueries(seed, mpqopt::JoinGraphShape::kChain, 8, Options(),
                        /*check_every=*/64, /*max_checks=*/8) {}

  ThreadBudget budget() const override { return {kSessions, 0, kWorkers}; }
  size_t window_requests() const override { return 500; }  // p90

  Status SetUp(mpqopt::obs::TraceCollector* collector) override {
    ::setenv("MPQOPT_WORKER_BIN", PERFBENCH_WORKER_BIN, 1);
    farm_ = std::make_unique<mpqopt::RpcWorkerFarm>();
    farm_->Start(kWorkers);
    ServiceOptions so;
    so.backend_kind = mpqopt::BackendKind::kRpc;
    so.workers_addr = farm_->workers_addr();
    so.trace_collector = collector;
    return StartService(so);
  }

  void TearDown() override {
    service_.reset();
    farm_.reset();
  }

  std::vector<pid_t> worker_pids() const override { return ChildPids(); }

 private:
  static MpqOptions Options() {
    MpqOptions options;
    options.space = PlanSpace::kLinear;
    options.objective = Objective::kTimeAndBuffer;
    // Exact Pareto pruning: the merged frontier must then equal the
    // serial one, which the correctness check relies on. With alpha > 1
    // the approximation compounds per join level, and the MPQ and serial
    // frontiers need not alpha-cover each other.
    options.alpha = 1.0;
    options.num_workers = 16;
    return options;
  }

  std::unique_ptr<mpqopt::RpcWorkerFarm> farm_;
};

// ------------------------------------------------------------ serving_mix

/// Plan serving over one shared named catalog: Zipf-skewed repeats of a
/// warm set of templates, a fixed share of novel queries, and a trickle
/// of statistics refreshes that change one relation's cardinality and
/// invalidate its cached plans. Hits dominate the median; misses (novel
/// queries and first requests after a refresh) dominate busy time and
/// the tail.
class ServingMix : public Workload {
 public:
  static constexpr int kRelations = 32;
  static constexpr int kTemplates = 96;
  static constexpr int kSessions = 1;
  static constexpr int kPoolThreads = 1;
  static constexpr double kZipfExponent = 1.0;
  static constexpr double kRefreshShare = 0.001;
  static constexpr double kNovelShare = 0.04;
  static constexpr uint64_t kCheckEvery = 16;
  static constexpr size_t kMaxChecks = 8;  // per session and segment

  struct Template {
    std::vector<int> relations;
    std::vector<mpqopt::JoinPredicate> predicates;
    MpqOptions options;
  };

  struct Op {
    enum Kind { kTemplate, kNovel, kRefresh } kind;
    int index;
  };

  /// One session's op stream: a pure function of (seed, session).
  class Stream {
   public:
    Stream(const std::vector<double>& zipf_cdf, uint64_t seed, int session)
        : zipf_cdf_(zipf_cdf), rng_(Mix(seed, 1000 + session)) {}
    Op Next() {
      const double u = rng_.UniformDouble();
      if (u < kRefreshShare) {
        return {Op::kRefresh,
                static_cast<int>(rng_.UniformInt(0, kRelations - 1))};
      }
      if (u < kRefreshShare + kNovelShare) return {Op::kNovel, novel_++};
      const double z = rng_.UniformDouble();
      const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), z);
      return {Op::kTemplate,
              static_cast<int>(std::min<ptrdiff_t>(it - zipf_cdf_.begin(),
                                                   kTemplates - 1))};
    }

   private:
    const std::vector<double>& zipf_cdf_;
    mpqopt::Rng rng_;
    int novel_ = 0;
  };

  explicit ServingMix(uint64_t seed)
      : seed_(seed),
        catalog_(GeneratedQuery(mpqopt::JoinGraphShape::kChain, kRelations,
                                Mix(seed, 1))
                     .tables()),
        versions_(new std::atomic<uint32_t>[kRelations]) {
    // Template k's size and plan space follow from k alone, so every seed
    // has the same mix of small and medium, linear and bushy queries at
    // every popularity rank; the seed picks relations and statistics.
    mpqopt::Rng rng(Mix(seed, 2));
    for (int k = 0; k < kTemplates; ++k) {
      const PlanSpace space =
          k % 2 == 0 ? PlanSpace::kLinear : PlanSpace::kBushy;
      templates_.push_back(MakeTemplate(&rng, 4 + k % 5, space));
    }
    double total = 0;
    for (int k = 0; k < kTemplates; ++k) {
      total += 1.0 / std::pow(k + 1, kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  ThreadBudget budget() const override {
    return {kSessions, kPoolThreads, 0};
  }
  size_t window_requests() const override { return 5000; }  // p99

  Status SetUp(mpqopt::obs::TraceCollector* collector) override {
    ServiceOptions so;
    so.backend_kind = mpqopt::BackendKind::kAsyncBatch;
    so.backend_threads = kPoolThreads;
    so.enable_plan_cache = true;
    so.trace_collector = collector;
    service_ = std::make_unique<OptimizerService>(so);
    if (!service_->init_status().ok()) return service_->init_status();
    for (int r = 0; r < kRelations; ++r) versions_[r] = 0;
    // Warm the hot set: every template at the initial statistics.
    warm_signatures_.clear();
    for (const Template& t : templates_) {
      StatusOr<MpqResult> r = service_->Optimize(
          BuildQuery(t, std::vector<uint32_t>(t.relations.size(), 0)),
          t.options);
      if (!r.ok()) return r.status();
      warm_signatures_.push_back(
          PlanSignature(r.value().arena, r.value().best));
    }
    return Status::OK();
  }

  void TearDown() override { service_.reset(); }

  void RunSession(int session, Clock::time_point deadline,
                  SessionLog* log) override {
    SessionState state(this, session, log);
    while (Clock::now() < deadline) Step(&state);
    for (const SessionState::Known& k : state.known) {
      if (k.answered) log->signatures[k.key] = k.signature;
    }
  }

  OptimizerService& service() override { return *service_; }

  /// Test hook: runs exactly `requests` ops of session 0 alone.
  std::pair<uint64_t, uint64_t> Replay(int requests) {
    mpqopt::obs::Histogram latency(LatencyBoundsMs()), hits(LatencyBoundsMs()),
        overhead(LatencyBoundsMs());
    SessionLog log;
    log.latency_ms = &latency;
    log.hit_latency_ms = &hits;
    log.service_overhead_ms = &overhead;
    SessionState state(this, 0, &log);
    const uint64_t before = service_->stats().cache_misses;
    for (int i = 0; i < requests; ++i) Step(&state);
    return {service_->stats().cache_misses - before, log.predicted_misses};
  }

 private:
  /// Per-session view: the op stream, and for each template the query
  /// built at the statistics versions the session last saw, with the
  /// plan signature of the first answer at those versions.
  struct SessionState {
    SessionState(ServingMix* mix, int session, SessionLog* log)
        : stream(mix->zipf_cdf_, mix->seed_, session),
          session(session),
          log(log) {
      for (int k = 0; k < kTemplates; ++k) {
        Known known;
        known.versions.assign(mix->templates_[k].relations.size(), 0);
        known.query = mix->BuildQuery(mix->templates_[k], known.versions);
        known.key = TemplateKey(k, known.versions);
        known.signature = mix->warm_signatures_[k];
        known.answered = true;
        this->known.push_back(std::move(known));
      }
    }
    Stream stream;
    int session;
    SessionLog* log;
    struct Known {
      std::vector<uint32_t> versions;
      Query query;
      uint64_t key = 0;
      uint64_t signature = 0;
      bool answered = false;
    };
    std::vector<Known> known;
    StatusOr<MpqResult> result = Status::Internal("not run");
  };

  Template MakeTemplate(mpqopt::Rng* rng, int n, PlanSpace space) const {
    Template t;
    std::vector<int> order(kRelations);
    std::iota(order.begin(), order.end(), 0);
    for (int i = 0; i < n; ++i) {
      std::swap(order[i], order[rng->UniformInt(i, kRelations - 1)]);
      t.relations.push_back(order[i]);
    }
    for (int i = 0; i + 1 < n; ++i) {
      mpqopt::JoinPredicate p;
      p.left_table = i;
      p.right_table = i + 1;
      p.left_attribute = static_cast<int>(rng->UniformInt(0, 1));
      p.right_attribute = static_cast<int>(rng->UniformInt(0, 1));
      p.selectivity =
          1.0 / std::max(Domain(t.relations[i], p.left_attribute),
                         Domain(t.relations[i + 1], p.right_attribute));
      t.predicates.push_back(p);
    }
    t.options.space = space;
    t.options.num_workers = mpqopt::UsableWorkers(n, space, 8);
    return t;
  }

  double Domain(int relation, int attribute) const {
    return catalog_[relation].attribute_domains[attribute];
  }

  /// Cardinality of `relation` after `version` refreshes: the generated
  /// base, then a seeded value in [base, 2 * base), which keeps every
  /// attribute domain within the table size.
  double Cardinality(int relation, uint32_t version) const {
    const double base = catalog_[relation].cardinality;
    if (version == 0) return base;
    const uint64_t h = Mix(seed_, (uint64_t{version} << 8) | relation);
    return std::floor(base * (1.0 + static_cast<double>(h >> 11) * 0x1.0p-53));
  }

  Query BuildQuery(const Template& t,
                   const std::vector<uint32_t>& versions) const {
    std::vector<mpqopt::TableInfo> tables;
    for (size_t i = 0; i < t.relations.size(); ++i) {
      mpqopt::TableInfo info = catalog_[t.relations[i]];
      info.cardinality = Cardinality(t.relations[i], versions[i]);
      tables.push_back(std::move(info));
    }
    return Query(std::move(tables), t.predicates);
  }

  static uint64_t TemplateKey(int k, const std::vector<uint32_t>& versions) {
    uint64_t key = Mix(static_cast<uint64_t>(k));
    for (const uint32_t v : versions) key = Mix(key, v);
    return key;
  }

  void Step(SessionState* s) {
    const Op op = s->stream.Next();
    SessionLog* log = s->log;
    if (op.kind == Op::kRefresh) {
      versions_[op.index].fetch_add(1);
      const auto start = Clock::now();
      service_->plan_cache()->InvalidateTable(catalog_[op.index].name);
      log->invalidate_us.push_back(Millis(Clock::now() - start) * 1e3);
      return;
    }
    if (op.kind == Op::kNovel) {
      mpqopt::Rng rng(Mix(Mix(seed_, 2000 + s->session), op.index));
      const int n = static_cast<int>(rng.UniformInt(4, 8));
      const Template t = MakeTemplate(
          &rng, n,
          rng.UniformInt(0, 1) == 0 ? PlanSpace::kLinear : PlanSpace::kBushy);
      const Query query = BuildQuery(t, CurrentVersions(t));
      ++log->predicted_misses;
      TimedOptimize(*service_, query, t.options, log, &s->result);
      if (s->result.ok() && op.index % kCheckEvery == 0 &&
          log->checks.size() < kMaxChecks) {
        KeepForCheck(query, t.options, s->result.value(), log);
      }
      return;
    }
    const Template& t = templates_[op.index];
    SessionState::Known& k = s->known[op.index];
    std::vector<uint32_t> versions = CurrentVersions(t);
    if (versions != k.versions) {
      k.versions = std::move(versions);
      k.query = BuildQuery(t, k.versions);
      k.key = TemplateKey(op.index, k.versions);
      k.answered = false;
    }
    if (!k.answered) ++log->predicted_misses;
    TimedOptimize(*service_, k.query, t.options, log, &s->result);
    if (!s->result.ok()) return;
    const MpqResult& r = s->result.value();
    const uint64_t signature = PlanSignature(r.arena, r.best);
    if (!k.answered) {
      k.signature = signature;
      k.answered = true;
    } else if (k.signature != signature) {
      ++log->signature_mismatches;
    }
    if (!r.from_plan_cache && Mix(k.key) % kCheckEvery == 0 &&
        log->checks.size() < kMaxChecks) {
      KeepForCheck(k.query, t.options, r, log);
    }
  }

  std::vector<uint32_t> CurrentVersions(const Template& t) const {
    std::vector<uint32_t> versions;
    for (const int rel : t.relations) versions.push_back(versions_[rel].load());
    return versions;
  }

  const uint64_t seed_;
  const std::vector<mpqopt::TableInfo> catalog_;
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
  std::vector<Template> templates_;
  std::vector<double> zipf_cdf_;
  std::vector<uint64_t> warm_signatures_;  ///< per template, versions 0
  std::unique_ptr<OptimizerService> service_;

  friend std::vector<std::string> perfbench::ServingMixOps(uint64_t, int,
                                                           int);
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "large_query") return std::make_unique<LargeQuery>(seed);
  if (name == "serving_mix") return std::make_unique<ServingMix>(seed);
  if (name == "rpc_scatter") return std::make_unique<RpcScatter>(seed);
  return nullptr;
}

ClosedLoopTally RunClosedLoop(
    int sessions, double seconds,
    const std::function<uint64_t(int, Clock::time_point)>& session_body,
    const std::function<void()>& idle) {
  std::latch go(1);
  Clock::time_point deadline;
  std::vector<uint64_t> completed(sessions, 0);
  std::vector<Clock::time_point> finished(sessions);
  std::atomic<int> running{sessions};
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      go.wait();
      completed[s] = session_body(s, deadline);
      finished[s] = Clock::now();
      running.fetch_sub(1);
    });
  }
  const Clock::time_point start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.count_down();
  while (running.load() > 0) {
    const auto wake = std::min(Clock::now() + std::chrono::seconds(1),
                               deadline + std::chrono::milliseconds(50));
    while (running.load() > 0 && Clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (running.load() > 0 && Clock::now() < deadline) idle();
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopTally tally;
  tally.completed = std::accumulate(completed.begin(), completed.end(),
                                    uint64_t{0});
  tally.wall_seconds =
      std::chrono::duration<double>(
          *std::max_element(finished.begin(), finished.end()) - start)
          .count();
  return tally;
}

uint64_t PlanSignature(const mpqopt::PlanArena& arena,
                       const std::vector<mpqopt::PlanId>& best) {
  uint64_t h = Mix(best.size());
  std::vector<mpqopt::PlanId> stack(best.rbegin(), best.rend());
  while (!stack.empty()) {
    const mpqopt::PlanNode& node = arena.node(stack.back());
    stack.pop_back();
    h = Mix(h, node.tables.bits());
    h = Mix(h, (static_cast<uint64_t>(node.algorithm) << 32) |
                   static_cast<uint32_t>(node.table));
    h = Mix(h, std::bit_cast<uint64_t>(node.cost.time()));
    if (!node.IsScan()) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    }
  }
  return h;
}

Status VerifyAgainstSerial(const CheckedResult& check) {
  const MpqOptions& o = check.options;
  mpqopt::DpConfig config;
  config.space = o.space;
  config.objective = o.objective;
  config.alpha = o.alpha;
  config.cost_options = o.cost_options;
  StatusOr<mpqopt::DpResult> serial =
      mpqopt::OptimizeSerial(check.query, config);
  if (!serial.ok()) return serial.status();
  if (check.best.empty()) return Status::Internal("no plan returned");
  const mpqopt::CostModel model(o.objective, o.cost_options);
  mpqopt::PlanValidationOptions validation;
  validation.require_left_deep = o.space == PlanSpace::kLinear;
  std::vector<mpqopt::CostVector> mpq_costs, serial_costs;
  for (const mpqopt::PlanId id : check.best) {
    Status s = mpqopt::ValidatePlan(check.arena, id, check.query, model,
                                    validation);
    if (!s.ok()) return s;
    mpq_costs.push_back(check.arena.node(id).cost);
  }
  for (const mpqopt::PlanId id : serial.value().best) {
    serial_costs.push_back(serial.value().arena.node(id).cost);
  }
  if (o.objective == Objective::kTime) {
    const double mpq = mpq_costs[0].time(), ref = serial_costs[0].time();
    if (std::abs(mpq - ref) > 1e-9 * std::max(std::abs(ref), 1.0)) {
      return Status::Internal("MPQ cost " + std::to_string(mpq) +
                              " != serial optimum " + std::to_string(ref));
    }
    return Status::OK();
  }
  const double alpha = o.alpha * (1 + 1e-12);
  if (!mpqopt::AlphaCovers(mpq_costs, serial_costs, alpha) ||
      !mpqopt::AlphaCovers(serial_costs, mpq_costs, alpha)) {
    return Status::Internal("MPQ frontier does not alpha-cover the serial one");
  }
  return Status::OK();
}

std::vector<std::string> ServingMixOps(uint64_t seed, int session,
                                       int count) {
  ServingMix mix(seed);
  ServingMix::Stream stream(mix.zipf_cdf_, seed, session);
  std::vector<std::string> ops;
  for (int i = 0; i < count; ++i) {
    const ServingMix::Op op = stream.Next();
    std::string text(1, op.kind == ServingMix::Op::kTemplate ? 't'
                        : op.kind == ServingMix::Op::kNovel  ? 'n'
                                                             : 'r');
    text += std::to_string(op.index);
    ops.push_back(std::move(text));
  }
  return ops;
}

std::pair<uint64_t, uint64_t> ServingMixReplayMisses(uint64_t seed,
                                                     int requests) {
  ServingMix mix(seed);
  MPQOPT_CHECK(mix.SetUp(nullptr).ok());
  const std::pair<uint64_t, uint64_t> misses = mix.Replay(requests);
  mix.TearDown();
  return misses;
}

}  // namespace perfbench
