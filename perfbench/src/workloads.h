// Copyright 2026 mpqopt authors.
//
// The benchmark's workloads and the closed-loop runner that measures
// them. Every workload drives OptimizerService from one session, a DBMS
// connection that blocks until its plan comes back (a closed loop), with
// at most two pool threads or rpc workers beside it, so a neighbour on
// the host's remaining cores takes little CPU from it. The seed is the
// only input: the program sees nothing but the generated queries.
//
//   large_query  distinct 11-table bushy star queries, 8 partitions, in-
//                process async pool of one thread. Worker DP dominates.
//   serving_mix  Zipf-skewed repeats of small/medium queries over one
//                shared named catalog, with novel queries and statistics
//                refreshes mixed in. Plan-cache hits dominate the median.
//   rpc_scatter  distinct 8-table multi-objective chain queries, 16
//                partitions, over two loopback mpqopt_worker processes.
//                The per-round master, wire and codec costs dominate.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/query.h"
#include "host.h"
#include "mpq/mpq.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "service/optimizer_service.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What the benchmark keeps of one request that ran a worker round.
struct RoundRecord {
  double latency_ms = 0;
  double wall_ms = 0;    ///< MpqResult::wall_seconds
  double master_ms = 0;  ///< MpqResult::master_seconds
  double worker_max_ms = 0;
  double worker_sum_ms = 0;
  int64_t plans_costed = 0;
  int64_t memo_sets_sum = 0;
  int64_t memo_sets_max = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  size_t partitions = 0;
};

/// A result kept for the post-run check against the serial optimum.
struct CheckedResult {
  mpqopt::Query query;
  mpqopt::MpqOptions options;
  mpqopt::PlanArena arena;
  std::vector<mpqopt::PlanId> best;
};

/// Everything one session records inside the timed window. The
/// histograms (per-layer run) belong to the phase and are shared by its
/// sessions (obs::Histogram::Record is thread-safe); the windows (untraced
/// run) are the session's own. Null ones are not recorded.
struct SessionLog {
  WindowRecorder* windows = nullptr;                 ///< every success
  mpqopt::obs::Histogram* latency_ms = nullptr;      ///< every success
  mpqopt::obs::Histogram* hit_latency_ms = nullptr;  ///< plan-cache hits
  /// Latency outside the worker round: all of a hit, and a miss's
  /// latency minus MpqResult::wall_seconds.
  mpqopt::obs::Histogram* service_overhead_ms = nullptr;
  /// Keep one RoundRecord per miss (the per-layer run only; an untraced
  /// run keeps nothing that grows with the request count).
  bool keep_rounds = false;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<RoundRecord> rounds;
  std::vector<double> invalidate_us;  ///< serving_mix refresh ops
  std::vector<CheckedResult> checks;  ///< seeded sample of results
  /// serving_mix: the plan signature of each template at the statistics
  /// versions this session last saw it, keyed by (template, versions).
  /// Every answer for a key must carry the signature of the first one.
  std::unordered_map<uint64_t, uint64_t> signatures;
  uint64_t signature_mismatches = 0;
  /// serving_mix: requests whose key this session had not seen — the
  /// misses its own stream causes (novel queries, first sight after a
  /// refresh). Other sessions' requests and refreshes shift the measured
  /// count either way.
  uint64_t predicted_misses = 0;
};

/// One benchmark workload: builds its service, runs sessions, and knows
/// how to check what they recorded.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual ThreadBudget budget() const = 0;

  /// Requests per window of the end-to-end figures (WindowRecorder):
  /// enough for a tail percentile with ten samples beyond it, few enough
  /// that a run holds a dozen windows or more.
  virtual size_t window_requests() const = 0;

  /// Builds a fresh environment — backend, rpc workers, warm plan cache —
  /// recording traces into `collector` when non-null. Everything the
  /// first timed request needs is ready when this returns.
  virtual mpqopt::Status SetUp(mpqopt::obs::TraceCollector* collector) = 0;

  /// Stops every thread and process SetUp started, and waits for them.
  virtual void TearDown() = 0;

  /// One closed-loop session: sends requests until `deadline`.
  virtual void RunSession(int session, Clock::time_point deadline,
                          SessionLog* log) = 0;

  virtual mpqopt::OptimizerService& service() = 0;

  /// rpc worker processes of the current environment (empty in-process).
  virtual std::vector<pid_t> worker_pids() const { return {}; }
};

/// "large_query", "serving_mix" or "rpc_scatter"; null for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Runs `sessions` closed loops concurrently for `seconds` and returns
/// the tally. `session_body(session, deadline)` sends requests one after
/// another until the deadline and returns how many completed. All
/// sessions are released at once; the wall ends when the last one
/// returns. Until then `idle()` runs about once a second on the calling
/// thread (the host-speed probe).
ClosedLoopTally RunClosedLoop(
    int sessions, double seconds,
    const std::function<uint64_t(int, Clock::time_point)>& session_body,
    const std::function<void()>& idle);

/// Hash of a plan tree's shape, operators and root cost; identical plans
/// hash identically whichever arena holds them.
uint64_t PlanSignature(const mpqopt::PlanArena& arena,
                       const std::vector<mpqopt::PlanId>& best);

/// Checks `check` against the serial (m = 1) optimizer: the same optimal
/// cost for a single objective, mutual alpha-coverage of the frontiers
/// for two, and every returned plan structurally valid.
mpqopt::Status VerifyAgainstSerial(const CheckedResult& check);

/// serving_mix's op stream of one session, as text ("t17", "n3", "r5"):
/// a template, a novel query, or a statistics refresh of a relation.
std::vector<std::string> ServingMixOps(uint64_t seed, int session,
                                       int count);

/// Runs `requests` serving_mix ops of session 0 alone against a fresh
/// warm service and returns {cache misses the service counted, misses the
/// stream predicts}: novel queries plus first sights of a (template,
/// statistics version) after a refresh.
std::pair<uint64_t, uint64_t> ServingMixReplayMisses(uint64_t seed,
                                                     int requests);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
