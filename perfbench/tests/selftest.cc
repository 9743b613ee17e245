// Copyright 2026 mpqopt authors.
//
// Self-tests of the benchmark's own math and determinism:
//
//   python3 perfbench/run.py --selftest

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/generator.h"
#include "common/rng.h"
#include "host.h"
#include "mpq/mpq.h"
#include "obs/percentile.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

mpqopt::obs::HistogramSnapshot SnapshotOf(const std::vector<double>& ms) {
  mpqopt::obs::Histogram h(LatencyBoundsMs());
  for (const double v : ms) h.Record(v);
  return h.Snapshot();
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailLatency(Ramp(50)).percentile, 100);
  EXPECT_EQ(TailLatency(Ramp(99)).percentile, 100);
  EXPECT_EQ(TailLatency(Ramp(100)).percentile, 90);
  EXPECT_EQ(TailLatency(Ramp(999)).percentile, 90);
  EXPECT_EQ(TailLatency(Ramp(1000)).percentile, 99);
  EXPECT_EQ(TailLatency(Ramp(9999)).percentile, 99);
  EXPECT_EQ(TailLatency(Ramp(10000)).percentile, 99.9);
}

TEST(TailRule, ValueMatchesSamplePercentile) {
  EXPECT_DOUBLE_EQ(TailLatency(Ramp(1000)).value,
                   mpqopt::obs::Percentile(Ramp(1000), 99));
  EXPECT_DOUBLE_EQ(TailLatency(Ramp(50)).value, 50.0);
}

TEST(WindowFigures, InterquartileMeanDropsAQuarterAtEachEnd) {
  // Two slow and two fast outliers among eight windows are dropped.
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 2, 10, 11, 12, 13, 90, 95}), 11.5);
  // With two speed modes the figure follows the share of slow windows.
  EXPECT_DOUBLE_EQ(InterquartileMean({17, 17, 17, 17, 22, 22, 22, 22}), 19.5);
  EXPECT_DOUBLE_EQ(InterquartileMean({17, 17, 17, 22, 22, 22, 22, 22}),
                   (17 + 22 * 3) / 4.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({4, 8, 9}), 7.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({}), 0.0);
}

TEST(Windows, FixedCountWindowsDropThePartialLastOne) {
  using std::chrono::milliseconds;
  double cpu = 0;
  WindowRecorder recorder(100, [&] { return cpu; });
  recorder.Start();
  WindowRecorder::TimePoint t{};
  // 250 requests of 1..250 ms, back to back; each costs 2 ms of CPU.
  for (int i = 1; i <= 250; ++i) {
    const WindowRecorder::TimePoint start = t;
    t += milliseconds(i);
    cpu += 2e-3;
    recorder.Record(start, t);
  }
  ASSERT_EQ(recorder.windows().size(), 2u);
  const WindowFigures& second = recorder.windows()[1];
  EXPECT_EQ(second.requests, 100u);
  EXPECT_DOUBLE_EQ(second.p50_ms, 150.5);
  EXPECT_EQ(second.tail.percentile, 90);
  std::vector<double> window;
  for (int ms = 101; ms <= 200; ++ms) window.push_back(ms);
  EXPECT_DOUBLE_EQ(second.tail.value, mpqopt::obs::Percentile(window, 90));
  // Requests 101..200 ran back to back: 15050 ms, 100 closed loops.
  EXPECT_DOUBLE_EQ(second.seconds, 15.05);
  EXPECT_DOUBLE_EQ(second.Throughput(), 100 / 15.05);
  EXPECT_NEAR(second.CpuMsPerQuery(), 2.0, 1e-9);
}

TEST(LatencyHistogram, PercentilesWithinBucketWidthOfSamples) {
  mpqopt::Rng rng(42);
  std::vector<double> ms;
  for (int i = 0; i < 20000; ++i) {
    // Bimodal, like serving_mix: microsecond hits, millisecond misses.
    const bool hit = rng.UniformDouble() < 0.95;
    ms.push_back(hit ? 0.002 + 0.001 * rng.UniformDouble()
                     : 0.5 + 2.0 * rng.UniformDouble());
  }
  const mpqopt::obs::HistogramSnapshot h = SnapshotOf(ms);
  for (const double q : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = mpqopt::obs::Percentile(ms, q);
    EXPECT_NEAR(h.Percentile(q), exact, exact * 2e-3) << "p" << q;
  }
}

TEST(ClosedLoop, ThroughputIsCompletedOverWall) {
  const auto request = std::chrono::milliseconds(2);
  const ClosedLoopTally tally = RunClosedLoop(
      2, 0.4,
      [&](int, Clock::time_point deadline) {
        uint64_t done = 0;
        while (Clock::now() < deadline) {
          std::this_thread::sleep_for(request);
          ++done;
        }
        return done;
      },
      [] {});
  EXPECT_GE(tally.wall_seconds, 0.4);
  EXPECT_DOUBLE_EQ(tally.Throughput(),
                   static_cast<double>(tally.completed) / tally.wall_seconds);
  // Two sessions of back-to-back 2 ms requests: at most 1000 per second.
  EXPECT_LE(tally.Throughput(), 1000.0);
  EXPECT_GE(tally.Throughput(), 600.0);
}

TEST(ClosedLoop, InFlightRequestsFinishInsideTheWall) {
  // The deadline falls inside the only request: it still completes and
  // its full duration is in the wall.
  const ClosedLoopTally tally = RunClosedLoop(
      1, 0.01,
      [](int, Clock::time_point) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return uint64_t{1};
      },
      [] {});
  EXPECT_EQ(tally.completed, 1u);
  EXPECT_GE(tally.wall_seconds, 0.1);
}

SpanEvent Ev(const char* name, double start_ms, double end_ms) {
  return SpanEvent{name, 1, start_ms * 1e3, (end_ms - start_ms) * 1e3};
}

TEST(LayerAttribution, SelfTimesSumToRootAndSplitParallelWork) {
  const std::vector<SpanEvent> trace = {
      Ev("service.optimize", 0, 10),
      Ev("not.a.layer", 0.5, 0.7),
      Ev("mpq.serialize", 1, 2),
      Ev("mpq.round", 2, 8),
      Ev("compute", 2, 6),
      Ev("compute", 3, 8),
      Ev("mpq.finalize", 8, 9.5),
  };
  uint64_t unknown = 0;
  const std::map<std::string, double> self = AttributeSelfTime(trace, &unknown);
  EXPECT_EQ(unknown, 1u);
  EXPECT_NEAR(self.at("service"), 1.5, 1e-9);
  EXPECT_NEAR(self.at("mpq.serialize"), 1.0, 1e-9);
  EXPECT_NEAR(self.at("dp"), 6.0, 1e-9);
  EXPECT_NEAR(self.at("mpq.finalize"), 1.5, 1e-9);
  EXPECT_EQ(self.count("cluster"), 0u);  // the round was all compute
  double sum = 0;
  for (const auto& [layer, ms] : self) sum += ms;
  EXPECT_NEAR(sum, 10.0, 1e-9);
}

TEST(LayerAttribution, LayersPlusUnattributedSumToTracedLatency) {
  LayerTable table;
  table.AddTrace({Ev("service.optimize", 0, 10), Ev("mpq.round", 1, 9),
                  Ev("rpc.scatter_pass", 1, 9), Ev("rpc.lane", 1, 9),
                  Ev("rpc.exchange", 1, 5), Ev("worker.serve", 2, 4),
                  Ev("worker.compute", 2.5, 3.5)});
  table.AddTrace({Ev("service.optimize", 0, 2), Ev("cache.lookup", 0.5, 1)});
  table.traced_latency_ms = 10.3 + 2.1;  // the benchmark's own timers
  double layers = 0;
  for (const char* layer : {"service", "plancache", "mpq.serialize", "cluster",
                            "cluster.worker_codec", "dp", "mpq.finalize"}) {
    layers += table.MeanMs(layer);
  }
  EXPECT_NEAR(table.MeanUnattributedMs(), 0.2, 1e-9);
  EXPECT_NEAR(layers + table.MeanUnattributedMs(), table.MeanLatencyMs(), 1e-9);
  EXPECT_NEAR(table.MeanMs("cluster.worker_codec"), 1.0 / 2, 1e-9);
  EXPECT_NEAR(table.MeanMs("dp"), 1.0 / 2, 1e-9);
}

TEST(ChromeTrace, ParsesWhatTheCollectorWrites) {
  mpqopt::obs::TraceCollector collector{mpqopt::obs::TraceCollectorOptions()};
  std::unique_ptr<mpqopt::obs::QueryTrace> trace = collector.StartTrace("t");
  {
    mpqopt::obs::TraceContextScope scope(trace.get(), mpqopt::obs::kNoSpan);
    mpqopt::obs::Span root("service.optimize");
    mpqopt::obs::Span child("cache.lookup");
  }
  collector.Collect(std::move(trace));
  char exe[4096] = {0};
  ASSERT_GT(::readlink("/proc/self/exe", exe, sizeof(exe) - 1), 0);
  const std::string path = std::string(exe) + ".trace.json";
  ASSERT_TRUE(collector.WriteChromeTraceTo(path).ok());
  std::vector<SpanEvent> events;
  ASSERT_TRUE(ParseChromeTrace(path, &events).ok());
  ::unlink(path.c_str());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "service.optimize");
  EXPECT_EQ(events[1].name, "cache.lookup");
  EXPECT_EQ(events[0].trace_id, events[1].trace_id);
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
}

TEST(ServingMix, SameSeedSameStream) {
  const std::vector<std::string> a = ServingMixOps(7, 0, 20000);
  EXPECT_EQ(a, ServingMixOps(7, 0, 20000));
  EXPECT_NE(a, ServingMixOps(8, 0, 20000));
  EXPECT_NE(a, ServingMixOps(7, 1, 20000));
  int templates = 0, novel = 0, refresh = 0;
  for (const std::string& op : a) {
    templates += op[0] == 't';
    novel += op[0] == 'n';
    refresh += op[0] == 'r';
  }
  EXPECT_GT(templates, 18000);
  EXPECT_GT(novel, 500);
  EXPECT_GT(refresh, 5);
}

TEST(ServingMix, SameSeedSameMissCountAndTheStreamPredictsIt) {
  const auto first = ServingMixReplayMisses(7, 20000);
  const auto second = ServingMixReplayMisses(7, 20000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.first, first.second);
  EXPECT_GT(first.first, 500u);
}

TEST(Budget, RefusesMoreBusyThreadsThanCores) {
  EXPECT_TRUE(CheckBudget({2, 2, 0}, 4).ok());
  EXPECT_TRUE(CheckBudget({2, 0, 2}, 4).ok());
  EXPECT_FALSE(CheckBudget({2, 2, 1}, 4).ok());
  EXPECT_FALSE(CheckBudget({1, 3, 0}, 2).ok());
}

CheckedResult OptimizedCheck(int tables, mpqopt::Objective objective) {
  CheckedResult check;
  mpqopt::GeneratorOptions gen;
  gen.shape = mpqopt::JoinGraphShape::kChain;
  check.query = mpqopt::QueryGenerator(gen, 5).Generate(tables);
  check.options.objective = objective;
  check.options.alpha = 1.0;  // exact frontiers, as rpc_scatter runs them
  check.options.num_workers = 4;
  mpqopt::StatusOr<mpqopt::MpqResult> r =
      mpqopt::MpqOptimizer(check.options).Optimize(check.query);
  MPQOPT_CHECK(r.ok());
  check.arena = r.value().arena;
  check.best = r.value().best;
  return check;
}

TEST(Verification, AcceptsMpqAndRejectsAPlanForOtherStatistics) {
  for (const mpqopt::Objective objective :
       {mpqopt::Objective::kTime, mpqopt::Objective::kTimeAndBuffer}) {
    CheckedResult check = OptimizedCheck(7, objective);
    EXPECT_TRUE(VerifyAgainstSerial(check).ok());
    // The same plan checked against different statistics is wrong.
    std::vector<mpqopt::TableInfo> tables = check.query.tables();
    tables[0].cardinality *= 7;
    check.query = mpqopt::Query(tables, check.query.predicates());
    EXPECT_FALSE(VerifyAgainstSerial(check).ok());
  }
}

TEST(Verification, SignatureIgnoresWhichArenaHoldsThePlan) {
  const CheckedResult check = OptimizedCheck(6, mpqopt::Objective::kTime);
  mpqopt::PlanArena copy;
  std::vector<mpqopt::PlanId> best;
  for (const mpqopt::PlanId id : check.best) {
    best.push_back(mpqopt::CopyPlan(check.arena, id, &copy));
  }
  EXPECT_EQ(PlanSignature(copy, best), PlanSignature(check.arena, check.best));
  const CheckedResult other = OptimizedCheck(7, mpqopt::Objective::kTime);
  EXPECT_NE(PlanSignature(other.arena, other.best),
            PlanSignature(check.arena, check.best));
}

}  // namespace
}  // namespace perfbench
