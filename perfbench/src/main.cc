// Copyright 2026 mpqopt authors.
//
// perfbench — one run of one workload, printed as human-readable lines
// followed by a single JSON result line (always the last line of stdout):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch-dir DIR] [--source REV]
//
// --trace 0 measures the end-to-end metrics on an untraced service, as
// interquartile means over windows of a fixed number of consecutive
// requests.
// --trace 1 alternates untraced and traced phases (two of each, the
// traced ones at most 2 s) and reports the per-layer metrics, with a
// table of where each millisecond of a traced request goes.
//
// Exit status: 0 when every output was correct, 1 when a check failed
// (the JSON line says so), 2 when the run could not be made at all (no
// JSON line).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "host.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mpqopt::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir = ".";
  std::string source;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// One timed phase over one environment.
struct Phase {
  std::vector<SessionLog> logs;
  /// Untraced run: the end-to-end figures of each full request window.
  std::vector<WindowFigures> windows;
  /// Per-layer run: full histograms of the phase.
  mpqopt::obs::HistogramSnapshot latency_ms, hit_latency_ms,
      service_overhead_ms;
  ClosedLoopTally tally;
  double peak_rss_mb = 0;
  std::vector<double> probe_ns;
  mpqopt::ServiceStats before, after;
  mpqopt::BackendHealth health;
  std::vector<SpanEvent> spans;
};

/// The reference kernel, best of three: a sample taken while sessions
/// keep every core busy is otherwise inflated by preemption.
double HostProbe() {
  return std::min({ProbeNanos(), ProbeNanos(), ProbeNanos()});
}

double WorkerCpu(const std::vector<pid_t>& pids) {
  double cpu = 0;
  for (const pid_t pid : pids) cpu += ProcessCpuSeconds(pid);
  return cpu;
}

/// Runs the timed phase on the environment `workload` has set up. The
/// untraced run (`detailed` false) keeps request windows only; the
/// per-layer run keeps histograms and per-round records. With a
/// collector (the one the environment's service records into), its
/// spans go through a scratch file at `trace_path` and are read back,
/// set-up traces excluded.
Phase RunPhase(Workload& workload, double seconds, bool detailed,
               uint64_t setup_traces, mpqopt::obs::TraceCollector* collector,
               const std::string& trace_path) {
  Phase phase;
  const int sessions = workload.budget().sessions;
  const std::vector<pid_t> workers = workload.worker_pids();
  phase.logs.resize(sessions);
  std::unique_ptr<WindowRecorder> windows;
  std::unique_ptr<mpqopt::obs::Histogram> latency, hits, overhead;
  if (detailed) {
    latency = std::make_unique<mpqopt::obs::Histogram>(LatencyBoundsMs());
    hits = std::make_unique<mpqopt::obs::Histogram>(LatencyBoundsMs());
    overhead = std::make_unique<mpqopt::obs::Histogram>(LatencyBoundsMs());
    for (SessionLog& log : phase.logs) {
      log.latency_ms = latency.get();
      log.hit_latency_ms = hits.get();
      log.service_overhead_ms = overhead.get();
      log.keep_rounds = true;
    }
  } else {
    // A window is charged the CPU of the whole process and its rpc
    // workers, which is the window's own only with one session.
    MPQOPT_CHECK_EQ(sessions, 1);
    windows = std::make_unique<WindowRecorder>(
        workload.window_requests(),
        [&] { return SelfCpuSeconds() + WorkerCpu(workers); });
    windows->Start();
    phase.logs[0].windows = windows.get();
  }
  phase.before = workload.service().stats();
  phase.tally = RunClosedLoop(
      sessions, seconds,
      [&](int s, Clock::time_point deadline) {
        workload.RunSession(s, deadline, &phase.logs[s]);
        return phase.logs[s].attempted - phase.logs[s].failed;
      },
      [&] { phase.probe_ns.push_back(HostProbe()); });
  if (detailed) {
    phase.latency_ms = latency->Snapshot();
    phase.hit_latency_ms = hits->Snapshot();
    phase.service_overhead_ms = overhead->Snapshot();
  } else {
    phase.windows = windows->windows();
  }
  phase.after = workload.service().stats();
  phase.health = workload.service().backend().health();
  // Peaks since ResetPeakRss() before this environment's set-up; the rpc
  // workers were spawned by it.
  phase.peak_rss_mb = PeakRssMb(0);
  for (const pid_t pid : workers) phase.peak_rss_mb += PeakRssMb(pid);
  if (collector != nullptr) {
    Status s = collector->WriteChromeTraceTo(trace_path);
    if (s.ok()) s = ParseChromeTrace(trace_path, &phase.spans);
    std::remove(trace_path.c_str());  // tens of MB on serving_mix
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    std::erase_if(phase.spans, [&](const SpanEvent& e) {
      return e.trace_id <= setup_traces;
    });
  }
  return phase;
}

/// Correctness of everything the sessions recorded: sampled results
/// against the serial optimum, and plan-cache answers against the plan
/// their miss produced. Returns the number of wrong outputs.
uint64_t CheckOutputs(const std::vector<SessionLog>& logs) {
  uint64_t wrong = 0;
  size_t checked = 0;
  std::unordered_map<uint64_t, uint64_t> signatures;
  for (const SessionLog& log : logs) {
    wrong += log.signature_mismatches;
    for (const auto& [key, signature] : log.signatures) {
      const auto [it, inserted] = signatures.emplace(key, signature);
      if (!inserted && it->second != signature) ++wrong;
    }
    for (const CheckedResult& check : log.checks) {
      ++checked;
      const Status s = VerifyAgainstSerial(check);
      if (!s.ok()) {
        ++wrong;
        std::printf("check failed: %s\n", s.ToString().c_str());
      }
    }
  }
  std::printf("checks: %zu results against the serial optimum, %zu plan "
              "signatures, %llu wrong\n",
              checked, signatures.size(),
              static_cast<unsigned long long>(wrong));
  return wrong;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/// Every timing figure is the interquartile mean over all full request
/// windows of the run's segments; peak RSS and set-up time are medians
/// over the segments and set-ups. Returns no metrics when no window
/// completed.
std::vector<Metric> EndToEnd(const std::vector<Phase>& segments,
                             const std::vector<double>& setup_s,
                             uint64_t attempted, uint64_t wrong) {
  std::vector<double> p50, tail, throughput, cpu, rss;
  uint64_t ok = 0, windowed = 0;
  double percentile = 0;
  for (const Phase& p : segments) {
    const size_t first = p50.size();
    for (const WindowFigures& w : p.windows) {
      p50.push_back(w.p50_ms);
      tail.push_back(w.tail.value);
      throughput.push_back(w.Throughput());
      cpu.push_back(w.CpuMsPerQuery());
      windowed += w.requests;
      percentile = w.tail.percentile;
    }
    ok += p.tally.completed;
    rss.push_back(p.peak_rss_mb);
    const auto iqm = [&](const std::vector<double>& v) {
      return InterquartileMean(
          std::vector<double>(v.begin() + first, v.end()));
    };
    std::printf("segment: %llu requests, %zu windows; window IQMs "
                "p50=%.6f p%g=%.6f ms %.2f/s cpu=%.6f ms; rss=%.2f MB\n",
                static_cast<unsigned long long>(p.tally.completed),
                p.windows.size(), iqm(p50), percentile, iqm(tail),
                iqm(throughput), iqm(cpu), rss.back());
  }
  if (p50.empty()) return {};
  std::printf("windows: %zu of %llu requests each, tail = p%g\n", p50.size(),
              static_cast<unsigned long long>(windowed / p50.size()),
              percentile);
  return {
      {"latency_p50_ms", InterquartileMean(p50), "ms", windowed},
      {"latency_tail_ms", InterquartileMean(tail), "ms", windowed},
      {"throughput_qps", InterquartileMean(throughput), "1/s", windowed},
      {"success_rate",
       attempted == 0 ? 0 : static_cast<double>(ok - std::min(ok, wrong)) /
                                static_cast<double>(attempted),
       "ratio", attempted},
      {"cpu_ms_per_query", InterquartileMean(cpu), "ms", windowed},
      {"peak_rss_mb", Median(rss), "MB", rss.size()},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
  };
}

/// Per-layer metrics: outside measurements from the untraced phases,
/// span-derived ones from the traced phases.
std::vector<Metric> PerLayer(const std::vector<Phase>& off,
                             const std::vector<Phase>& on,
                             const LayerTable& table) {
  mpqopt::obs::HistogramSnapshot untraced, traced, hit, overhead;
  std::vector<double> invalidate_us, master_ms, round_ms, cluster_overhead_ms,
      worker_max_ms, skew, bytes, messages, plans, probes;
  double worker_ms = 0, plans_costed = 0, memo_sets = 0, memo_max = 0;
  uint64_t hits = 0, lookups = 0, ev_capacity = 0, ev_ttl = 0, ev_inval = 0,
           rescattered = 0, reconnects = 0;
  for (const Phase& p : off) {
    MergeSnapshot(p.latency_ms, &untraced);
    MergeSnapshot(p.hit_latency_ms, &hit);
    MergeSnapshot(p.service_overhead_ms, &overhead);
    for (const SessionLog& log : p.logs) {
      invalidate_us.insert(invalidate_us.end(), log.invalidate_us.begin(),
                           log.invalidate_us.end());
      for (const RoundRecord& r : log.rounds) {
        master_ms.push_back(r.master_ms);
        round_ms.push_back(r.wall_ms - r.master_ms);
        cluster_overhead_ms.push_back(r.wall_ms - r.master_ms -
                                      r.worker_max_ms);
        worker_max_ms.push_back(r.worker_max_ms);
        if (r.worker_sum_ms > 0) {
          skew.push_back(r.worker_max_ms * static_cast<double>(r.partitions) /
                         r.worker_sum_ms);
        }
        bytes.push_back(static_cast<double>(r.bytes));
        messages.push_back(static_cast<double>(r.messages));
        plans.push_back(static_cast<double>(r.plans_costed));
        worker_ms += r.worker_sum_ms;
        plans_costed += static_cast<double>(r.plans_costed);
        memo_sets += static_cast<double>(r.memo_sets_sum);
        memo_max = std::max(memo_max, static_cast<double>(r.memo_sets_max));
      }
    }
    hits += p.after.cache_hits - p.before.cache_hits;
    lookups += p.after.cache_hits - p.before.cache_hits +
               p.after.cache_misses - p.before.cache_misses;
    ev_capacity +=
        p.after.cache_evictions_capacity - p.before.cache_evictions_capacity;
    ev_ttl += p.after.cache_evictions_ttl - p.before.cache_evictions_ttl;
    ev_inval += p.after.cache_evictions_invalidated -
                p.before.cache_evictions_invalidated;
    rescattered += p.health.tasks_rescattered;
    reconnects += p.health.reconnects;
  }
  std::vector<double> serialize_us, finalize_us, codec_us;
  for (const Phase& p : on) {
    MergeSnapshot(p.latency_ms, &traced);
    // Worker envelope time outside the task itself, summed per request.
    std::map<uint64_t, double> codec_by_trace;
    for (const SpanEvent& e : p.spans) {
      if (e.name == "mpq.serialize") serialize_us.push_back(e.dur_us);
      if (e.name == "mpq.finalize") finalize_us.push_back(e.dur_us);
      if (e.name == "worker.serve") codec_by_trace[e.trace_id] += e.dur_us;
      if (e.name == "worker.compute") codec_by_trace[e.trace_id] -= e.dur_us;
    }
    for (const auto& [id, us] : codec_by_trace) codec_us.push_back(us);
  }
  for (const std::vector<Phase>* phases : {&off, &on}) {
    for (const Phase& p : *phases) {
      probes.insert(probes.end(), p.probe_ns.begin(), p.probe_ns.end());
    }
  }
  const double untraced_p50 = untraced.Percentile(50);
  const size_t n = round_ms.size();
  return {
      {"service.overhead_us", overhead.Percentile(50) * 1e3, "us",
       overhead.count},
      {"plancache.hit_ratio",
       lookups == 0 ? 0 : static_cast<double>(hits) / lookups, "ratio",
       lookups},
      {"plancache.hit_us", hit.Percentile(50) * 1e3, "us", hit.count},
      {"plancache.invalidate_p50_us", Median(invalidate_us), "us",
       invalidate_us.size()},
      {"plancache.invalidate_max_us",
       invalidate_us.empty()
           ? 0
           : *std::max_element(invalidate_us.begin(), invalidate_us.end()),
       "us", invalidate_us.size()},
      {"plancache.evictions_capacity", static_cast<double>(ev_capacity),
       "count", 1},
      {"plancache.evictions_ttl", static_cast<double>(ev_ttl), "count", 1},
      {"plancache.evictions_invalidated", static_cast<double>(ev_inval),
       "count", 1},
      {"mpq.serialize_us", Median(serialize_us), "us", serialize_us.size()},
      {"mpq.finalize_us", Median(finalize_us), "us", finalize_us.size()},
      {"mpq.master_ms", Median(master_ms), "ms", n},
      {"cluster.round_ms", Median(round_ms), "ms", n},
      {"cluster.overhead_ms", Median(cluster_overhead_ms), "ms", n},
      {"cluster.worker_codec_us", Median(codec_us), "us", codec_us.size()},
      {"cluster.rescattered", static_cast<double>(rescattered), "count", 1},
      {"cluster.reconnects", static_cast<double>(reconnects), "count", 1},
      {"net.bytes_per_query", Mean(bytes), "bytes", n},
      {"net.messages_per_query", Mean(messages), "count", n},
      {"dp.ns_per_plan_costed",
       plans_costed == 0 ? 0 : worker_ms * 1e6 / plans_costed, "ns", n},
      {"dp.ns_per_admissible_set",
       memo_sets == 0 ? 0 : worker_ms * 1e6 / memo_sets, "ns", n},
      {"dp.plans_costed_per_query", Mean(plans), "count", n},
      {"dp.admissible_sets_max", memo_max, "count", n},
      {"dp.worker_ms_max", Median(worker_max_ms), "ms", n},
      {"dp.partition_skew", Median(skew), "ratio", skew.size()},
      {"obs.trace_overhead_pct",
       untraced_p50 == 0
           ? 0
           : (traced.Percentile(50) - untraced_p50) / untraced_p50 * 100,
       "%", traced.count},
      {"host.probe_ns", Median(probes), "ns", probes.size()},
      {"unattributed_ms", table.MeanUnattributedMs(), "ms", table.requests},
      {"self.service_ms", table.MeanMs("service"), "ms", table.requests},
      {"self.plancache_ms", table.MeanMs("plancache"), "ms", table.requests},
      {"self.mpq_serialize_ms", table.MeanMs("mpq.serialize"), "ms",
       table.requests},
      {"self.mpq_finalize_ms", table.MeanMs("mpq.finalize"), "ms",
       table.requests},
      {"self.cluster_ms", table.MeanMs("cluster"), "ms", table.requests},
      {"self.worker_codec_ms", table.MeanMs("cluster.worker_codec"), "ms",
       table.requests},
      {"self.dp_ms", table.MeanMs("dp"), "ms", table.requests},
  };
}

void PrintLayerTable(const std::string& title, const LayerTable& table) {
  if (table.requests == 0) return;
  std::printf("\n%s: %llu traced requests, mean ms per request\n",
              title.c_str(), static_cast<unsigned long long>(table.requests));
  const double total = table.MeanLatencyMs();
  const auto row = [&](const char* name, double ms) {
    std::printf("  %-22s %12.4f ms  %6.2f%%\n", name, ms,
                total > 0 ? ms / total * 100 : 0);
  };
  for (const char* layer : {"service", "admission", "plancache",
                            "mpq.serialize", "cluster", "cluster.worker_codec",
                            "dp", "mpq.finalize"}) {
    row(layer, table.MeanMs(layer));
  }
  row("unattributed", table.MeanUnattributedMs());
  std::printf("  %-22s %12.4f ms\n", "traced latency", total);
  if (table.unknown_spans > 0) {
    std::printf("  (%llu spans of unknown name folded into their parents)\n",
                static_cast<unsigned long long>(table.unknown_spans));
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6f %-6s samples=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch-dir") {
      args->scratch_dir = value;
    } else if (flag == "--source") {
      args->source = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const HostFingerprint host = ReadHostFingerprint(args.source);
  const ThreadBudget budget = workload->budget();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host cpu=\"%s\" nproc=%d build=%s source=%s\n",
              host.cpu_model.c_str(), host.nproc, host.build_type.c_str(),
              host.source.c_str());
  std::printf("budget sessions=%d pool_threads=%d worker_processes=%d "
              "total=%d nproc=%d\n",
              budget.sessions, budget.pool_threads, budget.worker_processes,
              budget.Total(), host.nproc);
  const Status fits = CheckBudget(budget, host.nproc);
  if (!fits.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", fits.ToString().c_str());
    return 2;
  }
  std::vector<double> probe_before;
  for (int i = 0; i < 3; ++i) probe_before.push_back(ProbeNanos());

  // The untraced run is split into segments, each on a fresh environment
  // (service, threads, cache, rpc workers, allocations) so that no one
  // environment's placement on the host's cores sets the figures. More
  // set-ups than segments are made, spread over the run: set-up takes
  // tens of milliseconds and is reported as their median.
  constexpr int kSegments = 4;
  constexpr int kSetupsPerSegment = 3;
  std::vector<double> setup_s;
  std::vector<Phase> off, on;
  // Every traced request, and split into plan-cache hits and requests
  // that ran a worker round (serving_mix's median is a hit).
  LayerTable table, hit_table, round_table;
  const auto setup = [&](mpqopt::obs::TraceCollector* collector) {
    ResetPeakRss();
    const auto start = Clock::now();
    const Status s = workload->SetUp(collector);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  };
  if (!args.trace) {
    for (int i = 0; i < kSegments * kSetupsPerSegment; ++i) {
      setup(nullptr);
      if (i % kSetupsPerSegment == 0) {
        off.push_back(RunPhase(*workload, args.seconds / kSegments, false, 0,
                               nullptr, ""));
      }
      workload->TearDown();
    }
  } else {
    // Untraced and traced phases alternate, so a host-speed epoch lands
    // on both sides of the trace-overhead comparison.
    const std::string trace_path =
        args.scratch_dir + "/perfbench-trace-" + args.workload + ".json";
    // Traced phases are capped: the collector keeps every span until the
    // phase ends, and serving_mix completes ~10^5 requests a second.
    const double traced_seconds = std::min(args.seconds / 4, 2.0);
    const double untraced_seconds = args.seconds / 2 - traced_seconds;
    for (int i = 0; i < 4; ++i) {
      const bool traced = i % 2 == 1;
      std::unique_ptr<mpqopt::obs::TraceCollector> collector;
      if (traced) {
        collector = std::make_unique<mpqopt::obs::TraceCollector>(
            mpqopt::obs::TraceCollectorOptions());
      }
      setup(collector.get());
      const uint64_t setup_traces = traced ? collector->collected() : 0;
      Phase phase = RunPhase(*workload,
                             traced ? traced_seconds : untraced_seconds, true,
                             setup_traces, collector.get(), trace_path);
      workload->TearDown();
      if (traced) {
        std::map<uint64_t, std::vector<SpanEvent>> by_trace;
        for (const SpanEvent& e : phase.spans) {
          by_trace[e.trace_id].push_back(e);
        }
        for (const auto& [id, spans] : by_trace) {
          const bool round =
              std::any_of(spans.begin(), spans.end(), [](const SpanEvent& e) {
                return e.name == "mpq.round";
              });
          table.AddTrace(spans);
          (round ? round_table : hit_table).AddTrace(spans);
        }
        table.traced_latency_ms += phase.latency_ms.sum;
        hit_table.traced_latency_ms += phase.hit_latency_ms.sum;
        round_table.traced_latency_ms +=
            phase.latency_ms.sum - phase.hit_latency_ms.sum;
        on.push_back(std::move(phase));
      } else {
        off.push_back(std::move(phase));
      }
    }
  }
  std::vector<double> probe_after;
  for (int i = 0; i < 3; ++i) probe_after.push_back(ProbeNanos());

  uint64_t attempted = 0, failed = 0, misses = 0, predicted_misses = 0;
  std::vector<double> during;
  for (const std::vector<Phase>* phases : {&off, &on}) {
    for (const Phase& p : *phases) {
      for (const SessionLog& log : p.logs) {
        attempted += log.attempted;
        failed += log.failed;
        predicted_misses += log.predicted_misses;
      }
      misses += p.after.cache_misses - p.before.cache_misses;
      during.insert(during.end(), p.probe_ns.begin(), p.probe_ns.end());
    }
  }
  const auto [low, high] = std::minmax_element(during.begin(), during.end());
  std::printf("host.probe_ns before=%.4f during=%.4f [%.4f..%.4f] (n=%zu) "
              "after=%.4f\n",
              Median(probe_before), Median(during),
              during.empty() ? 0 : *low, during.empty() ? 0 : *high,
              during.size(), Median(probe_after));
  std::printf("requests attempted=%llu failed=%llu cache_misses=%llu "
              "(sessions' own streams predict %llu)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(predicted_misses));

  uint64_t wrong = 0;
  for (std::vector<Phase>* phases : {&off, &on}) {
    for (Phase& p : *phases) wrong += CheckOutputs(p.logs);
  }
  const bool correct = wrong == 0 && failed == 0 && attempted > 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(off, setup_s, attempted, wrong);
    if (metrics.empty()) {
      std::fprintf(stderr, "perfbench: no request window of %zu requests "
                   "completed; the run is too short\n",
                   workload->window_requests());
      return 2;
    }
  } else {
    PrintLayerTable("where a traced " + args.workload + " request's time goes",
                    table);
    if (hit_table.requests > 0 && round_table.requests > 0) {
      PrintLayerTable("  of which plan-cache hits", hit_table);
      PrintLayerTable("  of which worker rounds", round_table);
    }
    std::printf("\n");
    metrics = PerLayer(off, on, table);
  }
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed + wrong,
              metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch-dir DIR] [--source REV]\n");
    return 2;
  }
  return perfbench::Run(args);
}
