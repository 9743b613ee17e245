// Copyright 2026 mpqopt authors.
//
// The benchmark's own math, kept apart from the workloads so the
// self-tests (tests/selftest.cc) can pin it: the tail-percentile rule,
// the request windows a run's end-to-end figures come from, closed-loop
// accounting, and the per-layer self-time attribution of a traced
// request.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

/// Median of `values` (0 for an empty sample).
double Median(std::vector<double> values);

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (rounded down) are dropped. A run reports each figure this way
/// over its request windows. A noisy-neighbour episode that slows fewer
/// than a quarter of the windows does not move it, and when the host
/// switches between a fast and a slow speed for seconds at a time the
/// figure moves smoothly with the share of slow windows, where a median
/// would jump from one speed to the other.
double InterquartileMean(std::vector<double> values);

/// Bucket bounds of the benchmark's latency histograms, in milliseconds:
/// geometric, 0.07% apart, from 0.1 us to 100 s. An interpolated
/// percentile lands within 0.07% of the sample percentile, and memory
/// stays fixed however many requests a run completes (so the benchmark's
/// own bookkeeping does not grow peak RSS with the host's speed).
const std::vector<double>& LatencyBoundsMs();

/// Adds `from`'s counts to `into` (same bounds; `into` may be empty).
void MergeSnapshot(const mpqopt::obs::HistogramSnapshot& from,
                   mpqopt::obs::HistogramSnapshot* into);

/// A tail latency and the percentile it was read at.
struct TailPercentile {
  double value = 0;
  /// 99.9, 99 or 90; 100 (the maximum) when fewer than 100 samples exist.
  double percentile = 100;
};

/// The highest of p90 / p99 / p99.9 that has at least ten samples beyond
/// it, so the reported tail is never just the largest sample or two.
TailPercentile TailLatency(std::vector<double> latency_ms);

/// End-to-end figures of one window of consecutive requests.
struct WindowFigures {
  uint64_t requests = 0;
  double p50_ms = 0;
  TailPercentile tail;
  double seconds = 0;      ///< first request's start to last one's end
  double cpu_seconds = 0;  ///< CPU charged over the same requests
  double Throughput() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
  double CpuMsPerQuery() const {
    return requests > 0 ? cpu_seconds * 1e3 / static_cast<double>(requests)
                        : 0;
  }
};

/// Cuts a closed-loop session's requests into windows of a fixed number
/// of consecutive requests and keeps only each window's figures, so
/// memory stays fixed however many requests a run completes. With a
/// fixed count the tail rule reads
/// the same percentile in every window whatever the host's speed. The
/// benchmark's own work at a window boundary (summarising the window,
/// reading CPU clocks) falls outside every window's wall and CPU time. A
/// partial last window is dropped.
class WindowRecorder {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// `cpu_seconds()` reads the CPU clock the windows are charged with.
  WindowRecorder(size_t window_requests, std::function<double()> cpu_seconds);

  /// Reads the CPU clock for the first window; call right before the
  /// first request.
  void Start();

  /// Files one successful request that ran from `start` to `end`.
  void Record(TimePoint start, TimePoint end);

  const std::vector<WindowFigures>& windows() const { return windows_; }

 private:
  const size_t window_requests_;
  const std::function<double()> cpu_seconds_;
  std::vector<double> latency_ms_;
  TimePoint first_start_;
  double cpu_start_ = 0;
  std::vector<WindowFigures> windows_;
};

/// Closed-loop accounting: every session sends its next request only
/// after the previous one returned, and keeps sending until the deadline;
/// requests in flight at the deadline are allowed to finish. Throughput
/// is completed requests over the whole timed wall (release of the
/// sessions until the last one finished), so the drained tail counts in
/// both numerator and denominator.
struct ClosedLoopTally {
  uint64_t completed = 0;
  double wall_seconds = 0;
  double Throughput() const {
    return wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds
                            : 0;
  }
};

/// One span of a collected trace, as the program's trace collector
/// exports it (obs::TraceCollector::WriteChromeTraceTo).
struct SpanEvent {
  std::string name;
  uint64_t trace_id = 0;
  double start_us = 0;
  double dur_us = 0;
};

/// Reads the collector's Chrome trace-event JSON (one event per line).
mpqopt::Status ParseChromeTrace(const std::string& path,
                                std::vector<SpanEvent>* events);

/// Self time per layer of one traced request, in milliseconds. Each span
/// name maps to a layer and a fixed nesting depth (stats.cc). Every
/// instant of the root span (service.optimize) goes to the deepest
/// spans open at that instant, split evenly when several run in parallel
/// (partition tasks on pool threads, rpc lanes), so the layers sum to
/// the root span exactly. Spans of unknown names are ignored and their
/// time stays with the enclosing span; `unknown` (if non-null) counts
/// them.
std::map<std::string, double> AttributeSelfTime(
    const std::vector<SpanEvent>& trace, uint64_t* unknown);

/// Per-layer means over many traced requests. `unattributed_ms` is the
/// benchmark's own timer around each Optimize call minus the root span:
/// the trace lifecycle and call overhead no span covers. Layers plus
/// unattributed sum to the mean traced latency.
struct LayerTable {
  uint64_t requests = 0;
  double traced_latency_ms = 0;  ///< sum over requests
  double root_ms = 0;            ///< sum of root spans
  std::map<std::string, double> self_ms;  ///< sums per layer
  uint64_t unknown_spans = 0;

  void AddTrace(const std::vector<SpanEvent>& trace);
  double MeanMs(const std::string& layer) const;
  double MeanLatencyMs() const;
  double MeanUnattributedMs() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
