// Copyright 2026 mpqopt authors.

#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/percentile.h"

namespace perfbench {

double Median(std::vector<double> values) {
  return mpqopt::obs::Percentile(std::move(values), 50);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    for (double b = 1e-4; b < 1e5; b *= 1.0007) bounds.push_back(b);
    return bounds;
  }();
  return kBounds;
}

void MergeSnapshot(const mpqopt::obs::HistogramSnapshot& from,
                   mpqopt::obs::HistogramSnapshot* into) {
  if (into->counts.empty()) {
    *into = from;
    return;
  }
  for (size_t b = 0; b < into->counts.size(); ++b) {
    into->counts[b] += from.counts[b];
  }
  into->count += from.count;
  into->sum += from.sum;
}

TailPercentile TailLatency(std::vector<double> latency_ms) {
  TailPercentile tail;
  const size_t n = latency_ms.size();
  // In per-mille, so that "10 samples beyond p99.9 of 10000" is exact.
  for (const size_t permille : {999, 990, 900}) {
    if (n * (1000 - permille) >= 10 * 1000) {
      tail.percentile = static_cast<double>(permille) / 10;
      break;
    }
  }
  tail.value = mpqopt::obs::Percentile(std::move(latency_ms), tail.percentile);
  return tail;
}

WindowRecorder::WindowRecorder(size_t window_requests,
                               std::function<double()> cpu_seconds)
    : window_requests_(window_requests), cpu_seconds_(std::move(cpu_seconds)) {
  latency_ms_.reserve(window_requests_);
}

void WindowRecorder::Start() { cpu_start_ = cpu_seconds_(); }

void WindowRecorder::Record(TimePoint start, TimePoint end) {
  if (latency_ms_.empty()) first_start_ = start;
  latency_ms_.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
  if (latency_ms_.size() < window_requests_) return;
  WindowFigures w;
  w.cpu_seconds = cpu_seconds_() - cpu_start_;
  w.seconds = std::chrono::duration<double>(end - first_start_).count();
  w.requests = latency_ms_.size();
  w.p50_ms = mpqopt::obs::Percentile(latency_ms_, 50);
  w.tail = TailLatency(std::move(latency_ms_));
  windows_.push_back(w);
  latency_ms_.clear();
  latency_ms_.reserve(window_requests_);
  cpu_start_ = cpu_seconds_();
}

mpqopt::Status ParseChromeTrace(const std::string& path,
                                std::vector<SpanEvent>* events) {
  std::ifstream in(path);
  if (!in) return mpqopt::Status::Internal("cannot read trace " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '{') continue;
    char name[96] = {0};
    unsigned long long tid = 0, trace_id = 0;
    double ts = 0, dur = 0;
    const int matched = std::sscanf(
        line.c_str(),
        "{\"name\":\"%95[^\"]\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
        "\"ts\":%lf,\"dur\":%lf,\"args\":{\"trace_id\":%llu",
        name, &tid, &ts, &dur, &trace_id);
    if (matched != 5) {
      return mpqopt::Status::Corruption("unexpected trace event: " + line);
    }
    events->push_back(SpanEvent{name, trace_id, ts, dur});
  }
  return mpqopt::Status::OK();
}

namespace {

/// The layer a span name belongs to and its nesting depth in the serving
/// stack (service.optimize = 0). Depth is fixed by the code structure,
/// so the export does not need to carry parent links. Unknown names
/// return false.
bool SpanLayer(const std::string& name, std::string* layer, int* depth) {
  struct Entry {
    const char* name;
    const char* layer;
    int depth;
  };
  // Mirrors where each span is opened in src/: the service root, its
  // admission/cache/master phases, the backend round, the rpc lanes and
  // exchanges, and the worker-side envelope grafted under the exchange.
  static const Entry kTable[] = {
      {"service.optimize", "service", 0},
      {"admission.quota", "admission", 1},
      {"admission.queue_wait", "admission", 1},
      {"cache.lookup", "plancache", 1},
      {"cache.insert", "plancache", 1},
      {"cache.flight_wait", "plancache", 1},
      {"mpq.serialize", "mpq.serialize", 1},
      {"mpq.finalize", "mpq.finalize", 1},
      {"mpq.round", "cluster", 1},
      {"compute", "dp", 2},
      {"rpc.scatter_pass", "cluster", 2},
      {"rpc.lane", "cluster", 3},
      {"rpc.exchange", "cluster", 4},
      {"worker.serve", "cluster.worker_codec", 5},
      {"worker.compute", "dp", 6},
  };
  for (const Entry& e : kTable) {
    if (name == e.name) {
      *layer = e.layer;
      *depth = e.depth;
      return true;
    }
  }
  return false;
}

}  // namespace

std::map<std::string, double> AttributeSelfTime(
    const std::vector<SpanEvent>& trace, uint64_t* unknown) {
  struct Known {
    std::string layer;
    int depth;
    double start, end;
  };
  std::vector<Known> spans;
  double root_start = 0, root_end = 0;
  bool have_root = false;
  for (const SpanEvent& e : trace) {
    Known k;
    if (!SpanLayer(e.name, &k.layer, &k.depth)) {
      if (unknown != nullptr) ++*unknown;
      continue;
    }
    k.start = e.start_us;
    k.end = e.start_us + e.dur_us;
    if (k.depth == 0) {
      root_start = k.start;
      root_end = k.end;
      have_root = true;
    }
    spans.push_back(k);
  }
  std::map<std::string, double> self_ms;
  if (!have_root) return self_ms;
  // Elementary intervals between consecutive span boundaries inside the
  // root; each goes to the deepest spans open across it.
  std::vector<double> cuts{root_start, root_end};
  for (const Known& k : spans) {
    cuts.push_back(std::clamp(k.start, root_start, root_end));
    cuts.push_back(std::clamp(k.end, root_start, root_end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<const Known*> deepest;
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double lo = cuts[c], hi = cuts[c + 1];
    int max_depth = -1;
    deepest.clear();
    for (const Known& k : spans) {
      if (k.start > lo || k.end < hi) continue;
      if (k.depth > max_depth) {
        max_depth = k.depth;
        deepest.clear();
      }
      if (k.depth == max_depth) deepest.push_back(&k);
    }
    const double share_ms =
        (hi - lo) / 1e3 / static_cast<double>(deepest.size());
    for (const Known* k : deepest) self_ms[k->layer] += share_ms;
  }
  return self_ms;
}

void LayerTable::AddTrace(const std::vector<SpanEvent>& trace) {
  ++requests;
  for (const auto& [layer, ms] : AttributeSelfTime(trace, &unknown_spans)) {
    self_ms[layer] += ms;
  }
  for (const SpanEvent& e : trace) {
    if (e.name == "service.optimize") root_ms += e.dur_us / 1e3;
  }
}

double LayerTable::MeanMs(const std::string& layer) const {
  const auto it = self_ms.find(layer);
  return it == self_ms.end() || requests == 0
             ? 0
             : it->second / static_cast<double>(requests);
}

double LayerTable::MeanLatencyMs() const {
  return requests == 0 ? 0 : traced_latency_ms / static_cast<double>(requests);
}

double LayerTable::MeanUnattributedMs() const {
  return requests == 0
             ? 0
             : (traced_latency_ms - root_ms) / static_cast<double>(requests);
}

}  // namespace perfbench
