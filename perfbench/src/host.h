// Copyright 2026 mpqopt authors.
//
// What the benchmark knows about the machine it runs on: a fingerprint
// stamped on every result, a fixed reference kernel that tracks the
// host's current CPU speed, process CPU/RSS readers for the master and
// its rpc worker children, and the thread/process budget guard.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Identifies the host and the binary a result came from.
struct HostFingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string build_type;
  /// Source revision of the measured tree (passed in by run.py).
  std::string source;
};

HostFingerprint ReadHostFingerprint(const std::string& source);

/// Online CPUs of this host.
int OnlineCpus();

/// Runs the reference kernel once (a fixed chain of dependent integer
/// operations, ~0.5 ms) and returns nanoseconds per iteration. The value
/// moves with the host's clock speed, not with the code under test.
double ProbeNanos();

/// CPU seconds (user + system) consumed so far by this process, all
/// threads.
double SelfCpuSeconds();

/// CPU seconds consumed so far by process `pid` (from /proc; 0 when the
/// process is gone).
double ProcessCpuSeconds(pid_t pid);

/// Peak resident set size of `pid` in MiB (VmHWM; 0 when unknown).
/// Pass 0 for this process.
double PeakRssMb(pid_t pid);

/// Returns freed heap to the system and restarts this process's peak RSS
/// (VmHWM) at its current RSS, so the next PeakRssMb(0) covers only what
/// happens after the call.
void ResetPeakRss();

/// Live child processes of this process (from the /proc ppid field).
std::vector<pid_t> ChildPids();

/// Threads and processes a workload keeps busy at once. The async
/// backend's submitting thread helps drain its own round, so sessions
/// and pool threads both burn a core.
struct ThreadBudget {
  int sessions = 0;
  int pool_threads = 0;
  int worker_processes = 0;
  int Total() const { return sessions + pool_threads + worker_processes; }
};

/// Refuses a budget that oversubscribes `nproc` cores: the measured
/// latency would then include time spent waiting for a CPU.
mpqopt::Status CheckBudget(const ThreadBudget& budget, int nproc);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
