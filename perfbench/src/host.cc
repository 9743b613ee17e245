// Copyright 2026 mpqopt authors.

#include "host.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Fields 14 (utime) and 15 (stime) of /proc/<pid>/stat, in clock ticks,
/// and field 4 (ppid). The command name (field 2) may contain spaces, so
/// parsing starts after its closing parenthesis.
bool ReadStat(pid_t pid, long* ppid, double* cpu_seconds) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return false;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 2));
  std::string state;
  long parent = 0;
  fields >> state >> parent;
  std::string skip;
  for (int i = 5; i <= 13; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  if (!fields) return false;
  if (ppid != nullptr) *ppid = parent;
  if (cpu_seconds != nullptr) {
    *cpu_seconds = static_cast<double>(utime + stime) /
                   static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return true;
}

}  // namespace

HostFingerprint ReadHostFingerprint(const std::string& source) {
  HostFingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) fp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.nproc = OnlineCpus();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.source = source.empty() ? "unknown" : source;
  return fp;
}

int OnlineCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double ProbeNanos() {
  constexpr int kIterations = 1 << 18;
  // xorshift-multiply: every iteration depends on the previous one, so
  // the loop cannot be vectorized or overlapped; its time is the core's
  // clock, not its memory system.
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x2545F4914F6CDD1Dull;
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the result observable so the loop is not folded away.
  asm volatile("" : : "r"(x));
  return std::chrono::duration<double, std::nano>(end - start).count() /
         kIterations;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ProcessCpuSeconds(pid_t pid) {
  double cpu = 0;
  return ReadStat(pid, nullptr, &cpu) ? cpu : 0;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::vector<pid_t> ChildPids() {
  std::vector<pid_t> children;
  const pid_t self = ::getpid();
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return children;
  while (const dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    long ppid = 0;
    if (ReadStat(static_cast<pid_t>(pid), &ppid, nullptr) && ppid == self) {
      children.push_back(static_cast<pid_t>(pid));
    }
  }
  ::closedir(proc);
  return children;
}

mpqopt::Status CheckBudget(const ThreadBudget& budget, int nproc) {
  if (budget.Total() > nproc) {
    return mpqopt::Status::InvalidArgument(
        "workload needs " + std::to_string(budget.sessions) + " sessions + " +
        std::to_string(budget.pool_threads) + " pool threads + " +
        std::to_string(budget.worker_processes) +
        " worker processes = " + std::to_string(budget.Total()) +
        " busy cores, but this host has " + std::to_string(nproc));
  }
  return mpqopt::Status::OK();
}

}  // namespace perfbench
