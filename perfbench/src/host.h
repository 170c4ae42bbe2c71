// Host and thread stamp: which machine and build a result came from,
// the process's threads, and which of them were busy during a phase.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Machine, toolchain and run identity, printed with every result.
struct HostStamp {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  uint64_t seed = 0;
};

HostStamp MakeHostStamp(const std::string& git_sha, uint64_t seed);

/// The stamp as one JSON object.
std::string HostStampJson(const HostStamp& stamp);

/// Names the calling thread for its lifetime; threads it spawns inherit
/// the name, which is how the census attributes the library's unnamed
/// worker threads to the component that started them. Restores the
/// previous name on destruction.
class ScopedThreadName {
 public:
  explicit ScopedThreadName(const char* name);
  ~ScopedThreadName();
  ScopedThreadName(const ScopedThreadName&) = delete;
  ScopedThreadName& operator=(const ScopedThreadName&) = delete;

 private:
  char previous_[16] = {};
};

/// CPU time of every thread of this process at one instant.
struct ThreadSample {
  int tid = 0;
  std::string name;
  double cpu_seconds = 0;
};

std::vector<ThreadSample> SampleThreads();

/// Threads of the process and their CPU share over a phase.
struct ThreadCensus {
  size_t threads = 0;        ///< Threads alive at the end of the phase.
  size_t busy = 0;           ///< Threads at >= kBusyShare of one CPU.
  double cpu_cores = 0;      ///< Total CPU used / wall time.
  std::string by_role;       ///< "name:count/busy/cores ..." summary.
  static constexpr double kBusyShare = 0.10;
};

ThreadCensus CensusBetween(const std::vector<ThreadSample>& before,
                           const std::vector<ThreadSample>& after,
                           double wall_seconds);

/// Gives the calling (generator) thread a CPU of its own: pins it to the
/// highest CPU this process may use and every other thread of the
/// process to the remaining ones, so a woken reader never preempts the
/// generator mid-submit and the generator's spin never steals a
/// serving thread's CPU. Affects only this process's threads; call it
/// again after starting new threads. Returns a one-line description
/// (pinning is skipped with fewer than two CPUs).
std::string PinGeneratorCpu();

/// Gives the calling thread back every CPU the process started with
/// (after the tier is gone, before the single-thread probes).
void UnpinGenerator();

/// Resident set size of this process in MiB (VmRSS).
double ResidentMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
