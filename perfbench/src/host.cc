#include "host.h"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

HostStamp MakeHostStamp(const std::string& git_sha, uint64_t seed) {
  HostStamp stamp;
  stamp.cpu_model = ReadCpuModel();
  stamp.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  stamp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = std::string("gcc ") + __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  stamp.build_type = PERFBENCH_BUILD_TYPE;
#else
  stamp.build_type = "unknown";
#endif
  stamp.git_sha = git_sha.empty() ? "unknown" : git_sha;
  stamp.seed = seed;
  return stamp;
}

std::string HostStampJson(const HostStamp& s) {
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << JsonEscape(s.cpu_model)
      << "\", \"nproc\": " << s.nproc << ", \"compiler\": \""
      << JsonEscape(s.compiler) << "\", \"build_type\": \""
      << JsonEscape(s.build_type) << "\", \"git_sha\": \""
      << JsonEscape(s.git_sha) << "\", \"seed\": " << s.seed << "}";
  return out.str();
}

ScopedThreadName::ScopedThreadName(const char* name) {
  pthread_getname_np(pthread_self(), previous_, sizeof(previous_));
  char truncated[16] = {};
  std::strncpy(truncated, name, sizeof(truncated) - 1);
  pthread_setname_np(pthread_self(), truncated);
}

ScopedThreadName::~ScopedThreadName() {
  pthread_setname_np(pthread_self(), previous_);
}

std::vector<ThreadSample> SampleThreads() {
  std::vector<ThreadSample> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string base = std::string("/proc/self/task/") + entry->d_name;
    std::ifstream stat(base + "/stat");
    std::string text;
    if (!std::getline(stat, text)) continue;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15.
    const size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    std::ifstream comm(base + "/comm");
    ThreadSample sample;
    sample.tid = std::atoi(entry->d_name);
    std::getline(comm, sample.name);
    sample.cpu_seconds = static_cast<double>(utime + stime) / ticks;
    out.push_back(sample);
  }
  closedir(dir);
  return out;
}

ThreadCensus CensusBetween(const std::vector<ThreadSample>& before,
                           const std::vector<ThreadSample>& after,
                           double wall_seconds) {
  std::map<int, double> start;
  for (const ThreadSample& s : before) start[s.tid] = s.cpu_seconds;
  struct Role {
    size_t count = 0;
    size_t busy = 0;
    double cores = 0;
  };
  std::map<std::string, Role> roles;
  ThreadCensus census;
  census.threads = after.size();
  for (const ThreadSample& s : after) {
    const auto it = start.find(s.tid);
    const double used = s.cpu_seconds - (it == start.end() ? 0 : it->second);
    const double share = wall_seconds > 0 ? used / wall_seconds : 0;
    Role& role = roles[s.name];
    ++role.count;
    role.cores += share;
    census.cpu_cores += share;
    if (share >= ThreadCensus::kBusyShare) {
      ++role.busy;
      ++census.busy;
    }
  }
  std::ostringstream by_role;
  for (const auto& [name, role] : roles) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s:%zu/%zu/%.2f",
                  by_role.tellp() > 0 ? " " : "", name.c_str(), role.count,
                  role.busy, role.cores);
    by_role << buf;
  }
  census.by_role = by_role.str();
  return census;
}

namespace {

/// The process's CPUs before the first pin (the generator's own mask
/// shrinks to one CPU after it).
const cpu_set_t& StartupCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t c;
    CPU_ZERO(&c);
    sched_getaffinity(0, sizeof(c), &c);
    return c;
  }();
  return cpus;
}

}  // namespace

std::string PinGeneratorCpu() {
  const cpu_set_t allowed = StartupCpus();
  if (CPU_COUNT(&allowed) < 2) {
    return "generator not pinned (fewer than 2 CPUs)";
  }
  int generator = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) generator = c;
  }
  cpu_set_t serving = allowed;
  CPU_CLR(generator, &serving);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(generator, &mine);
  const int self = static_cast<int>(syscall(SYS_gettid));
  for (const ThreadSample& t : SampleThreads()) {
    if (t.tid != self) sched_setaffinity(t.tid, sizeof(serving), &serving);
  }
  sched_setaffinity(0, sizeof(mine), &mine);
  return "generator on CPU " + std::to_string(generator) + ", " +
         std::to_string(CPU_COUNT(&serving)) + " CPUs for the rest";
}

void UnpinGenerator() {
  sched_setaffinity(0, sizeof(cpu_set_t), &StartupCpus());
}

double ResidentMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
