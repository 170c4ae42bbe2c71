// A standalone shard-replica daemon: one ReplicaNode (dist/
// replica_node.h) served over TCP by a FrameServer (net/server.h).
//
// The process builds its ShardedWriter from the SAME generated graph,
// backend and shard count the router uses — epoch determinism is the
// replication contract — then serves boundary-row / point-query
// requests and applies the router's kInstall update stream, one epoch
// per install, until SIGTERM/SIGINT.
//
//   replica_server --port=0 --grid-side=7 --graph-seed=211 --backend=stl
//
// Other flags: --host, --target-shards, --threads (handler workers) and
// --epoch-ring (installed snapshots kept).
//
// With --port=0 the kernel picks an ephemeral port; the daemon prints
// "LISTENING <port>" on stdout once it serves, which is how the
// multi-process integration test (tests/replica_process_test.cc) and
// scripts discover where to connect. An unknown, malformed or
// out-of-range flag exits with code 2 before anything is built or
// printed on stdout.
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dist/replica_node.h"
#include "graph/generators.h"
#include "index/distance_index.h"
#include "net/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

/// Every flag the daemon reads.
constexpr const char* kFlags[] = {"host",          "port",    "grid-side",
                                   "graph-seed",    "threads", "epoch-ring",
                                   "target-shards", "backend"};

/// Exits with code 2 on any argument that is not --<one of kFlags>=value:
/// a misspelt flag would otherwise silently keep its default.
void RejectUnknownArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    for (const char* name : kFlags) {
      const std::string prefix = std::string("--") + name + "=";
      known = known ||
              std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0;
    }
    if (!known) {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      std::exit(2);
    }
  }
}

/// --flag=value parser; returns the value or `fallback`.
const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

/// The integer value of --name=value, or `fallback` when the flag is
/// absent. A value that is not a whole decimal integer in [lo, hi] is
/// a usage error: the daemon exits with code 2 before it listens.
long FlagInt(int argc, char** argv, const char* name, long fallback, long lo,
             long hi) {
  const char* v = FlagValue(argc, argv, name, nullptr);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    std::fprintf(stderr, "invalid --%s=%s (an integer in [%ld, %ld])\n",
                 name, v, lo, hi);
    std::exit(2);
  }
  return value;
}

stl::BackendKind ParseBackend(const char* name) {
  for (stl::BackendKind kind : stl::kAllBackends) {
    if (std::strcmp(name, stl::BackendName(kind)) == 0) return kind;
  }
  std::fprintf(stderr, "unknown --backend=%s (stl|ch|h2h|hc2l)\n", name);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RejectUnknownArgs(argc, argv);
  const char* host = FlagValue(argc, argv, "host", "127.0.0.1");
  const long port = FlagInt(argc, argv, "port", 0, 0, 65535);
  const long grid_side = FlagInt(argc, argv, "grid-side", 7, 2, 4096);
  const long graph_seed =
      FlagInt(argc, argv, "graph-seed", 211, 0, LONG_MAX);
  const long target_shards =
      FlagInt(argc, argv, "target-shards", 4, 1, 1024);
  const long threads = FlagInt(argc, argv, "threads", 0, 0, 64);
  const long epoch_ring = FlagInt(argc, argv, "epoch-ring", 8, 1, 4096);
  const stl::BackendKind backend =
      ParseBackend(FlagValue(argc, argv, "backend", "stl"));

  // The identical graph, backend and shard count the router was built
  // with (see tests/replica_process_test.cc): determinism is what makes
  // the kInstall stream verifiable.
  stl::RoadNetworkOptions road;
  road.width = static_cast<uint32_t>(grid_side);
  road.height = static_cast<uint32_t>(grid_side);
  road.seed = static_cast<uint64_t>(graph_seed);
  stl::Graph graph = stl::GenerateRoadNetwork(road);

  stl::ShardedEngineOptions engine_opt;
  engine_opt.backend = backend;
  engine_opt.target_shards = static_cast<uint32_t>(target_shards);

  stl::ShardReplicaOptions replica_opt;
  replica_opt.epoch_ring = static_cast<size_t>(epoch_ring);

  stl::ReplicaNode node(std::move(graph), stl::HierarchyOptions{},
                        engine_opt, replica_opt);

  stl::FrameServer::Options server_opt;
  server_opt.host = host;
  server_opt.port = static_cast<uint16_t>(port);
  server_opt.worker_threads = static_cast<int>(threads);
  stl::FrameServer server(server_opt,
                          [&node](const uint8_t* data, size_t size) {
                            return node.Handle(data, size);
                          });
  stl::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // The parent (test harness, script) reads this line to learn the
  // ephemeral port; keep the format stable.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  sigset_t empty;
  sigemptyset(&empty);
  while (g_stop == 0) {
    // Sleep until any signal; the handlers above set g_stop.
    sigsuspend(&empty);
  }

  server.Stop();
  std::fprintf(stderr,
               "replica_server: served %llu connections, %llu installs\n",
               static_cast<unsigned long long>(
                   server.connections_accepted()),
               static_cast<unsigned long long>(node.installs_applied()));
  return 0;
}
