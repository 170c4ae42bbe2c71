// Multi-process integration test: spawns real replica_server processes
// (examples/replica_server.cpp) over localhost TCP and runs the
// lockstep conformance suite against them — the full deployment shape,
// kInstall replication included, with process isolation instead of
// in-process FrameServers.
//
// The replica_server binary's path arrives via the environment
// (STL_REPLICA_SERVER_BIN, set by CMake on this test target); when it
// is absent — e.g. the test binary is run by hand outside the build
// tree — the test skips instead of failing.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/shard_router.h"
#include "dist/socket_transport.h"
#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

using testing_util::SmallRoadNetwork;

/// One spawned replica_server child: fork/exec with stdout piped back
/// so the parent can read the "LISTENING <port>" line.
class ReplicaProcess {
 public:
  /// Spawns `bin` with the given --flag=value arguments. Check ok().
  ReplicaProcess(const std::string& bin,
                 const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return;
    }
    if (pid_ == 0) {
      // Child: stdout -> pipe, then exec the daemon.
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      std::_Exit(127);  // exec failed
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
  }

  ~ReplicaProcess() { Terminate(); }

  bool ok() const { return pid_ > 0 && out_fd_ >= 0; }

  /// Reads the child's stdout until "LISTENING <port>\n"; 0 on any
  /// failure (child died, malformed banner).
  uint16_t WaitForPort() {
    std::string line;
    char c = 0;
    while (line.size() < 256) {
      const ssize_t r = ::read(out_fd_, &c, 1);
      if (r <= 0) return 0;  // EOF: the child died before listening
      if (c == '\n') break;
      line.push_back(c);
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1) return 0;
    return static_cast<uint16_t>(port);
  }

  /// Reads the child's stdout into `out` until EOF (or through a
  /// "LISTENING" line, after which the child would serve forever and is
  /// SIGTERMed) and reaps it. Returns its exit code, or -1 when it did
  /// not exit on its own.
  int WaitForExit(std::string* out) {
    char c = 0;
    while (::read(out_fd_, &c, 1) == 1) {
      out->push_back(c);
      if (c == '\n' && out->find("LISTENING") != std::string::npos) {
        Terminate();
        return -1;
      }
    }
    int wstatus = 0;
    const pid_t reaped = ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    return reaped > 0 && WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  /// SIGTERMs the child and reaps it; true iff it exited cleanly (0).
  bool Terminate() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int wstatus = 0;
    const pid_t reaped = ::waitpid(pid_, &wstatus, 0);
    const bool clean = reaped == pid_ && WIFEXITED(wstatus) &&
                       WEXITSTATUS(wstatus) == 0;
    pid_ = -1;
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
    return clean;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// Lockstep conformance against two spawned replica_server processes:
// identical updates into a direct engine and the routed tier, every
// epoch bit-identical and Dijkstra-exact, zero kUnavailable, every
// wire install acked by both child processes.
TEST(ReplicaProcessTest, LockstepConformanceAgainstSpawnedServers) {
  const char* bin = std::getenv("STL_REPLICA_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "STL_REPLICA_SERVER_BIN not set (run via ctest)";
  }

  // The children rebuild the identical engine: same grid, same seed,
  // same backend/sharding options as EngineOpts below.
  const std::vector<std::string> args = {
      "--port=0",        "--grid-side=7",     "--graph-seed=211",
      "--backend=stl",   "--target-shards=4", "--epoch-ring=8"};
  ReplicaProcess proc_a(bin, args);
  ReplicaProcess proc_b(bin, args);
  ASSERT_TRUE(proc_a.ok());
  ASSERT_TRUE(proc_b.ok());
  const uint16_t port_a = proc_a.WaitForPort();
  const uint16_t port_b = proc_b.WaitForPort();
  ASSERT_NE(port_a, 0) << "replica_server A never listened";
  ASSERT_NE(port_b, 0) << "replica_server B never listened";

  Graph g = SmallRoadNetwork(7, 211);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  Graph g_router = g;

  ShardedEngineOptions engine_opt;
  engine_opt.backend = BackendKind::kStl;
  engine_opt.target_shards = 4;
  engine_opt.num_query_threads = 2;
  engine_opt.max_batch_size = 8;
  ShardedEngine direct(std::move(g), HierarchyOptions{}, engine_opt);

  SocketTransport transport({"127.0.0.1:" + std::to_string(port_a),
                             "127.0.0.1:" + std::to_string(port_b)});
  ShardRouterOptions router_opt;
  router_opt.engine = engine_opt;
  router_opt.num_query_threads = 2;
  router_opt.max_batch_size = 8;
  ShardRouter router(std::move(g_router), HierarchyOptions{}, router_opt,
                     &transport, {});

  Rng rng(211);
  testing_util::EpochOracle oracle;
  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      std::vector<WeightUpdate> updates;
      for (int i = 0; i < 3; ++i) {
        updates.push_back(
            WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                         1 + static_cast<Weight>(rng.NextBounded(500))});
      }
      direct.EnqueueUpdates(updates);
      router.EnqueueUpdates(updates);
      direct.Flush();
      router.Flush();
    }
    std::vector<QueryPair> batch;
    for (int i = 0; i < 48; ++i) {
      batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket dt = direct.SubmitBatch(batch);
    ShardRouter::Ticket rt = router.SubmitBatch(batch);
    dt.Wait();
    rt.Wait();
    ASSERT_EQ(rt.epoch(), dt.epoch()) << "round=" << round;
    Dijkstra& audit = oracle.For(rt.epoch(), rt.snapshot()->graph);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(dt.code(i), StatusCode::kOk);
      ASSERT_EQ(rt.code(i), StatusCode::kOk)
          << "round=" << round << " i=" << i;
      ASSERT_EQ(rt.distance(i), dt.distance(i))
          << "round=" << round << " i=" << i;
      ASSERT_EQ(rt.distance(i),
                audit.Distance(batch[i].first, batch[i].second))
          << "round=" << round << " i=" << i;
    }
  }

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  EXPECT_EQ(stats.wire_installs, stats.serving.epochs_published + 1);
  EXPECT_EQ(stats.install_failures, 0u);

  EXPECT_TRUE(proc_a.Terminate()) << "replica_server A unclean exit";
  EXPECT_TRUE(proc_b.Terminate()) << "replica_server B unclean exit";
}

// An unknown, malformed or out-of-range flag is a usage error: the
// daemon exits with code 2 before it builds anything or prints
// LISTENING, instead of serving with a wrapped or defaulted value (a
// wrapped port, a shard count that no longer matches the router's) or
// aborting on a check.
TEST(ReplicaProcessTest, InvalidFlagsExitWithUsageErrorBeforeListening) {
  const char* bin = std::getenv("STL_REPLICA_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "STL_REPLICA_SERVER_BIN not set (run via ctest)";
  }
  const std::vector<std::string> bad_flags = {
      "--port=70000",       "--port=-1",          "--port=80x",
      "--target-shards=abc", "--target-shards=-1", "--target-shards=0",
      "--max-batch=0",      "--grid-side=1",      "--graph-seed=",
      "--threads=65",       "--epoch-ring=0",     "--backend=dijkstra",
      "--target-shard=2",   "--port",             "stray"};
  for (const std::string& flag : bad_flags) {
    // The first occurrence of a flag wins, so the bad one goes first;
    // the rest keep an accidentally accepted flag cheap to serve.
    ReplicaProcess proc(bin, {flag, "--port=0", "--grid-side=4"});
    ASSERT_TRUE(proc.ok()) << flag;
    std::string out;
    EXPECT_EQ(proc.WaitForExit(&out), 2) << flag;
    EXPECT_EQ(out.find("LISTENING"), std::string::npos) << flag;
  }
}

// A replica_server that dies mid-serving degrades, not corrupts: its
// sibling keeps answering everything (failover), and killing the last
// replica yields typed kUnavailable — never a crash or a wrong byte.
TEST(ReplicaProcessTest, KilledServerDegradesToSiblingThenTyped) {
  const char* bin = std::getenv("STL_REPLICA_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "STL_REPLICA_SERVER_BIN not set (run via ctest)";
  }
  const std::vector<std::string> args = {
      "--port=0",        "--grid-side=6",     "--graph-seed=353",
      "--backend=stl",   "--target-shards=4", "--epoch-ring=8"};
  ReplicaProcess proc_a(bin, args);
  ReplicaProcess proc_b(bin, args);
  ASSERT_TRUE(proc_a.ok());
  ASSERT_TRUE(proc_b.ok());
  const uint16_t port_a = proc_a.WaitForPort();
  const uint16_t port_b = proc_b.WaitForPort();
  ASSERT_NE(port_a, 0);
  ASSERT_NE(port_b, 0);

  Graph g = SmallRoadNetwork(6, 353);
  const uint32_t n = g.NumVertices();
  ShardedEngineOptions engine_opt;
  engine_opt.backend = BackendKind::kStl;
  engine_opt.target_shards = 4;
  engine_opt.num_query_threads = 2;
  engine_opt.max_batch_size = 8;
  SocketTransportOptions transport_opt;
  transport_opt.backoff_initial = std::chrono::milliseconds(1);
  transport_opt.backoff_max = std::chrono::milliseconds(10);
  SocketTransport transport({"127.0.0.1:" + std::to_string(port_a),
                             "127.0.0.1:" + std::to_string(port_b)},
                            transport_opt);
  ShardRouterOptions router_opt;
  router_opt.engine = engine_opt;
  router_opt.num_query_threads = 2;
  router_opt.max_batch_size = 8;
  ShardRouter router(std::move(g), HierarchyOptions{}, router_opt,
                     &transport, {});
  Dijkstra audit(router.CurrentSnapshot()->graph);

  Rng rng(353);
  auto query_all_exact = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ShardedQueryResult r = router.Submit({s, t}).get();
      ASSERT_EQ(r.code, StatusCode::kOk) << "i=" << i;
      ASSERT_EQ(r.distance, audit.Distance(s, t)) << "i=" << i;
    }
  };
  query_all_exact(24);  // both replicas healthy

  // Kill A: every fetch that tries A fails over to B; still all exact.
  ASSERT_TRUE(proc_a.Terminate());
  query_all_exact(24);
  RouterStats mid = router.Stats();
  EXPECT_EQ(mid.serving.queries_unavailable, 0u);

  // Kill B too: only replica-free routes can answer; everything else
  // is the typed kUnavailable, and nothing crashes.
  ASSERT_TRUE(proc_b.Terminate());
  uint64_t unavailable = 0;
  for (int i = 0; i < 24; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    ShardedQueryResult r = router.Submit({s, t}).get();
    if (r.code == StatusCode::kUnavailable) {
      ++unavailable;
    } else {
      ASSERT_EQ(r.code, StatusCode::kOk);
      ASSERT_EQ(r.distance, r.snapshot->Query(s, t));
    }
  }
  EXPECT_GT(unavailable, 0u);
}

}  // namespace
}  // namespace stl
