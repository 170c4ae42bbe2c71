// The listening half of the network layer: a FrameServer owns one
// EventLoop, accepts TCP connections, reassembles request frames via
// Conn, and hands each (tag, payload) to a caller-supplied Handler —
// the same bytes-in/bytes-out shape LoopbackTransport dispatches to,
// so a ReplicaNode serves over real sockets and over loopback through
// one code path, kInstall replication included. Responses are written back on the
// same connection under the request's tag.
//
// With worker_threads > 0 the handler runs on a small pool and the
// response is posted back to the loop, keeping the loop thread free
// for I/O; with 0 the handler runs inline on the loop thread (fine for
// tests and the cheap row/point handlers).
#ifndef STL_NET_SERVER_H_
#define STL_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/fault_injector.h"
#include "engine/thread_pool.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "util/status.h"

namespace stl {

/// Accepts framed TCP connections and dispatches request frames to a
/// Handler (see file comment).
class FrameServer {
 public:
  /// Request dispatch: encoded request bytes in, encoded response
  /// bytes out. Must be thread-safe when worker_threads > 0.
  using Handler = std::function<std::vector<uint8_t>(const uint8_t*, size_t)>;

  /// Listener configuration.
  struct Options {
    std::string host = "127.0.0.1";  ///< Bind address (numeric IPv4).
    uint16_t port = 0;               ///< 0 = kernel-assigned ephemeral port.
    int worker_threads = 0;  ///< Handler offload pool size (0 = inline).
    FaultInjector* faults = nullptr;  ///< Optional; armed conns inject
                                      ///< kSocketShortIo on accepted
                                      ///< connections too.
  };

  /// An inert server; Start() binds and begins accepting.
  FrameServer(Options options, Handler handler);

  /// Stops (idempotent with Stop()).
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;             ///< Not copyable.
  FrameServer& operator=(const FrameServer&) = delete;  ///< Not copyable.

  /// Binds, listens and starts the accept loop. Returns kIOError on
  /// bind/listen failure (e.g. port in use). Call exactly once.
  Status Start();

  /// Drains handler workers, closes every connection and the listener,
  /// and joins the loop thread. Idempotent.
  void Stop();

  /// The bound port (the kernel-assigned one when Options::port == 0).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  void OnAcceptReady();
  void AdoptClient(int fd);
  void HandleFrame(const std::shared_ptr<Conn>& conn, WireFrame frame);

  Options options_;
  Handler handler_;
  std::unique_ptr<ThreadPool> workers_;  // null when worker_threads == 0
  EventLoop loop_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  // Loop-thread state: live connections keyed by identity (the close
  // callback erases its own entry).
  std::map<const Conn*, std::shared_ptr<Conn>> conns_;

  std::atomic<uint64_t> connections_accepted_{0};
};

}  // namespace stl

#endif  // STL_NET_SERVER_H_
