// In-process transport: endpoints are registered handler functions and
// Send() runs request handling inline on the calling thread. Fully
// deterministic (no sockets, no background threads, no reordering), so
// the bit-identity conformance suite and the CI chaos tests can drive
// the whole distributed tier without network flake. The transport
// fault sites (FaultSite::kTransportDrop / kTransportDelay /
// kTransportDuplicate) hook every Send, making replica failover,
// routed tail latency and duplicate-response absorption forceable on a
// deterministic schedule.
#ifndef STL_DIST_LOOPBACK_TRANSPORT_H_
#define STL_DIST_LOOPBACK_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dist/transport.h"
#include "engine/fault_injector.h"

namespace stl {

/// The deterministic in-process Transport used by tests, benches and
/// CI. Thread-safe once serving starts: AddEndpoint is
/// construction-time only; Send may run from any reader thread.
class LoopbackTransport final : public Transport {
 public:
  /// One endpoint's server side: decodes the request bytes and returns
  /// the encoded response bytes (ReplicaNode::Handle, bound by
  /// MakeLoopbackCluster, serves queries and kInstall alike). Must be
  /// thread-safe.
  using Handler =
      std::function<std::vector<uint8_t>(const uint8_t* data, size_t size)>;

  /// A transport with no endpoints and no fault hooks; `faults` (not
  /// owned, may be null) arms the kTransport* sites.
  explicit LoopbackTransport(FaultInjector* faults = nullptr);

  /// Registers the next endpoint (ids are assigned 0, 1, ... in call
  /// order) and returns its id. Call before serving starts — not
  /// thread-safe against concurrent Send.
  uint32_t AddEndpoint(Handler handler);

  uint32_t NumEndpoints() const override;

  /// Runs the endpoint's handler inline and delivers the response to
  /// `sink` before returning. Fault sites, in consult order:
  /// kTransportDelay blocks DelayMicros first; kTransportDrop loses
  /// the request (the sink sees a typed kUnavailable, modelling the
  /// caller's timeout having fired — deterministic, no real waiting);
  /// kTransportDuplicate delivers the response a second time under the
  /// same tag, which the receiver's one-shot claim must absorb.
  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            TransportSink* sink) override;

 private:
  std::vector<Handler> endpoints_;
  FaultInjector* const faults_;
};

}  // namespace stl

#endif  // STL_DIST_LOOPBACK_TRANSPORT_H_
