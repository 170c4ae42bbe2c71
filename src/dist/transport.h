// The pluggable transport under the replicated shard-router tier: an
// async request/response surface keyed by an opaque caller tag, the
// same delivery discipline as the engines' CompletionQueue (submit
// with a tag, the answer comes back through a sink exactly once per
// attempt). The router (dist/shard_router.h) is written against this
// interface only; LoopbackTransport (in-process, deterministic,
// fault-injectable) backs tests/bench/CI, and SocketTransport
// (dist/socket_transport.h) is the over-the-wire skeleton.
#ifndef STL_DIST_TRANSPORT_H_
#define STL_DIST_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/status.h"

namespace stl {

/// Where transport responses land. OnResponse is invoked once per
/// Send() attempt under normal operation — from any thread, possibly
/// inline inside Send — with the caller's tag; a faulty transport may
/// deliver the same tag twice (duplicated response) and the receiver
/// must absorb it (the router's one-shot tag claim does). Must be
/// thread-safe.
class TransportSink {
 public:
  virtual ~TransportSink() = default;  ///< Sinks are caller-owned.

  /// One response. `transport_status` is OK when `payload` carries the
  /// endpoint's encoded reply; a failed status (kUnavailable) means the
  /// request or its response was lost and `payload` is empty.
  virtual void OnResponse(uint64_t tag, Status transport_status,
                          std::vector<uint8_t> payload) = 0;
};

/// The transport surface the router sends requests through.
/// Implementations must be thread-safe: reader-pool threads Send
/// concurrently.
class Transport {
 public:
  virtual ~Transport() = default;  ///< Transports are caller-owned.

  /// Number of reachable endpoints; Send's `endpoint` must be below
  /// this.
  virtual uint32_t NumEndpoints() const = 0;

  /// Sends `request` to `endpoint`; the response (or a typed transport
  /// failure) is delivered to `sink->OnResponse(tag, ...)`, possibly
  /// inline before Send returns. `tag` is opaque to the transport and
  /// echoed verbatim. `sink` must stay valid until the tag has been
  /// delivered. The request rides a shared buffer so a caller retrying
  /// across sibling endpoints encodes once and every attempt (and any
  /// queued/in-flight copy inside an async transport) aliases the same
  /// bytes; `request` must be non-null and is never mutated.
  virtual void Send(uint32_t endpoint, uint64_t tag,
                    std::shared_ptr<const std::vector<uint8_t>> request,
                    TransportSink* sink) = 0;
};

}  // namespace stl

#endif  // STL_DIST_TRANSPORT_H_
