// Wire messages for the replicated shard-router tier. A ShardRouter
// (dist/shard_router.h) fans each per-cell row fetch / point query out
// to a shard replica over a pluggable Transport (dist/transport.h);
// these are the two messages that cross that boundary, with explicit
// encode/decode built on the bounds-checked WireWriter/WireReader
// (util/serialize.h). Decoding never trusts the peer: truncated
// buffers, bad magic, version skew and implausible lengths all come
// back as typed Status failures.
#ifndef STL_DIST_WIRE_H_
#define STL_DIST_WIRE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/updates.h"
#include "util/serialize.h"
#include "util/status.h"

namespace stl {

/// Magic prefix of every shard-RPC message ("STLW" little-endian).
inline constexpr uint32_t kWireMagic = 0x574c5453u;

/// Current shard-RPC encoding version. Decoders accept anything up to
/// this; bumping it is how the format evolves compatibly.
inline constexpr uint32_t kWireVersion = 1;

/// What a ShardRequest asks the replica to compute.
enum class WireKind : uint32_t {
  /// The packed boundary-distance row of one vertex: dist(u, b) for
  /// every boundary vertex b adjacent to the vertex's cell, in the
  /// cell's boundary order (the router's min-plus reduction input).
  kBoundaryRow = 1,
  /// A single intra-cell distance dist(u, v) on the shard's subgraph
  /// view (the router's same-cell local term).
  kPointQuery = 2,
  /// A snapshot install (state-machine replication): the router ships
  /// the coalesced weight-update batch that produced its next epoch;
  /// the replica applies it to its own ShardedWriter and must arrive at
  /// exactly the expected engine/per-shard epochs before acking. See
  /// InstallRequest / dist/replica_node.h.
  kInstall = 3,
};

/// Reads just the WireKind of an encoded request (header + kind field)
/// so a server can dispatch kInstall to the replication path and the
/// two query kinds to ShardReplica::Handle without double-decoding.
/// Fails like the full decoders on truncated/bad-magic input.
Status PeekWireKind(const uint8_t* data, size_t size, WireKind* out);

/// One request to a shard replica. `shard_epoch` pins the exact shard
/// version the router's batch was planned against: a replica that no
/// longer (or does not yet) hold that version answers kUnavailable
/// instead of silently serving different weights — epoch consistency
/// is enforced at the wire boundary, not trusted to deployment order.
struct ShardRequest {
  WireKind kind = WireKind::kBoundaryRow;  ///< What to compute.
  uint32_t shard = 0;        ///< Cell id the request targets.
  uint64_t shard_epoch = 0;  ///< Pinned per-shard version (must match).
  Vertex u = 0;              ///< Source vertex (global id).
  /// Target vertex (global id); meaningful only for kPointQuery.
  Vertex v = 0;

  /// Encodes into a fresh buffer (magic/version header included).
  std::vector<uint8_t> Encode() const;

  /// Decodes from `[data, data + size)`; on failure `*out` is
  /// unspecified and the Status says why (corruption, version skew).
  static Status Decode(const uint8_t* data, size_t size,
                       ShardRequest* out);
};

/// One replica answer. `code` is kOk for a served request and
/// kUnavailable when the replica does not hold the pinned shard_epoch
/// (the router then fails over to a sibling replica).
struct ShardResponse {
  StatusCode code = StatusCode::kOk;  ///< kOk or kUnavailable.
  uint32_t shard = 0;        ///< Echo of the request's cell id.
  uint64_t shard_epoch = 0;  ///< Echo of the pinned shard version.
  /// kPointQuery answer (kInfDistance when unreachable or on failure).
  Weight distance = kInfDistance;
  /// kBoundaryRow answer: the packed row, |S_shard| entries in the
  /// cell's boundary order. Empty for point queries and failures.
  std::vector<Weight> row;

  /// Encodes into a fresh buffer (magic/version header included).
  std::vector<uint8_t> Encode() const;

  /// Decodes from `[data, data + size)`; on failure `*out` is
  /// unspecified and the Status says why.
  static Status Decode(const uint8_t* data, size_t size,
                       ShardResponse* out);
};

/// One over-the-wire snapshot install. Installs are state-machine
/// replication: router and replica run identical ShardedWriters seeded
/// from the same graph, so shipping the coalesced update batch (not the
/// snapshot bytes) and applying it on both sides as one epoch produces
/// bit-identical snapshots with identical epoch ids — which the
/// expected_* fields then verify explicitly, turning any divergence
/// into a nack instead of silent wrong answers. `seq` orders installs
/// per replica (0, 1, 2, ...): a gap makes the replica nack with the
/// seq it needs next and the router replays from its bounded log.
struct InstallRequest {
  uint64_t seq = 0;  ///< Dense per-replica install sequence number.
  /// Global epoch the router's writer reached after applying `updates`.
  uint64_t expected_engine_epoch = 0;
  /// Per-shard epochs of that snapshot (index = shard id).
  std::vector<uint64_t> expected_shard_epochs;
  /// The coalesced weight updates that produced the epoch (may be
  /// empty for seq 0, which only verifies the initial epoch).
  UpdateBatch updates;

  /// Encodes into a fresh buffer (magic/version header included).
  std::vector<uint8_t> Encode() const;

  /// Decodes from `[data, data + size)`; on failure `*out` is
  /// unspecified and the Status says why.
  static Status Decode(const uint8_t* data, size_t size,
                       InstallRequest* out);
};

/// The replica's answer to an InstallRequest. `ok` means the batch
/// applied and every epoch matched; the router may publish the new
/// snapshot to its readers once every replica acked. On a sequence gap
/// or epoch divergence `ok` is false and `next_seq` tells the router
/// where to restart replay (an already-applied seq nacks with
/// `next_seq` past it, making retries idempotent).
struct InstallAck {
  bool ok = false;        ///< Applied and epoch-verified.
  uint64_t next_seq = 0;  ///< The seq this replica expects next.
  /// The replica writer's global epoch after handling the request.
  uint64_t engine_epoch = 0;

  /// Encodes into a fresh buffer (magic/version header included).
  std::vector<uint8_t> Encode() const;

  /// Decodes from `[data, data + size)`; on failure `*out` is
  /// unspecified and the Status says why.
  static Status Decode(const uint8_t* data, size_t size, InstallAck* out);
};

}  // namespace stl

#endif  // STL_DIST_WIRE_H_
