#include "dist/wire.h"

namespace stl {

namespace {

// The first version whose kPointQuery is the whole-query QueryRequest;
// an older peer's kPointQuery is the per-cell ShardRequest.
constexpr uint32_t kQueryWireVersion = 2;

}  // namespace

Status PeekWireKind(const uint8_t* data, size_t size, WireKind* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  uint32_t kind = 0;
  if (!(s = r.ReadPod(&kind)).ok()) return s;
  if (kind != static_cast<uint32_t>(WireKind::kBoundaryRow) &&
      kind != static_cast<uint32_t>(WireKind::kPointQuery) &&
      kind != static_cast<uint32_t>(WireKind::kInstall)) {
    return Status::Corruption("wire: unknown request kind");
  }
  *out = static_cast<WireKind>(kind);
  return Status::OK();
}

std::vector<uint8_t> QueryRequest::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(WireKind::kPointQuery));
  w.WritePod(engine_epoch);
  w.WritePod<uint64_t>(pairs.size());
  for (const QueryPair& q : pairs) {
    w.WritePod(q.first);
    w.WritePod(q.second);
  }
  return w.Take();
}

Status QueryRequest::Decode(const uint8_t* data, size_t size,
                            QueryRequest* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  if (r.version() < kQueryWireVersion) {
    return Status::Corruption("wire: query request of an older version");
  }
  uint32_t kind = 0;
  if (!(s = r.ReadPod(&kind)).ok()) return s;
  if (kind != static_cast<uint32_t>(WireKind::kPointQuery)) {
    return Status::Corruption("wire: not a query request");
  }
  if (!(s = r.ReadPod(&out->engine_epoch)).ok()) return s;
  uint64_t count = 0;
  if (!(s = r.ReadPod(&count)).ok()) return s;
  // Refused before the resize, so a forged count cannot allocate.
  if (count > r.remaining() / (2 * sizeof(Vertex))) {
    return Status::Corruption("wire: pair count exceeds buffer");
  }
  out->pairs.resize(count);
  for (QueryPair& q : out->pairs) {
    if (!(s = r.ReadPod(&q.first)).ok()) return s;
    if (!(s = r.ReadPod(&q.second)).ok()) return s;
  }
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after query request");
  }
  return Status::OK();
}

std::vector<uint8_t> QueryResponse::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(code));
  w.WritePod(engine_epoch);
  w.WriteVector(distances);
  return w.Take();
}

Status QueryResponse::Decode(const uint8_t* data, size_t size,
                             QueryResponse* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  if (r.version() < kQueryWireVersion) {
    return Status::Corruption("wire: query response of an older version");
  }
  uint32_t code = 0;
  if (!(s = r.ReadPod(&code)).ok()) return s;
  if (code != static_cast<uint32_t>(StatusCode::kOk) &&
      code != static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("wire: unexpected response code");
  }
  out->code = static_cast<StatusCode>(code);
  if (!(s = r.ReadPod(&out->engine_epoch)).ok()) return s;
  if (!(s = r.ReadVector(&out->distances)).ok()) return s;
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after query response");
  }
  return Status::OK();
}

std::vector<uint8_t> ShardRequest::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(kind));
  w.WritePod(shard);
  w.WritePod(shard_epoch);
  w.WritePod(u);
  w.WritePod(v);
  return w.Take();
}

Status ShardRequest::Decode(const uint8_t* data, size_t size,
                            ShardRequest* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  uint32_t kind = 0;
  if (!(s = r.ReadPod(&kind)).ok()) return s;
  if (kind != static_cast<uint32_t>(WireKind::kBoundaryRow) &&
      kind != static_cast<uint32_t>(WireKind::kPointQuery)) {
    return Status::Corruption("wire: unknown request kind");
  }
  out->kind = static_cast<WireKind>(kind);
  if (!(s = r.ReadPod(&out->shard)).ok()) return s;
  if (!(s = r.ReadPod(&out->shard_epoch)).ok()) return s;
  if (!(s = r.ReadPod(&out->u)).ok()) return s;
  if (!(s = r.ReadPod(&out->v)).ok()) return s;
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after request");
  }
  return Status::OK();
}

std::vector<uint8_t> ShardResponse::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(code));
  w.WritePod(shard);
  w.WritePod(shard_epoch);
  w.WritePod(distance);
  w.WriteVector(row);
  return w.Take();
}

Status ShardResponse::Decode(const uint8_t* data, size_t size,
                             ShardResponse* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  uint32_t code = 0;
  if (!(s = r.ReadPod(&code)).ok()) return s;
  if (code != static_cast<uint32_t>(StatusCode::kOk) &&
      code != static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("wire: unexpected response code");
  }
  out->code = static_cast<StatusCode>(code);
  if (!(s = r.ReadPod(&out->shard)).ok()) return s;
  if (!(s = r.ReadPod(&out->shard_epoch)).ok()) return s;
  if (!(s = r.ReadPod(&out->distance)).ok()) return s;
  if (!(s = r.ReadVector(&out->row)).ok()) return s;
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after response");
  }
  return Status::OK();
}

std::vector<uint8_t> InstallRequest::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(WireKind::kInstall));
  w.WritePod(seq);
  w.WritePod(expected_engine_epoch);
  w.WriteVector(expected_shard_epochs);
  w.WriteVector(updates);  // WeightUpdate is a padding-free POD triple
  return w.Take();
}

Status InstallRequest::Decode(const uint8_t* data, size_t size,
                              InstallRequest* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  uint32_t kind = 0;
  if (!(s = r.ReadPod(&kind)).ok()) return s;
  if (kind != static_cast<uint32_t>(WireKind::kInstall)) {
    return Status::Corruption("wire: not an install request");
  }
  if (!(s = r.ReadPod(&out->seq)).ok()) return s;
  if (!(s = r.ReadPod(&out->expected_engine_epoch)).ok()) return s;
  if (!(s = r.ReadVector(&out->expected_shard_epochs)).ok()) return s;
  if (!(s = r.ReadVector(&out->updates)).ok()) return s;
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after install");
  }
  return Status::OK();
}

std::vector<uint8_t> InstallAck::Encode() const {
  WireWriter w(kWireMagic, kWireVersion);
  w.WritePod(static_cast<uint32_t>(ok ? 1 : 0));
  w.WritePod(next_seq);
  w.WritePod(engine_epoch);
  return w.Take();
}

Status InstallAck::Decode(const uint8_t* data, size_t size,
                          InstallAck* out) {
  WireReader r(data, size);
  Status s = r.ReadHeader(kWireMagic, kWireVersion);
  if (!s.ok()) return s;
  uint32_t ok_flag = 0;
  if (!(s = r.ReadPod(&ok_flag)).ok()) return s;
  if (ok_flag > 1) return Status::Corruption("wire: bad install ack flag");
  out->ok = ok_flag == 1;
  if (!(s = r.ReadPod(&out->next_seq)).ok()) return s;
  if (!(s = r.ReadPod(&out->engine_epoch)).ok()) return s;
  if (r.remaining() != 0) {
    return Status::Corruption("wire: trailing bytes after install ack");
  }
  return Status::OK();
}

}  // namespace stl
