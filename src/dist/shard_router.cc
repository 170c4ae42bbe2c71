#include "dist/shard_router.h"

#include <chrono>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace stl {

namespace {

// Replication (kInstall to every replica). The deadline for one
// install ack:
constexpr std::chrono::milliseconds kInstallTimeout{2000};
// Send attempts per endpoint before an install gives up on it (the
// router publishes anyway; the lagging replica answers the new epochs
// kUnavailable until a later install catches it up).
constexpr int kInstallAttempts = 3;
// Installs kept for nack-triggered replay to lagging replicas.
constexpr size_t kInstallLogEntries = 256;

}  // namespace

// ------------------------------------------------------------ SpanFanout

// The scatter-gather state of one routed span (a batch chunk, or a
// single query as a one-element span). It is the `pieces` of
// RouteShardedPair twice over:
//
//   scatter — run the decomposition over the span before anything has
//     arrived: every row/point it asks for reads as unavailable and is
//     recorded as a pre-created slot (so the maps never rehash under
//     concurrent arrivals); then issue every UNIQUE fetch through
//     CallReplicaAsync. Each arrival writes only its own slot; no lock.
//
//   gather — the LAST arrival (pending counter, acq_rel so every slot
//     write happens-before the read side) runs the same decomposition
//     again on the filled slots: a sequential pass over the span in
//     submission-sorted order, doing the exact min-plus arithmetic of
//     the in-process engine. One thread, deterministic order,
//     bit-identical answers; a slot left empty (every replica failed)
//     fails its queries kUnavailable.
//
// Kept alive by the shared_ptr each in-flight callback captures; the
// issuing reader thread returns as soon as the scatter loop finishes.
struct ShardRouter::SpanFanout
    : public std::enable_shared_from_this<ShardRouter::SpanFanout> {
  ShardRouter* router = nullptr;
  std::shared_ptr<const ShardedSnapshot> snap;
  const QueryPair* queries = nullptr;
  const uint32_t* idx = nullptr;
  size_t count = 0;
  Weight* out = nullptr;
  StatusCode* codes = nullptr;
  std::function<void()> done;

  // (vertex, shard) -> fetched row; (s, t) -> same-cell distance.
  // nullopt = not arrived, or every replica failed.
  std::unordered_map<uint64_t, std::optional<std::vector<Weight>>> rows;
  std::unordered_map<uint64_t, std::optional<Weight>> points;

  // Outstanding fetches + 1 (the scatter loop's own guard, dropped
  // after the last issue so an all-inline transport cannot fire the
  // gather before enumeration finishes).
  std::atomic<size_t> pending{1};

  void Start() {
    for (size_t j = 0; j < count; ++j) {
      StatusCode unused_code;
      const QueryPair& q = queries[idx[j]];
      RouteShardedPair(*snap, q.first, q.second, this, /*memo=*/nullptr,
                       &unused_code);
    }
    // From here on arrivals may run (inline for a synchronous
    // transport) on any thread; they only write their own pre-created
    // slot and decrement pending.
    pending.store(rows.size() + points.size() + 1,
                  std::memory_order_relaxed);
    auto self = shared_from_this();
    for (auto& [key, slot] : rows) {
      const uint32_t shard = static_cast<uint32_t>(key & 0xffffffffu);
      ShardRequest req;
      req.kind = WireKind::kBoundaryRow;
      req.shard = shard;
      req.shard_epoch = snap->shards[shard]->shard_epoch;  // pinned
      req.u = static_cast<Vertex>(key >> 32);
      auto* slot_ptr = &slot;
      router->CallReplicaAsync(req,
                               [self, slot_ptr](bool ok, ShardResponse resp) {
                                 if (ok) *slot_ptr = std::move(resp.row);
                                 self->Arrive();
                               });
    }
    for (auto& [key, slot] : points) {
      const Vertex s = static_cast<Vertex>(key >> 32);
      ShardRequest req;
      req.kind = WireKind::kPointQuery;
      req.shard = snap->layout->shard_of_vertex[s];
      req.shard_epoch = snap->shards[req.shard]->shard_epoch;  // pinned
      req.u = s;
      req.v = static_cast<Vertex>(key & 0xffffffffu);
      auto* slot_ptr = &slot;
      router->CallReplicaAsync(req,
                               [self, slot_ptr](bool ok, ShardResponse resp) {
                                 if (ok) *slot_ptr = resp.distance;
                                 self->Arrive();
                               });
    }
    Arrive();  // drop the scatter guard
  }

  /// One fetch landed (or the scatter loop finished): the last arrival
  /// runs the gather phase and the caller's continuation.
  void Arrive() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    InnerVectorMemo memo;
    RouteShardedSpan(*snap, queries, idx, count, out, codes, this, &memo);
    // Run-and-release: the fan-out lets go of the core's continuation
    // (and the ticket it holds) as soon as it has run.
    std::function<void()> fn = std::move(done);
    done = nullptr;
    fn();
  }

  /// RouteShardedPair's row source: the (pre-created) slot of (shard,
  /// v); null until it holds a replica's row.
  const std::vector<Weight>* Row(uint32_t shard, Vertex v) {
    auto& slot = rows.try_emplace(PairKey(v, shard)).first->second;
    return slot ? &*slot : nullptr;
  }

  /// RouteShardedPair's point source: the (pre-created) slot of (s, t).
  bool Point(uint32_t shard, Vertex s, Vertex t, Weight* d) {
    (void)shard;  // a function of s
    auto& slot = points.try_emplace(PairKey(s, t)).first->second;
    if (!slot) return false;
    *d = *slot;
    return true;
  }
};

// ----------------------------------------------------------- PendingCall

// One RPC's failover chain: attempt k targets endpoint (start + k) % n
// with a fresh tag; a usable answer settles `done`, anything else
// chains to attempt k + 1 from whatever thread delivered the verdict.
// The encoded request is shared (encode once) across all attempts.
// Depth is bounded by n even with an inline-delivering transport.
struct ShardRouter::PendingCall
    : public std::enable_shared_from_this<ShardRouter::PendingCall> {
  ShardRouter* router = nullptr;
  std::shared_ptr<const std::vector<uint8_t>> encoded;
  uint32_t shard = 0;
  uint64_t shard_epoch = 0;
  size_t row_width = 0;  // |S_shard| for a row fetch, 0 for a point
  uint32_t start = 0;
  uint32_t n = 0;
  std::function<void(bool, ShardResponse)> done;

  void TryNext(uint32_t k) {
    if (k == n) {
      // Replica exhaustion: the caller completes the query with a
      // typed kUnavailable.
      std::function<void(bool, ShardResponse)> fn = std::move(done);
      fn(false, ShardResponse{});
      return;
    }
    router->rpcs_sent_.fetch_add(1, std::memory_order_relaxed);
    if (k > 0) router->rpc_retries_.fetch_add(1, std::memory_order_relaxed);
    auto self = shared_from_this();
    const uint64_t tag = router->mailbox_.Register(
        [self, k](Status st, std::vector<uint8_t> payload) {
          self->OnReply(k, std::move(st), std::move(payload));
        });
    router->transport_->Send((start + k) % n, tag, encoded,
                             &router->mailbox_);
  }

  void OnReply(uint32_t k, Status st, std::vector<uint8_t> payload) {
    if (st.ok()) {
      ShardResponse r;
      const Status decoded =
          ShardResponse::Decode(payload.data(), payload.size(), &r);
      // Only a kOk answer at the EXACT pinned (shard, shard_epoch),
      // carrying a row of the shard's exact width, is usable — anything
      // else (stale replica, malformed bytes, a short or long row) fails
      // over to the next sibling.
      if (decoded.ok() && r.code == StatusCode::kOk && r.shard == shard &&
          r.shard_epoch == shard_epoch && r.row.size() == row_width) {
        if (k > 0) {
          router->rpc_failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        std::function<void(bool, ShardResponse)> fn = std::move(done);
        fn(true, std::move(r));
        return;
      }
    }
    router->rpc_stale_.fetch_add(1, std::memory_order_relaxed);
    TryNext(k + 1);
  }
};

// -------------------------------------------------------------- Mailbox

uint64_t ShardRouter::Mailbox::Register(Callback callback) {
  const uint64_t tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  calls_.emplace(tag, std::move(callback));
  return tag;
}

void ShardRouter::Mailbox::OnResponse(uint64_t tag, Status transport_status,
                                      std::vector<uint8_t> payload) {
  Callback callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = calls_.find(tag);
    if (it == calls_.end()) {
      // The tag was already settled: a transport duplicate. The
      // one-shot claim (erase-on-first-delivery) absorbs it here, so
      // it can never double-complete a user query.
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    callback = std::move(it->second);
    calls_.erase(it);
  }
  // Outside the lock: the callback may register the next failover
  // attempt (which takes mu_ again) or run the whole gather phase.
  callback(std::move(transport_status), std::move(payload));
}

// ---------------------------------------------------------- ShardRouter

ShardRouter::ShardRouter(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const ShardRouterOptions& options,
                         Transport* transport,
                         std::vector<ShardReplica*> replicas)
    : options_(options),
      transport_(transport),
      writer_(std::move(graph), hierarchy_options, options.engine),
      core_(&policy_, CoreOptionsOf(options)) {
  STL_CHECK(transport_ != nullptr);
  STL_CHECK(replicas.empty());  // see the constructor doc
  core_.Start();  // installs + publishes epoch 0
}

ShardRouter::~ShardRouter() = default;  // core_ drains first

std::future<ShardedQueryResult> ShardRouter::Submit(QueryPair query,
                                                    Deadline deadline) {
  return core_.Submit(query, deadline);
}

ShardRouter::Ticket ShardRouter::SubmitBatch(
    const std::vector<QueryPair>& queries, Deadline deadline) {
  return core_.SubmitBatch(queries, deadline);
}

void ShardRouter::SubmitTagged(QueryPair query, uint64_t tag,
                               CompletionSink* sink, Deadline deadline) {
  core_.SubmitTagged(query, tag, sink, deadline);
}

ShardRouter::Ticket ShardRouter::SubmitBatchTagged(
    const std::vector<QueryPair>& queries,
    const std::vector<uint64_t>& tags, CompletionSink* sink,
    Deadline deadline) {
  return core_.SubmitBatchTagged(queries, tags, sink, deadline);
}

void ShardRouter::EnqueueUpdate(EdgeId edge, Weight new_weight) {
  core_.EnqueueUpdate(edge, new_weight);
}

void ShardRouter::EnqueueUpdates(const std::vector<WeightUpdate>& updates) {
  core_.EnqueueUpdates(updates);
}

void ShardRouter::Flush() { core_.Flush(); }

std::shared_ptr<const ShardedSnapshot> ShardRouter::CurrentSnapshot()
    const {
  return core_.CurrentSnapshot();
}

RouterStats ShardRouter::Stats() const {
  RouterStats s;
  s.serving = core_.Stats();
  s.replicas = transport_->NumEndpoints();
  s.rpcs_sent = rpcs_sent_.load(std::memory_order_relaxed);
  s.rpc_retries = rpc_retries_.load(std::memory_order_relaxed);
  s.rpc_stale_responses = rpc_stale_.load(std::memory_order_relaxed);
  s.rpc_failovers = rpc_failovers_.load(std::memory_order_relaxed);
  s.rpc_duplicates_dropped = mailbox_.duplicates_dropped();
  s.wire_installs = wire_installs_.load(std::memory_order_relaxed);
  s.install_failures = install_failures_.load(std::memory_order_relaxed);
  return s;
}

void ShardRouter::ResetStats() {
  core_.ResetStats();
  writer_.ResetStats();
  rpcs_sent_.store(0, std::memory_order_relaxed);
  rpc_retries_.store(0, std::memory_order_relaxed);
  rpc_stale_.store(0, std::memory_order_relaxed);
  rpc_failovers_.store(0, std::memory_order_relaxed);
  mailbox_.ResetCounters();
}

void ShardRouter::InstallAndPublish(
    std::shared_ptr<const ShardedSnapshot> snap,
    const UpdateBatch& updates) {
  // Install BEFORE publish: once a reader can pin this epoch, every
  // replica already holds it, so a fresh query never fails on a
  // version that merely hasn't propagated yet.
  if (transport_->NumEndpoints() > 0) {
    // Ship the coalesced batch as the next kInstall sequence; every
    // ReplicaNode applies it to its own (identical) writer and must
    // arrive at these exact epochs before acking.
    InstallRequest req;
    req.seq = next_install_seq_++;
    req.expected_engine_epoch = snap->epoch;
    req.expected_shard_epochs.reserve(snap->shards.size());
    for (const auto& sh : snap->shards) {
      req.expected_shard_epochs.push_back(sh->shard_epoch);
    }
    req.updates = updates;
    install_log_.push_back(InstallLogEntry{
        req.seq,
        std::make_shared<const std::vector<uint8_t>>(req.Encode())});
    while (install_log_.size() > kInstallLogEntries) {
      install_log_.pop_front();
      ++install_log_base_;
    }
    wire_installs_.fetch_add(1, std::memory_order_relaxed);
    bool all_ok = true;
    for (uint32_t e = 0; e < transport_->NumEndpoints(); ++e) {
      if (!WireInstallEndpoint(e)) all_ok = false;
    }
    if (!all_ok) {
      // Publish anyway: the lagging replica answers the new epochs
      // with typed kUnavailable (never wrong bytes) and the NEXT
      // install's replay catches it up.
      install_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  core_.Publish(std::move(snap));
}

bool ShardRouter::WireInstallEndpoint(uint32_t endpoint) {
  if (install_log_.empty()) return true;
  const uint64_t target = next_install_seq_;
  int attempts = kInstallAttempts;
  uint64_t need = target - 1;  // newest first; nacks say where to replay
  while (attempts > 0) {
    if (need < install_log_base_) return false;  // evicted: can't catch up
    const InstallLogEntry& entry =
        install_log_[static_cast<size_t>(need - install_log_base_)];
    std::vector<uint8_t> payload;
    if (!BlockingRpc(endpoint, entry.encoded, &payload)) {
      --attempts;
      continue;
    }
    InstallAck ack;
    if (!InstallAck::Decode(payload.data(), payload.size(), &ack).ok()) {
      --attempts;
      continue;
    }
    if (ack.ok) {
      // An honest replica acks ok only past the seq it was sent;
      // anything else would replay the same entry forever.
      if (ack.next_seq <= entry.seq) return false;
      if (ack.next_seq >= target) return true;  // fully caught up
      need = ack.next_seq;  // keep replaying forward
      continue;
    }
    if (ack.next_seq >= entry.seq) {
      // The replica refused the very seq it expects (decode failure or
      // sticky divergence) — replay cannot help.
      return false;
    }
    need = ack.next_seq;  // sequence gap: replay from what it needs
    --attempts;
  }
  return false;
}

bool ShardRouter::BlockingRpc(
    uint32_t endpoint, std::shared_ptr<const std::vector<uint8_t>> bytes,
    std::vector<uint8_t>* payload) {
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // guarded by mu
    Status status;
    std::vector<uint8_t> payload;
  };
  auto cell = std::make_shared<Cell>();
  const uint64_t tag = mailbox_.Register(
      [cell](Status st, std::vector<uint8_t> p) {
        std::lock_guard<std::mutex> lock(cell->mu);
        cell->status = std::move(st);
        cell->payload = std::move(p);
        cell->done = true;
        cell->cv.notify_all();
      });
  rpcs_sent_.fetch_add(1, std::memory_order_relaxed);
  transport_->Send(endpoint, tag, std::move(bytes), &mailbox_);
  std::unique_lock<std::mutex> lock(cell->mu);
  // The transports guarantee exactly-once delivery per Send, and a
  // socket request that outlives its request_timeout fails
  // kUnavailable. That timeout defaults to 5000 ms, longer than
  // kInstallTimeout, so for a hung replica this local deadline is the
  // one that normally fires; the late delivery then writes a cell
  // nobody reads.
  if (!cell->cv.wait_for(lock, kInstallTimeout,
                         [&] { return cell->done; })) {
    return false;
  }
  if (!cell->status.ok()) return false;
  *payload = std::move(cell->payload);
  return true;
}

void ShardRouter::CallReplicaAsync(
    const ShardRequest& req, std::function<void(bool, ShardResponse)> done) {
  const uint32_t n = transport_->NumEndpoints();
  if (n == 0) {
    done(false, ShardResponse{});
    return;
  }
  auto call = std::make_shared<PendingCall>();
  call->router = this;
  // Encode ONCE; the buffer is shared by every sibling attempt instead
  // of being re-encoded per retry.
  call->encoded =
      std::make_shared<const std::vector<uint8_t>>(req.Encode());
  call->shard = req.shard;
  call->shard_epoch = req.shard_epoch;
  if (req.kind == WireKind::kBoundaryRow) {
    call->row_width = writer_.layout().shards[req.shard].boundary_local.size();
  }
  // Round-robin fan-out start spreads load across siblings; every
  // replica still gets tried before the query gives up.
  call->start = next_replica_.fetch_add(1, std::memory_order_relaxed) % n;
  call->n = n;
  call->done = std::move(done);
  call->TryNext(0);
}

// ----------------------------------------------------- the router policy

void ShardRouter::Policy::PublishInitial() {
  // Seq 0 carries no updates: it only verifies the replicas built the
  // identical epoch-0 state from the identical graph.
  router->InstallAndPublish(
      router->writer_.PublishInitial(router->core_.pool()), UpdateBatch{});
}

Weight ShardRouter::Policy::ResolveOldWeight(EdgeId e) const {
  return router->writer_.EdgeWeight(e);
}

void ShardRouter::Policy::ApplyBatch(const UpdateBatch& batch) {
  router->InstallAndPublish(router->writer_.Apply(batch, router->core_.pool()),
                            batch);
}

uint32_t ShardRouter::Policy::NumEdges() const {
  return router->writer_.NumEdges();
}

void ShardRouter::Policy::RouteSpan(
    const std::shared_ptr<const ShardedSnapshot>& snap,
    const QueryPair* queries, const uint32_t* idx, size_t count,
    Weight* out, StatusCode* codes, std::function<void()> done) const {
  auto fan = std::make_shared<SpanFanout>();
  fan->router = router;
  fan->snap = snap;
  fan->queries = queries;
  fan->idx = idx;
  fan->count = count;
  fan->out = out;
  fan->codes = codes;
  fan->done = std::move(done);  // the core's continuation (no cycle)
  fan->Start();
}

void ShardRouter::Policy::AugmentStats(EngineStats* s) const {
  router->writer_.FillStats(*router->CurrentSnapshot(), s);
}

// ------------------------------------------------------ LoopbackCluster

LoopbackCluster MakeLoopbackCluster(
    const Graph& graph, const HierarchyOptions& hierarchy_options,
    const ShardRouterOptions& router_options, uint32_t num_replicas,
    const ShardReplicaOptions& replica_options, FaultInjector* faults) {
  LoopbackCluster cluster;
  cluster.transport = std::make_unique<LoopbackTransport>(faults);
  cluster.replicas.reserve(num_replicas);
  for (uint32_t i = 0; i < num_replicas; ++i) {
    cluster.replicas.push_back(std::make_unique<ReplicaNode>(
        graph, hierarchy_options, router_options.engine, replica_options));
    ReplicaNode* node = cluster.replicas.back().get();
    cluster.transport->AddEndpoint(
        [node](const uint8_t* data, size_t size) {
          return node->Handle(data, size);
        });
  }
  return cluster;
}

}  // namespace stl
