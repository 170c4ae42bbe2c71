#include "dist/shard_router.h"

#include <chrono>
#include <condition_variable>
#include <unordered_set>
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

// ----------------------------------------------------------- PendingCall

// One span's RPC with asynchronous sibling failover: attempt k targets
// endpoint (start + k) % n with a fresh tag; a usable answer settles
// `done`, anything else chains to attempt k + 1 from whatever thread
// delivered the verdict. The request is encoded once and shared by
// every attempt. Depth is bounded by n even with an inline-delivering
// transport.
struct RouterPolicy::PendingCall
    : public std::enable_shared_from_this<RouterPolicy::PendingCall> {
  RouterPolicy* router = nullptr;
  std::shared_ptr<const std::vector<uint8_t>> encoded;
  uint64_t engine_epoch = 0;
  size_t count = 0;  // pairs sent, so distances expected
  uint32_t start = 0;
  uint32_t n = 0;
  // The answer (null after every endpoint failed).
  std::function<void(const QueryResponse*)> done;

  void TryNext(uint32_t k) {
    if (k == n) {
      // Replica exhaustion: the span completes with a typed
      // kUnavailable.
      Settle(nullptr);
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
      QueryResponse r;
      const Status decoded =
          QueryResponse::Decode(payload.data(), payload.size(), &r);
      // Only a kOk answer at the EXACT pinned epoch, with one distance
      // per pair, is usable — anything else (stale replica, malformed
      // bytes, a short or long answer) fails over to the next sibling.
      if (decoded.ok() && r.code == StatusCode::kOk &&
          r.engine_epoch == engine_epoch && r.distances.size() == count) {
        if (k > 0) {
          router->rpc_failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        Settle(&r);
        return;
      }
    }
    router->rpc_stale_.fetch_add(1, std::memory_order_relaxed);
    TryNext(k + 1);
  }

  // Run-and-release: the call lets go of the continuation (and what it
  // holds) as soon as it has run.
  void Settle(const QueryResponse* answer) {
    std::function<void(const QueryResponse*)> fn = std::move(done);
    done = nullptr;
    fn(answer);
  }
};

// -------------------------------------------------------------- Mailbox

uint64_t RouterPolicy::Mailbox::Register(Callback callback) {
  const uint64_t tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  calls_.emplace(tag, std::move(callback));
  return tag;
}

void RouterPolicy::Mailbox::OnResponse(uint64_t tag,
                                       Status transport_status,
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

// --------------------------------------------------------- RouterPolicy

RouterPolicy::RouterPolicy(Graph graph,
                           const HierarchyOptions& hierarchy_options,
                           const ShardedEngineOptions& engine_options,
                           Transport* transport)
    : backend_(engine_options.backend),
      ledger_(std::move(graph), hierarchy_options,
              engine_options.target_shards, /*shard_graphs=*/nullptr),
      transport_(transport) {
  STL_CHECK(transport_ != nullptr);
}

void RouterPolicy::FillStats(RouterStats* s) const {
  s->replicas = transport_->NumEndpoints();
  s->rpcs_sent = rpcs_sent_.load(std::memory_order_relaxed);
  s->rpc_retries = rpc_retries_.load(std::memory_order_relaxed);
  s->rpc_stale_responses = rpc_stale_.load(std::memory_order_relaxed);
  s->rpc_failovers = rpc_failovers_.load(std::memory_order_relaxed);
  s->rpc_duplicates_dropped = mailbox_.duplicates_dropped();
  s->wire_installs = wire_installs_.load(std::memory_order_relaxed);
  s->install_failures = install_failures_.load(std::memory_order_relaxed);
}

std::shared_ptr<const RouterSnapshot> RouterPolicy::LedgerSnapshot() const {
  auto snap = std::make_shared<RouterSnapshot>();
  snap->epoch = ledger_.epoch();
  snap->shard_epochs = ledger_.shard_epochs();
  snap->layout = ledger_.layout();
  snap->graph = ledger_.graph();  // structural chunk share
  return snap;
}

std::shared_ptr<const RouterSnapshot> RouterPolicy::PublishInitial(
    ThreadPool* /*helpers*/) {
  // Seq 0 carries no updates: it only verifies the replicas built the
  // identical epoch-0 state from the identical graph.
  auto snap = LedgerSnapshot();
  Install(*snap, UpdateBatch{});
  return snap;
}

Weight RouterPolicy::ResolveOldWeight(EdgeId e) const {
  return ledger_.EdgeWeight(e);
}

std::shared_ptr<const RouterSnapshot> RouterPolicy::ApplyBatch(
    const UpdateBatch& batch, ThreadPool* /*helpers*/) {
  ledger_.Apply(batch);  // the split is the replicas' business
  auto snap = LedgerSnapshot();
  Install(*snap, batch);
  return snap;
}

uint32_t RouterPolicy::NumEdges() const { return ledger_.NumEdges(); }

void RouterPolicy::RouteSpan(
    const std::shared_ptr<const RouterSnapshot>& snap,
    const QueryPair* queries, const uint32_t* idx, size_t count,
    Weight* out, StatusCode* codes, std::function<void()> done) {
  // s == t is 0 on every epoch and needs no replica; the rest of the
  // span goes out whole, in span order (the replica's group memo
  // follows it).
  QueryRequest req;
  req.engine_epoch = snap->epoch;
  std::vector<uint32_t> sent;  // answer slots, in request order
  for (size_t j = 0; j < count; ++j) {
    const QueryPair& q = queries[idx[j]];
    if (q.first == q.second) {
      out[idx[j]] = 0;
    } else {
      req.pairs.push_back(q);
      sent.push_back(idx[j]);
    }
  }
  const uint32_t n = transport_->NumEndpoints();
  if (sent.empty() || n == 0) {
    for (uint32_t i : sent) {
      out[i] = kInfDistance;
      codes[i] = StatusCode::kUnavailable;
    }
    done();
    return;
  }
  auto call = std::make_shared<PendingCall>();
  call->router = this;
  call->encoded = std::make_shared<const std::vector<uint8_t>>(req.Encode());
  call->engine_epoch = req.engine_epoch;
  call->count = sent.size();
  // Round-robin start spreads load across siblings; every replica
  // still gets tried before the span gives up.
  call->start = next_replica_.fetch_add(1, std::memory_order_relaxed) % n;
  call->n = n;
  call->done = [out, codes, sent = std::move(sent),
                done = std::move(done)](const QueryResponse* answer) {
    for (size_t k = 0; k < sent.size(); ++k) {
      if (answer != nullptr) {
        out[sent[k]] = answer->distances[k];
      } else {
        out[sent[k]] = kInfDistance;
        codes[sent[k]] = StatusCode::kUnavailable;
      }
    }
    done();
  };
  call->TryNext(0);
}

void RouterPolicy::AugmentStats(const RouterSnapshot& current,
                                EngineStats* s) const {
  ledger_.FillStats(current.shard_epochs, s);
  s->backend = backend_;
  // The router's resident state: the weights and the layout.
  std::unordered_set<const void*> seen;
  s->resident_index_bytes =
      current.graph.AddResidentBytes(&seen) + current.layout->MemoryBytes();
}

void RouterPolicy::ResetStats() {
  ledger_.ResetStats();
  rpcs_sent_.store(0, std::memory_order_relaxed);
  rpc_retries_.store(0, std::memory_order_relaxed);
  rpc_stale_.store(0, std::memory_order_relaxed);
  rpc_failovers_.store(0, std::memory_order_relaxed);
  wire_installs_.store(0, std::memory_order_relaxed);
  install_failures_.store(0, std::memory_order_relaxed);
  mailbox_.ResetCounters();
}

void RouterPolicy::Install(const RouterSnapshot& snap,
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
    req.expected_engine_epoch = snap.epoch;
    req.expected_shard_epochs = snap.shard_epochs;
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
}

bool RouterPolicy::WireInstallEndpoint(uint32_t endpoint) {
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

bool RouterPolicy::BlockingRpc(
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

// ------------------------------------------------------ LoopbackCluster

LoopbackCluster MakeLoopbackCluster(
    const Graph& graph, const HierarchyOptions& hierarchy_options,
    const ShardRouterOptions& router_options, uint32_t num_replicas,
    const ReplicaNodeOptions& replica_options, FaultInjector* faults) {
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
