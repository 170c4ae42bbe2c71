// Core road-network representation: an undirected weighted graph with
// immutable topology (CSR adjacency) and mutable edge weights.
//
// Dynamic road networks change weights all the time but almost never change
// structure (paper, Section 8), so the representation is optimized for
// O(1) weight updates and cache-friendly neighbour scans. Each undirected
// edge has one EdgeId; its weight is stored once in the edge table and
// mirrored into both CSR arcs so Dijkstra inner loops avoid indirection.
//
// The two weight-bearing tables (edge table and arc mirror) are chunked
// and shared copy-on-write: copying a Graph copies chunk pointers
// (refcount bumps), and the first weight write into a chunk that another
// copy can still reach clones just that chunk. Arc chunks are cut at
// vertex boundaries so ArcsOf(v) stays one contiguous span. The topology
// (offsets, arc positions, chunk map) is immutable and shared by every
// copy. This makes per-epoch graph snapshots in engine/query_engine.h
// O(touched chunks) instead of O(|E|). Single-writer discipline: one
// Graph is mutated at a time; copies sharing its chunks may be read or
// destroyed concurrently.
#ifndef STL_GRAPH_GRAPH_H_
#define STL_GRAPH_GRAPH_H_

#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "util/cow_chunks.h"
#include "util/logging.h"
#include "util/status.h"

namespace stl {

using Vertex = uint32_t;
using EdgeId = uint32_t;
using Weight = uint32_t;

/// Distances saturate at kInfDistance; two valid distances can be added
/// without overflowing uint32_t (2 * 0x3fffffff < 2^32).
inline constexpr Weight kInfDistance = 0x3fffffff;

/// Largest edge weight accepted by Graph::FromEdges. Keeps path weights on
/// benchmark-sized networks far below kInfDistance.
inline constexpr Weight kMaxEdgeWeight = 1u << 24;

/// One undirected edge (endpoints + current weight).
struct Edge {
  Vertex u;
  Vertex v;
  Weight w;
};

/// One directed arc in the CSR adjacency. `weight` mirrors the edge table
/// and is kept in sync by Graph::SetEdgeWeight.
struct Arc {
  Vertex head;
  Weight weight;
  EdgeId edge;
};

/// Undirected weighted graph with fixed topology and CoW-chunked mutable
/// weights (see file comment).
class Graph {
 public:
  /// Edges per edge-table chunk (3 KiB of Edge) — the CoW granularity of
  /// a weight write on the edge table. Arc chunks target the same entry
  /// count but are cut at vertex boundaries.
  static constexpr uint32_t kEdgeChunkShift = 8;
  static constexpr uint32_t kEdgeChunkSize = 1u << kEdgeChunkShift;
  static constexpr uint32_t kEdgeChunkMask = kEdgeChunkSize - 1;

  Graph() = default;

  // Copying shares the topology and every weight chunk; the first
  // SetEdgeWeight on either copy detaches the touched chunks.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Builds a graph with `num_vertices` vertices from an edge list.
  /// Rejects self-loops, endpoints out of range, zero/oversized weights,
  /// and duplicate edges (parallel edges are meaningless for distance
  /// queries; callers dedupe keeping the minimum weight).
  static Result<Graph> FromEdges(uint32_t num_vertices,
                                 std::vector<Edge> edges);

  uint32_t NumVertices() const { return topo_ ? topo_->num_vertices : 0; }
  uint32_t NumEdges() const { return topo_ ? topo_->num_edges : 0; }

  /// All arcs leaving `v`, sorted by head vertex.
  std::span<const Arc> ArcsOf(Vertex v) const {
    STL_DCHECK(v < NumVertices());
    const uint32_t c = topo_->vertex_chunk[v];
    const Arc* data = arcs_.Data(c);
    const uint32_t base = topo_->arc_chunk_base[c];
    return {data + (topo_->adj_offset[v] - base),
            data + (topo_->adj_offset[v + 1] - base)};
  }

  uint32_t Degree(Vertex v) const {
    STL_DCHECK(v < NumVertices());
    return topo_->adj_offset[v + 1] - topo_->adj_offset[v];
  }

  const Edge& GetEdge(EdgeId id) const {
    STL_DCHECK(id < NumEdges());
    return edges_.Data(id >> kEdgeChunkShift)[id & kEdgeChunkMask];
  }

  Weight EdgeWeight(EdgeId id) const { return GetEdge(id).w; }

  /// Sets the weight of edge `id` (both directions). O(1) amortized;
  /// clones the touched chunks first if any other copy shares them.
  void SetEdgeWeight(EdgeId id, Weight w);

  /// Finds the edge between u and v, if any. O(log deg).
  std::optional<EdgeId> FindEdge(Vertex u, Vertex v) const;

  /// Lightweight random-access view over the chunked edge table; behaves
  /// like the flat `const std::vector<Edge>&` it replaced (range-for,
  /// operator[], size()). References obtained through it point into the
  /// graph's chunks and stay valid while the graph does.
  class EdgeView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Edge;
      using difference_type = std::ptrdiff_t;
      using pointer = const Edge*;
      using reference = const Edge&;

      iterator(const Graph* g, EdgeId id) : g_(g), id_(id) {}
      reference operator*() const { return g_->GetEdge(id_); }
      pointer operator->() const { return &g_->GetEdge(id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++id_;
        return old;
      }
      bool operator==(const iterator& o) const { return id_ == o.id_; }
      bool operator!=(const iterator& o) const { return id_ != o.id_; }

     private:
      const Graph* g_;
      EdgeId id_;
    };

    explicit EdgeView(const Graph* g) : g_(g) {}
    size_t size() const { return g_->NumEdges(); }
    bool empty() const { return size() == 0; }
    const Edge& operator[](EdgeId id) const { return g_->GetEdge(id); }
    iterator begin() const { return iterator(g_, 0); }
    iterator end() const { return iterator(g_, g_->NumEdges()); }

   private:
    const Graph* g_;
  };

  /// All edges (id = index).
  EdgeView edges() const { return EdgeView(this); }

  /// Estimated resident memory of the structure in bytes (this copy
  /// alone; chunks shared with other copies are still counted).
  uint64_t MemoryBytes() const;

  /// Adds this graph's resident bytes to a running total, counting each
  /// physical chunk and the shared topology once across every call made
  /// with the same `seen` set. Returns the bytes newly added.
  uint64_t AddResidentBytes(std::unordered_set<const void*>* seen) const;

  /// Cumulative CoW clone counters (monotone; copies inherit and then
  /// diverge), edge + arc chunks summed.
  CowChunkStats cow_stats() const {
    CowChunkStats s = edges_.stats();
    s += arcs_.stats();
    return s;
  }

  /// Element bytes of the two weight-bearing tables — what a full copy
  /// of the weights would copy (the shared topology never is).
  uint64_t CowPayloadBytes() const {
    return edges_.PayloadBytes() + arcs_.PayloadBytes();
  }

 private:
  /// Immutable structure shared by every copy of a graph.
  struct Topology {
    uint32_t num_vertices = 0;
    uint32_t num_edges = 0;
    std::vector<uint32_t> adj_offset;  // size num_vertices + 1
    // arc_pos[2*e], arc_pos[2*e+1]: global arc positions of edge e's two
    // directions, so SetEdgeWeight can refresh the mirrored weights.
    std::vector<uint32_t> arc_pos;
    std::vector<uint32_t> vertex_chunk;    // arc chunk containing ArcsOf(v)
    std::vector<uint32_t> arc_chunk_base;  // first arc position per chunk

    uint64_t MemoryBytes() const {
      return adj_offset.capacity() * sizeof(uint32_t) +
             arc_pos.capacity() * sizeof(uint32_t) +
             vertex_chunk.capacity() * sizeof(uint32_t) +
             arc_chunk_base.capacity() * sizeof(uint32_t);
    }
  };

  /// Splits the flat build-time arrays into chunks and installs them.
  void Chunk(uint32_t num_vertices, std::vector<Edge> edges,
             std::vector<uint32_t> adj_offset, std::vector<Arc> arcs,
             std::vector<uint32_t> arc_pos);

  std::shared_ptr<const Topology> topo_;
  // The CoW detach protocol (sole-owner check + acquire fence, clone
  // counters, raw data mirrors) lives in CowChunks.
  CowChunks<Edge> edges_;
  CowChunks<Arc> arcs_;
};

/// Labels connected components; returns component id per vertex and the
/// number of components.
std::pair<std::vector<uint32_t>, uint32_t> ConnectedComponents(
    const Graph& g);

/// True iff the graph is connected (the empty graph is connected).
bool IsConnected(const Graph& g);

/// Extracts the largest connected component as a new graph with vertices
/// renumbered [0, k). Returns the new graph and the old->new vertex map
/// (UINT32_MAX for dropped vertices).
std::pair<Graph, std::vector<uint32_t>> ExtractLargestComponent(
    const Graph& g);

}  // namespace stl

#endif  // STL_GRAPH_GRAPH_H_
