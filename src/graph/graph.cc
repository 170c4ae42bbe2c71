#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace stl {

void Graph::Chunk(uint32_t num_vertices, std::vector<Edge> edges,
                  std::vector<uint32_t> adj_offset, std::vector<Arc> arcs,
                  std::vector<uint32_t> arc_pos) {
  auto topo = std::make_shared<Topology>();
  topo->num_vertices = num_vertices;
  topo->num_edges = static_cast<uint32_t>(edges.size());
  topo->adj_offset = std::move(adj_offset);
  topo->arc_pos = std::move(arc_pos);

  // Edge table: fixed-size chunks.
  edges_.Clear();
  for (size_t start = 0; start < edges.size(); start += kEdgeChunkSize) {
    const size_t end = std::min(edges.size(), start + kEdgeChunkSize);
    edges_.Append(std::vector<Edge>(edges.begin() + start,
                                    edges.begin() + end));
  }

  // Arc mirror: chunks cut at vertex boundaries (so ArcsOf(v) is one
  // contiguous span within one chunk), targeting kEdgeChunkSize arcs. A
  // vertex with more arcs than the target gets a dedicated larger chunk.
  topo->vertex_chunk.resize(num_vertices);
  arcs_.Clear();
  uint32_t chunk_start = 0;
  auto close_chunk = [&](uint32_t end) {
    topo->arc_chunk_base.push_back(chunk_start);
    arcs_.Append(std::vector<Arc>(arcs.begin() + chunk_start,
                                  arcs.begin() + end));
    chunk_start = end;
  };
  for (Vertex v = 0; v < num_vertices; ++v) {
    if (topo->adj_offset[v + 1] - chunk_start > kEdgeChunkSize &&
        topo->adj_offset[v] > chunk_start) {
      close_chunk(topo->adj_offset[v]);
    }
    topo->vertex_chunk[v] =
        static_cast<uint32_t>(topo->arc_chunk_base.size());
  }
  if (num_vertices > 0) close_chunk(topo->adj_offset[num_vertices]);

  topo_ = std::move(topo);
}

Result<Graph> Graph::FromEdges(uint32_t num_vertices,
                               std::vector<Edge> edges) {
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= num_vertices || e.v >= num_vertices) {
      return Status::InvalidArgument("edge " + std::to_string(i) +
                                     " endpoint out of range");
    }
    if (e.u == e.v) {
      return Status::InvalidArgument("edge " + std::to_string(i) +
                                     " is a self-loop");
    }
    if (e.w == 0 || e.w > kMaxEdgeWeight) {
      return Status::InvalidArgument("edge " + std::to_string(i) +
                                     " has invalid weight " +
                                     std::to_string(e.w));
    }
  }
  // Detect duplicates via a sorted copy of normalized endpoint pairs.
  {
    std::vector<uint64_t> keys;
    keys.reserve(edges.size());
    for (const Edge& e : edges) {
      Vertex a = std::min(e.u, e.v), b = std::max(e.u, e.v);
      keys.push_back((static_cast<uint64_t>(a) << 32) | b);
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return Status::InvalidArgument("duplicate edge in edge list");
    }
  }

  // Build the flat CSR arrays first, then chunk them.
  std::vector<uint32_t> adj_offset(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    ++adj_offset[e.u + 1];
    ++adj_offset[e.v + 1];
  }
  std::partial_sum(adj_offset.begin(), adj_offset.end(),
                   adj_offset.begin());
  std::vector<Arc> arcs(2 * edges.size());
  std::vector<uint32_t> arc_pos(2 * edges.size());
  std::vector<uint32_t> cursor(adj_offset.begin(), adj_offset.end() - 1);
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[id];
    uint32_t pu = cursor[e.u]++;
    uint32_t pv = cursor[e.v]++;
    arcs[pu] = Arc{e.v, e.w, id};
    arcs[pv] = Arc{e.u, e.w, id};
    arc_pos[2 * id] = pu;
    arc_pos[2 * id + 1] = pv;
  }
  // Sort each adjacency list by head for deterministic iteration and
  // binary-searchable FindEdge; fix up arc_pos afterwards.
  for (Vertex v = 0; v < num_vertices; ++v) {
    std::sort(arcs.begin() + adj_offset[v], arcs.begin() + adj_offset[v + 1],
              [](const Arc& a, const Arc& b) {
                if (a.head != b.head) return a.head < b.head;
                return a.edge < b.edge;
              });
  }
  for (uint32_t pos = 0; pos < arcs.size(); ++pos) {
    const Arc& a = arcs[pos];
    // Each edge has exactly two arcs; assign this position to the slot
    // whose tail matches.
    const Edge& e = edges[a.edge];
    Vertex tail = (a.head == e.v) ? e.u : e.v;
    arc_pos[2 * a.edge + (tail == e.u ? 0 : 1)] = pos;
  }

  Graph g;
  g.Chunk(num_vertices, std::move(edges), std::move(adj_offset),
          std::move(arcs), std::move(arc_pos));
  return g;
}

void Graph::SetEdgeWeight(EdgeId id, Weight w) {
  STL_CHECK(id < NumEdges());
  STL_CHECK(w > 0 && w <= kMaxEdgeWeight)
      << "weight " << w << " out of range";
  Edge& e = edges_.Writable(id >> kEdgeChunkShift)[id & kEdgeChunkMask];
  e.w = w;
  // arc_pos[2*id] lives in u's adjacency list, arc_pos[2*id+1] in v's
  // (see FromEdges), which pins down the owning chunk without a search.
  const uint32_t cu = topo_->vertex_chunk[e.u];
  arcs_.Writable(cu)[topo_->arc_pos[2 * id] - topo_->arc_chunk_base[cu]]
      .weight = w;
  const uint32_t cv = topo_->vertex_chunk[e.v];
  arcs_.Writable(cv)[topo_->arc_pos[2 * id + 1] -
                     topo_->arc_chunk_base[cv]]
      .weight = w;
}

std::optional<EdgeId> Graph::FindEdge(Vertex u, Vertex v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) {
    return std::nullopt;
  }
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto arcs = ArcsOf(u);
  auto it = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex head) { return a.head < head; });
  if (it != arcs.end() && it->head == v) return it->edge;
  return std::nullopt;
}

uint64_t Graph::MemoryBytes() const {
  if (!topo_) return 0;
  return topo_->MemoryBytes() + edges_.MemoryBytes() + arcs_.MemoryBytes();
}

uint64_t Graph::AddResidentBytes(
    std::unordered_set<const void*>* seen) const {
  if (!topo_) return 0;
  uint64_t bytes = edges_.AddResidentBytes(seen);
  bytes += arcs_.AddResidentBytes(seen);
  if (seen->insert(topo_.get()).second) bytes += topo_->MemoryBytes();
  return bytes;
}

std::pair<std::vector<uint32_t>, uint32_t> ConnectedComponents(
    const Graph& g) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> comp(n, UINT32_MAX);
  std::vector<Vertex> stack;
  uint32_t num_comps = 0;
  for (Vertex s = 0; s < n; ++s) {
    if (comp[s] != UINT32_MAX) continue;
    comp[s] = num_comps;
    stack.push_back(s);
    while (!stack.empty()) {
      Vertex v = stack.back();
      stack.pop_back();
      for (const Arc& a : g.ArcsOf(v)) {
        if (comp[a.head] == UINT32_MAX) {
          comp[a.head] = num_comps;
          stack.push_back(a.head);
        }
      }
    }
    ++num_comps;
  }
  return {std::move(comp), num_comps};
}

bool IsConnected(const Graph& g) {
  if (g.NumVertices() == 0) return true;
  return ConnectedComponents(g).second == 1;
}

std::pair<Graph, std::vector<uint32_t>> ExtractLargestComponent(
    const Graph& g) {
  auto [comp, num_comps] = ConnectedComponents(g);
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> size(num_comps, 0);
  for (Vertex v = 0; v < n; ++v) ++size[comp[v]];
  uint32_t best =
      static_cast<uint32_t>(std::max_element(size.begin(), size.end()) -
                            size.begin());
  std::vector<uint32_t> remap(n, UINT32_MAX);
  uint32_t next = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (comp[v] == best) remap[v] = next++;
  }
  std::vector<Edge> edges;
  for (const Edge& e : g.edges()) {
    if (remap[e.u] != UINT32_MAX && remap[e.v] != UINT32_MAX) {
      edges.push_back(Edge{remap[e.u], remap[e.v], e.w});
    }
  }
  Result<Graph> sub = Graph::FromEdges(next, std::move(edges));
  STL_CHECK(sub.ok()) << sub.status().ToString();
  return {std::move(sub).value(), std::move(remap)};
}

}  // namespace stl
