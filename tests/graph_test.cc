#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace stl {
namespace {

using testing_util::MakeGraph;
using testing_util::TwoComponentGraph;

TEST(GraphTest, EmptyGraph) {
  Result<Graph> g = Graph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().NumVertices(), 0u);
  EXPECT_EQ(g.value().NumEdges(), 0u);
  EXPECT_TRUE(IsConnected(g.value()));
}

TEST(GraphTest, BasicAccessors) {
  Graph g = MakeGraph(4, {{0, 1, 5}, {1, 2, 7}, {0, 2, 3}, {2, 3, 1}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
}

TEST(GraphTest, AdjacencySortedByHead) {
  Graph g = MakeGraph(5, {{2, 4, 1}, {2, 0, 1}, {2, 3, 1}, {2, 1, 1}});
  auto arcs = g.ArcsOf(2);
  ASSERT_EQ(arcs.size(), 4u);
  for (size_t i = 0; i + 1 < arcs.size(); ++i) {
    EXPECT_LT(arcs[i].head, arcs[i + 1].head);
  }
}

TEST(GraphTest, ArcWeightsMirrorEdges) {
  Graph g = MakeGraph(3, {{0, 1, 5}, {1, 2, 9}});
  for (Vertex v = 0; v < 3; ++v) {
    for (const Arc& a : g.ArcsOf(v)) {
      EXPECT_EQ(a.weight, g.EdgeWeight(a.edge));
    }
  }
}

TEST(GraphTest, SetEdgeWeightUpdatesBothDirections) {
  Graph g = MakeGraph(3, {{0, 1, 5}, {1, 2, 9}});
  auto e = g.FindEdge(0, 1);
  ASSERT_TRUE(e.has_value());
  g.SetEdgeWeight(*e, 100);
  EXPECT_EQ(g.EdgeWeight(*e), 100u);
  for (const Arc& a : g.ArcsOf(0)) {
    if (a.head == 1) {
      EXPECT_EQ(a.weight, 100u);
    }
  }
  for (const Arc& a : g.ArcsOf(1)) {
    if (a.head == 0) {
      EXPECT_EQ(a.weight, 100u);
    }
  }
}

TEST(GraphTest, FindEdgeBothDirectionsAndMissing) {
  Graph g = MakeGraph(4, {{0, 1, 5}, {1, 2, 9}});
  EXPECT_TRUE(g.FindEdge(0, 1).has_value());
  EXPECT_TRUE(g.FindEdge(1, 0).has_value());
  EXPECT_EQ(g.FindEdge(0, 1), g.FindEdge(1, 0));
  EXPECT_FALSE(g.FindEdge(0, 2).has_value());
  EXPECT_FALSE(g.FindEdge(0, 0).has_value());
  EXPECT_FALSE(g.FindEdge(0, 99).has_value());
}

TEST(GraphTest, RejectsSelfLoop) {
  Result<Graph> g = Graph::FromEdges(3, {{1, 1, 5}});
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  Result<Graph> g = Graph::FromEdges(3, {{0, 3, 5}});
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsZeroWeight) {
  Result<Graph> g = Graph::FromEdges(3, {{0, 1, 0}});
  ASSERT_FALSE(g.ok());
}

TEST(GraphTest, RejectsOversizedWeight) {
  Result<Graph> g = Graph::FromEdges(3, {{0, 1, kMaxEdgeWeight + 1}});
  ASSERT_FALSE(g.ok());
}

TEST(GraphTest, RejectsDuplicateEdges) {
  Result<Graph> g = Graph::FromEdges(3, {{0, 1, 5}, {1, 0, 7}});
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
}

TEST(GraphDeathTest, SetEdgeWeightValidatesRange) {
  Graph g = MakeGraph(3, {{0, 1, 5}});
  EXPECT_DEATH(g.SetEdgeWeight(0, 0), "out of range");
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = TwoComponentGraph();
  auto [comp, num] = ConnectedComponents(g);
  EXPECT_EQ(num, 2u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(IsConnected(g));
}

TEST(GraphTest, ExtractLargestComponent) {
  Graph g = TwoComponentGraph();
  auto [largest, remap] = ExtractLargestComponent(g);
  EXPECT_EQ(largest.NumVertices(), 3u);
  EXPECT_EQ(largest.NumEdges(), 3u);
  EXPECT_TRUE(IsConnected(largest));
  EXPECT_EQ(remap[3], UINT32_MAX);
  EXPECT_EQ(remap[4], UINT32_MAX);
  EXPECT_NE(remap[0], UINT32_MAX);
}

TEST(GraphTest, IsolatedVerticesAreComponents) {
  Graph g = MakeGraph(4, {{0, 1, 2}});
  auto [comp, num] = ConnectedComponents(g);
  (void)comp;
  EXPECT_EQ(num, 3u);
}

TEST(GraphTest, MemoryBytesNonTrivial) {
  Graph g = MakeGraph(3, {{0, 1, 5}, {1, 2, 9}});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, CopyOnWriteIsolatesCopiesFromWeightWrites) {
  Graph g = testing_util::SmallRoadNetwork(12, 41);
  const uint32_t m = g.NumEdges();
  Rng rng(41);
  std::vector<Graph> copies;
  std::vector<std::vector<Weight>> frozen;
  for (int round = 0; round < 6; ++round) {
    copies.push_back(g);  // structural share: chunk refcount bumps
    std::vector<Weight> w(m);
    for (EdgeId e = 0; e < m; ++e) w[e] = g.EdgeWeight(e);
    frozen.push_back(std::move(w));
    for (int i = 0; i < 20; ++i) {
      g.SetEdgeWeight(static_cast<EdgeId>(rng.NextBounded(m)),
                      1 + static_cast<Weight>(rng.NextBounded(900)));
    }
    // Every older copy still reads its captured weights, through both
    // the edge table and the mirrored arcs.
    for (size_t c = 0; c < copies.size(); ++c) {
      for (EdgeId e = 0; e < m; ++e) {
        ASSERT_EQ(copies[c].EdgeWeight(e), frozen[c][e]) << "copy " << c;
      }
      for (Vertex v = 0; v < copies[c].NumVertices(); v += 7) {
        for (const Arc& a : copies[c].ArcsOf(v)) {
          ASSERT_EQ(a.weight, frozen[c][a.edge]);
        }
      }
    }
  }
  EXPECT_GT(g.cow_stats().chunks_cloned, 0u);
  EXPECT_GT(g.cow_stats().bytes_cloned, 0u);
}

TEST(GraphTest, SoleOwnerWritesDoNotClone) {
  Graph g = testing_util::SmallRoadNetwork(8, 43);
  const uint64_t cloned0 = g.cow_stats().chunks_cloned;
  g.SetEdgeWeight(0, 123);
  // No copy shares the chunks, so the write lands in place.
  EXPECT_EQ(g.cow_stats().chunks_cloned, cloned0);
  {
    Graph copy = g;
    g.SetEdgeWeight(0, 124);  // now shared: must clone
    EXPECT_GT(g.cow_stats().chunks_cloned, cloned0);
    EXPECT_EQ(copy.EdgeWeight(0), 123u);
  }
  // The copy died; the next write touches already-detached chunks.
  const uint64_t cloned1 = g.cow_stats().chunks_cloned;
  g.SetEdgeWeight(0, 125);
  EXPECT_EQ(g.cow_stats().chunks_cloned, cloned1);
}

TEST(GraphTest, ResidentBytesDeduplicatesSharedChunks) {
  Graph g = testing_util::SmallRoadNetwork(12, 45);
  std::unordered_set<const void*> seen;
  const uint64_t solo = g.AddResidentBytes(&seen);
  EXPECT_GT(solo, 0u);
  Graph copy = g;  // shares everything
  const uint64_t extra = copy.AddResidentBytes(&seen);
  // Only the per-copy pointer tables are new.
  EXPECT_LT(extra, solo / 4);
  g.SetEdgeWeight(0, 42);  // detaches a few chunks
  std::unordered_set<const void*> seen2;
  uint64_t both = g.AddResidentBytes(&seen2);
  both += copy.AddResidentBytes(&seen2);
  EXPECT_GT(both, solo);          // the detached chunks are extra
  EXPECT_LT(both, 2 * solo);      // but far from a full second graph
}

TEST(GraphTest, EdgeViewMatchesGetEdge) {
  Graph g = testing_util::SmallRoadNetwork(9, 46);
  EdgeId id = 0;
  for (const Edge& e : g.edges()) {
    const Edge& want = g.GetEdge(id);
    ASSERT_EQ(e.u, want.u);
    ASSERT_EQ(e.v, want.v);
    ASSERT_EQ(e.w, want.w);
    ASSERT_EQ(&e, &g.edges()[id]);  // references point into the chunks
    ++id;
  }
  EXPECT_EQ(id, g.NumEdges());
  EXPECT_EQ(g.edges().size(), g.NumEdges());
}

}  // namespace
}  // namespace stl
