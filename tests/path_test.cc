// Tests for shortest-path reconstruction (QueryPath) and parallel label
// construction.
#include <gtest/gtest.h>

#include "core/stl_index.h"
#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

using testing_util::LabelDiffCount;
using testing_util::RandomUpdate;

/// Checks that `path` is a real s-t walk in g with total weight `want`.
void ExpectValidPath(const Graph& g, const std::vector<Vertex>& path,
                     Vertex s, Vertex t, Weight want) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
  uint64_t total = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto e = g.FindEdge(path[i], path[i + 1]);
    ASSERT_TRUE(e.has_value())
        << "no edge " << path[i] << "-" << path[i + 1];
    total += g.EdgeWeight(*e);
  }
  EXPECT_EQ(total, want);
}

TEST(QueryPathTest, TrivialCases) {
  Graph g = testing_util::SmallRoadNetwork(8, 1);
  StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
  auto self = idx.QueryShortestPath(3, 3);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 3u);
}

TEST(QueryPathTest, UnreachableIsEmpty) {
  Graph g = testing_util::TwoComponentGraph();
  StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
  EXPECT_TRUE(idx.QueryShortestPath(0, 4).empty());
  EXPECT_FALSE(idx.QueryShortestPath(0, 2).empty());
}

class PathSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathSeeds, PathsAreValidShortestPaths) {
  Graph g = testing_util::SmallRoadNetwork(12, GetParam());
  Graph ref = g;
  StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
  Dijkstra dij(ref);
  Rng rng(GetParam() * 17 + 1);
  for (int i = 0; i < 150; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Weight want = dij.Distance(s, t);
    auto path = idx.QueryShortestPath(s, t);
    if (want == kInfDistance) {
      EXPECT_TRUE(path.empty());
    } else if (s == t) {
      EXPECT_EQ(path.size(), 1u);
    } else {
      ExpectValidPath(g, path, s, t, want);
    }
  }
}

TEST_P(PathSeeds, PathsStayValidUnderUpdates) {
  Graph g = testing_util::SmallRoadNetwork(9, GetParam());
  StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
  Rng rng(GetParam() * 23 + 5);
  for (int round = 0; round < 6; ++round) {
    idx.ApplyUpdate(RandomUpdate(g, &rng));
    Dijkstra dij(g);
    for (int i = 0; i < 40; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
      Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
      if (s == t) continue;
      Weight want = dij.Distance(s, t);
      if (want == kInfDistance) continue;
      ExpectValidPath(g, idx.QueryShortestPath(s, t), s, t, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(QueryPathTest, WorksOnRandomTopology) {
  Graph g = GenerateRandomConnectedGraph(150, 130, 1, 30, 9);
  Graph ref = g;
  StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
  Dijkstra dij(ref);
  Rng rng(9);
  for (int i = 0; i < 120; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    if (s == t) continue;
    ExpectValidPath(g, idx.QueryShortestPath(s, t), s, t,
                    dij.Distance(s, t));
  }
}

TEST(ParallelBuildTest, ThreadsProduceIdenticalLabels) {
  Graph g = testing_util::SmallRoadNetwork(16, 44);
  HierarchyOptions opt;
  TreeHierarchy h = TreeHierarchy::Build(g, opt);
  Labelling serial = BuildLabelling(g, h, 1);
  for (int threads : {2, 3, 4}) {
    Labelling parallel = BuildLabelling(g, h, threads);
    EXPECT_EQ(LabelDiffCount(serial, parallel), 0u) << threads;
  }
}

// Threaded builds write the same labels as the serial one, bit for bit:
// 2 threads on a 12x12 grid, and the default options (every core) on a
// 40x40 grid.
TEST(ParallelBuildTest, IndexBuildWithThreads) {
  HierarchyOptions two;
  two.num_threads = 2;
  const struct {
    uint32_t side;
    uint64_t seed;
    HierarchyOptions threaded;
  } cases[] = {{12, 45, two}, {40, 46, HierarchyOptions{}}};
  for (const auto& c : cases) {
    Graph g1 = testing_util::SmallRoadNetwork(c.side, c.seed);
    Graph g2 = g1;
    HierarchyOptions serial;
    serial.num_threads = 1;  // the default is every core
    StlIndex a = StlIndex::Build(&g1, serial);
    StlIndex b = StlIndex::Build(&g2, c.threaded);
    EXPECT_TRUE(a.labels() == b.labels()) << "side=" << c.side;
  }
}

// More threads than cut vertices: the surplus starts no worker, and the
// few columns there are still come out exact.
TEST(ParallelBuildTest, TinyGraphsWithManyThreads) {
  const std::vector<Graph> graphs = {
      testing_util::MakeGraph(1, {}),
      testing_util::MakeGraph(2, {{0, 1, 3}}),
      testing_util::MakeGraph(2, {}),
      testing_util::MakeGraph(3, {{0, 1, 3}, {1, 2, 4}, {0, 2, 9}}),
      testing_util::MakeGraph(3, {{0, 2, 5}}),
  };
  HierarchyOptions opt;
  opt.num_threads = 8;
  for (const Graph& base : graphs) {
    Graph g = base;
    StlIndex idx = StlIndex::Build(&g, opt);
    Dijkstra dij(base);
    for (Vertex s = 0; s < base.NumVertices(); ++s) {
      for (Vertex t = 0; t < base.NumVertices(); ++t) {
        EXPECT_EQ(idx.Query(s, t), dij.Distance(s, t))
            << "n=" << base.NumVertices() << " s=" << s << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace stl
