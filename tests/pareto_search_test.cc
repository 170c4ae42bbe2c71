#include "core/pareto_search.h"

#include <gtest/gtest.h>

#include "core/label_search.h"
#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

using testing_util::LabelDiffCount;
using testing_util::RandomUpdate;

struct Fixture {
  Graph g;
  TreeHierarchy h;
  Labelling labels;
  ParetoSearch engine;

  explicit Fixture(Graph graph, uint64_t seed = 1)
      : g(std::move(graph)),
        h(TreeHierarchy::Build(g, MakeOpt(seed))),
        labels(BuildLabelling(g, h)),
        engine(&g, h, &labels) {}

  static HierarchyOptions MakeOpt(uint64_t seed) {
    HierarchyOptions opt;
    opt.seed = seed;
    return opt;
  }

  Labelling Rebuilt() const { return BuildLabelling(g, h); }
};

TEST(ParetoSearchTest, SingleDecreaseMatchesRebuild) {
  Fixture f(testing_util::SmallRoadNetwork(10, 1));
  EdgeId e = 11 % f.g.NumEdges();
  Weight w = f.g.EdgeWeight(e);
  ASSERT_GT(w, 1u);
  f.engine.ApplyDecrease(e, 1);
  EXPECT_EQ(f.g.EdgeWeight(e), 1u);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
}

TEST(ParetoSearchTest, SingleIncreaseMatchesRebuild) {
  Fixture f(testing_util::SmallRoadNetwork(10, 2));
  EdgeId e = 29 % f.g.NumEdges();
  Weight w = f.g.EdgeWeight(e);
  f.engine.ApplyIncrease(e, w * 6);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
}

TEST(ParetoSearchTest, SmallIncreaseUsesTightBumps) {
  // A +1 increase: most affected labels should be settled by the
  // upper-bound bump alone (the effect Figure 8 measures).
  Fixture f(testing_util::SmallRoadNetwork(10, 3));
  EdgeId e = 7 % f.g.NumEdges();
  Weight w = f.g.EdgeWeight(e);
  f.engine.ApplyIncrease(e, w + 1);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
}

TEST(ParetoSearchTest, IncreaseThenRestore) {
  Fixture f(testing_util::SmallRoadNetwork(10, 4));
  Labelling original = f.labels;
  EdgeId e = 13 % f.g.NumEdges();
  Weight w = f.g.EdgeWeight(e);
  f.engine.ApplyIncrease(e, w * 2);
  f.engine.ApplyDecrease(e, w);
  EXPECT_EQ(LabelDiffCount(f.labels, original), 0u);
}

TEST(ParetoSearchTest, TiedShortestPathsThroughBothEndpoints) {
  // Diamond with equal-length sides plus the updated chord: shortest
  // paths tie through both endpoints of the update, exercising the
  // second-search bump guard (the deviation noted under "Paper
  // reproduction notes" in docs/ARCHITECTURE.md).
  //      1
  //    .' '.
  //   0     3 --- 4
  //    '. .'
  //      2
  Graph g = testing_util::MakeGraph(
      5, {{0, 1, 2}, {0, 2, 2}, {1, 3, 2}, {2, 3, 2}, {3, 4, 3}, {0, 4, 10}});
  Fixture f(std::move(g));
  auto chord = f.g.FindEdge(0, 4);
  ASSERT_TRUE(chord.has_value());
  // Increase the chord: paths 0-1-3-4 and 0-2-3-4 tie at 7 < 10 already;
  // then decrease to 4 making the chord optimal again.
  f.engine.ApplyIncrease(*chord, 12);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
  f.engine.ApplyDecrease(*chord, 4);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
  // Equal-weight everything: increase an inner tied edge.
  auto inner = f.g.FindEdge(1, 3);
  ASSERT_TRUE(inner.has_value());
  f.engine.ApplyIncrease(*inner, 9);
  EXPECT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u);
}

TEST(ParetoSearchTest, UniformWeightsManyTies) {
  // Uniform weights maximize tie density; run a storm of updates.
  RoadNetworkOptions opt;
  opt.width = 9;
  opt.height = 9;
  opt.local_min_weight = 10;
  opt.local_max_weight = 10;
  opt.arterial_every = 0;
  opt.highway_every = 0;
  opt.seed = 5;
  Fixture f(GenerateRoadNetwork(opt));
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    WeightUpdate u = RandomUpdate(f.g, &rng);
    f.engine.ApplyBatch({u});
    ASSERT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u) << round;
  }
}

TEST(ParetoSearchTest, AgreesWithLabelSearch) {
  // Two engines over two identical copies must produce identical labels.
  Graph g1 = testing_util::SmallRoadNetwork(10, 6);
  Graph g2 = g1;
  Fixture fp(std::move(g1), 6);
  Graph* g2p = &g2;
  TreeHierarchy h2 = TreeHierarchy::Build(*g2p, Fixture::MakeOpt(6));
  Labelling l2 = BuildLabelling(*g2p, h2);
  LabelSearch ls(g2p, h2, &l2);
  Rng rng(6);
  for (int round = 0; round < 15; ++round) {
    WeightUpdate u = RandomUpdate(fp.g, &rng);
    fp.engine.ApplyBatch({u});
    ls.ApplyBatch({u});
    ASSERT_EQ(LabelDiffCount(fp.labels, l2), 0u) << round;
  }
}

TEST(ParetoSearchDeathTest, WrongDirectionRejected) {
  Fixture f(testing_util::SmallRoadNetwork(6, 7));
  Weight w = f.g.EdgeWeight(0);
  EXPECT_DEATH(f.engine.ApplyDecrease(0, w + 1), "not a decrease");
  EXPECT_DEATH(f.engine.ApplyIncrease(0, w == 1 ? 1 : w - 1),
               "not an increase");
}

TEST(ParetoSearchTest, BatchSkipsNoOps) {
  Fixture f(testing_util::SmallRoadNetwork(6, 8));
  Labelling before = f.labels;
  Weight w = f.g.EdgeWeight(0);
  f.engine.ApplyBatch({WeightUpdate{0, w, w}});
  EXPECT_EQ(LabelDiffCount(f.labels, before), 0u);
}

TEST(ParetoSearchTest, StatsAccumulate) {
  Fixture f(testing_util::SmallRoadNetwork(10, 9));
  EdgeId e = 3 % f.g.NumEdges();
  f.engine.ApplyIncrease(e, f.g.EdgeWeight(e) * 4);
  EXPECT_GT(f.engine.stats().queue_pops, 0u);
}

TEST(ParetoSearchTest, QueriesStayCorrectUnderUpdates) {
  Fixture f(testing_util::SmallRoadNetwork(11, 10));
  Rng rng(10);
  for (int round = 0; round < 8; ++round) {
    WeightUpdate u = RandomUpdate(f.g, &rng);
    f.engine.ApplyBatch({u});
    Dijkstra dij(f.g);
    for (int i = 0; i < 60; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(f.g.NumVertices()));
      Vertex t = static_cast<Vertex>(rng.NextBounded(f.g.NumVertices()));
      ASSERT_EQ(QueryDistance(f.h, f.labels, s, t), dij.Distance(s, t))
          << "round " << round;
    }
  }
}

class ParetoRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParetoRandomized, LongUpdateSequenceMatchesRebuild) {
  const uint64_t seed = GetParam();
  Fixture f(testing_util::SmallRoadNetwork(9, seed), seed);
  Rng rng(seed * 31 + 7);
  for (int round = 0; round < 25; ++round) {
    WeightUpdate u = RandomUpdate(f.g, &rng);
    f.engine.ApplyBatch({u});
    ASSERT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u)
        << "seed " << seed << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ParetoSearchTest, WorksOnRandomTopology) {
  Graph g = GenerateRandomConnectedGraph(120, 100, 1, 30, 77);
  Fixture f(std::move(g), 77);
  Rng rng(78);
  for (int round = 0; round < 15; ++round) {
    WeightUpdate u = RandomUpdate(f.g, &rng);
    f.engine.ApplyBatch({u});
    ASSERT_EQ(LabelDiffCount(f.labels, f.Rebuilt()), 0u) << round;
  }
}

}  // namespace
}  // namespace stl
