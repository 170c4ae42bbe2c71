#include "partition/separator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "partition/bisection.h"
#include "tests/test_util.h"

namespace stl {
namespace {

std::vector<Vertex> AllVertices(const Graph& g) {
  std::vector<Vertex> v(g.NumVertices());
  for (Vertex i = 0; i < g.NumVertices(); ++i) v[i] = i;
  return v;
}

/// No edge may connect the two sides once the separator is removed.
void ExpectSeparates(const Graph& g, const SeparatorResult& r) {
  std::set<Vertex> left(r.left.begin(), r.left.end());
  std::set<Vertex> right(r.right.begin(), r.right.end());
  for (const Edge& e : g.edges()) {
    bool lu = left.count(e.u), ru = right.count(e.u);
    bool lv = left.count(e.v), rv = right.count(e.v);
    EXPECT_FALSE((lu && rv) || (ru && lv))
        << "edge " << e.u << "-" << e.v << " crosses the cut";
  }
}

void ExpectPartitions(const std::vector<Vertex>& region,
                      const SeparatorResult& r) {
  std::vector<Vertex> all;
  all.insert(all.end(), r.separator.begin(), r.separator.end());
  all.insert(all.end(), r.left.begin(), r.left.end());
  all.insert(all.end(), r.right.begin(), r.right.end());
  std::sort(all.begin(), all.end());
  std::vector<Vertex> want = region;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(all, want);  // disjoint cover (duplicates would break equality)
}

class SeparatorSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeparatorSeeds, SeparatesAndBalances) {
  Graph g = testing_util::SmallRoadNetwork(14, GetParam());
  SeparatorFinder finder(g);
  Rng rng(GetParam());
  auto region = AllVertices(g);
  SeparatorResult r = finder.Find(region, 3, &rng);
  EXPECT_FALSE(r.separator.empty());
  ExpectSeparates(g, r);
  ExpectPartitions(region, r);
  // BFS-half splitting guarantees both sides at most ~half the region.
  EXPECT_LE(r.left.size(), (region.size() + 1) / 2);
  EXPECT_LE(r.right.size(), (region.size() + 1) / 2);
  // Road-like regions have small separators.
  EXPECT_LT(r.separator.size(), region.size() / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparatorSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SeparatorTest, TinyRegionOfTwo) {
  Graph g = testing_util::MakeGraph(2, {{0, 1, 3}});
  SeparatorFinder finder(g);
  Rng rng(1);
  SeparatorResult r = finder.Find({0, 1}, 2, &rng);
  EXPECT_EQ(r.separator.size(), 1u);
  EXPECT_EQ(r.left.size() + r.right.size(), 1u);
}

TEST(SeparatorTest, StarGraphCutsCenter) {
  std::vector<Edge> edges;
  for (Vertex v = 1; v <= 8; ++v) edges.push_back({0, v, 1});
  Graph g = testing_util::MakeGraph(9, edges);
  SeparatorFinder finder(g);
  Rng rng(1);
  auto region = AllVertices(g);
  SeparatorResult r = finder.Find(region, 3, &rng);
  ExpectSeparates(g, r);
  // The centre is the only vertex cover of any star cut.
  EXPECT_EQ(r.separator.size(), 1u);
  EXPECT_EQ(r.separator[0], 0u);
}

TEST(SeparatorTest, SubRegionOnly) {
  Graph g = testing_util::SmallRoadNetwork(10, 4);
  SeparatorFinder finder(g);
  Rng rng(2);
  // Region = first half of the vertices that are connected; use a BFS ball.
  std::vector<Vertex> region;
  auto comps = finder.RegionComponents(AllVertices(g));
  ASSERT_EQ(comps.size(), 1u);
  region.assign(comps[0].begin(), comps[0].begin() + comps[0].size() / 2);
  auto sub = finder.RegionComponents(region);
  // Operate on the largest connected chunk of that region.
  std::sort(sub.begin(), sub.end(), [](const auto& a, const auto& b) {
    return a.size() > b.size();
  });
  if (sub[0].size() >= 2) {
    SeparatorResult r = finder.Find(sub[0], 2, &rng);
    ExpectPartitions(sub[0], r);
  }
}

TEST(SeparatorTest, RegionComponentsOnDisconnectedRegion) {
  Graph g = testing_util::TwoComponentGraph();
  SeparatorFinder finder(g);
  auto comps = finder.RegionComponents({0, 1, 2, 3, 4});
  ASSERT_EQ(comps.size(), 2u);
  std::set<size_t> sizes = {comps[0].size(), comps[1].size()};
  EXPECT_TRUE(sizes.count(3) && sizes.count(2));
}

TEST(BisectionTest, EveryVertexInExactlyOneNode) {
  Graph g = testing_util::SmallRoadNetwork(12, 9);
  PartitionTree tree = BuildPartitionTree(g, HierarchyOptions{});
  std::vector<int> seen(g.NumVertices(), 0);
  for (const auto& node : tree.nodes) {
    EXPECT_FALSE(node.vertices.empty());
    for (Vertex v : node.vertices) ++seen[v];
  }
  for (Vertex v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(seen[v], 1);
}

TEST(BisectionTest, BalanceRespectsBeta) {
  Graph g = testing_util::SmallRoadNetwork(16, 3);
  HierarchyOptions opt;
  opt.beta = 0.2;
  PartitionTree tree = BuildPartitionTree(g, opt);
  // Subtree vertex counts: child <= (1 - beta) * parent (+1 slack for the
  // vertex-count vs node-count difference in Definition 4.1).
  std::vector<uint64_t> subtree(tree.nodes.size(), 0);
  for (uint32_t id = static_cast<uint32_t>(tree.nodes.size()); id-- > 0;) {
    const auto& n = tree.nodes[id];
    subtree[id] = n.vertices.size();
    if (n.left != PartitionTree::kNoChild) subtree[id] += subtree[n.left];
    if (n.right != PartitionTree::kNoChild) subtree[id] += subtree[n.right];
  }
  for (uint32_t id = 0; id < tree.nodes.size(); ++id) {
    const auto& n = tree.nodes[id];
    for (uint32_t child : {n.left, n.right}) {
      if (child == PartitionTree::kNoChild) continue;
      EXPECT_LE(subtree[child], (1.0 - opt.beta) * subtree[id] + 1)
          << "node " << id;
    }
  }
}

TEST(BisectionTest, DisconnectedGraphHandled) {
  Graph g = testing_util::TwoComponentGraph();
  PartitionTree tree = BuildPartitionTree(g, HierarchyOptions{});
  size_t total = 0;
  for (const auto& n : tree.nodes) total += n.vertices.size();
  EXPECT_EQ(total, g.NumVertices());
}

TEST(BisectionTest, LeafSizeRespected) {
  Graph g = testing_util::SmallRoadNetwork(10, 6);
  HierarchyOptions opt;
  opt.leaf_size = 4;
  PartitionTree tree = BuildPartitionTree(g, opt);
  for (const auto& n : tree.nodes) {
    bool is_leaf = n.left == PartitionTree::kNoChild &&
                   n.right == PartitionTree::kNoChild;
    if (!is_leaf) continue;
    EXPECT_LE(n.vertices.size(), 4u + 1);  // degenerate-split leaves allowed
  }
}

TEST(BisectionTest, SingleVertexGraphIsOneLeaf) {
  Graph g = testing_util::MakeGraph(1, {});
  PartitionTree tree = BuildPartitionTree(g, HierarchyOptions{});
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.nodes[0].vertices, std::vector<Vertex>{0});
  EXPECT_EQ(tree.nodes[0].left, PartitionTree::kNoChild);
  EXPECT_EQ(tree.nodes[0].right, PartitionTree::kNoChild);
}

TEST(BisectionTest, EmptyGraphGivesEmptyTree) {
  Graph g = testing_util::MakeGraph(0, {});
  PartitionTree tree = BuildPartitionTree(g, HierarchyOptions{});
  EXPECT_TRUE(tree.nodes.empty());
}

TEST(BisectionTest, GraphSmallerThanLeafCutoffIsOneLeaf) {
  // The whole graph fits under leaf_size: no separator is ever searched
  // and the tree is a single leaf holding every vertex.
  Graph g = GeneratePath(3, 5);
  HierarchyOptions opt;
  opt.leaf_size = 8;
  PartitionTree tree = BuildPartitionTree(g, opt);
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.nodes[0].vertices, (std::vector<Vertex>{0, 1, 2}));
}

TEST(BisectionTest, TwoVertexGraphAtMinimumLeafSize) {
  Graph g = testing_util::MakeGraph(2, {{0, 1, 7}});
  HierarchyOptions opt;
  opt.leaf_size = 1;
  PartitionTree tree = BuildPartitionTree(g, opt);
  size_t total = 0;
  for (const auto& n : tree.nodes) total += n.vertices.size();
  EXPECT_EQ(total, 2u);
}

TEST(BisectionTest, EightWorkersKeepPreorderAndCoverEveryVertexOnce) {
  Graph g = testing_util::SmallRoadNetwork(40, 5);
  HierarchyOptions opt;
  opt.num_threads = 8;
  PartitionTree tree = BuildPartitionTree(g, opt);
  const uint32_t n = static_cast<uint32_t>(tree.nodes.size());
  ASSERT_GT(n, 1u);
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.nodes[0].parent, PartitionTree::kNoChild);
  // Children come after their parent, so subtree sizes fold in reverse.
  std::vector<uint32_t> subtree(n, 1);
  for (uint32_t id = n; id-- > 0;) {
    for (uint32_t child : {tree.nodes[id].left, tree.nodes[id].right}) {
      if (child == PartitionTree::kNoChild) continue;
      ASSERT_GT(child, id);
      ASSERT_LT(child, n);
      EXPECT_EQ(tree.nodes[child].parent, id);
      subtree[id] += subtree[child];
    }
  }
  EXPECT_EQ(subtree[0], n);
  // Preorder: the left child follows its parent directly, and the right
  // child follows the whole left subtree.
  for (uint32_t id = 0; id < n; ++id) {
    const auto& node = tree.nodes[id];
    uint32_t next = id + 1;
    if (node.left != PartitionTree::kNoChild) {
      EXPECT_EQ(node.left, next) << "node " << id;
      next += subtree[node.left];
    }
    if (node.right != PartitionTree::kNoChild) {
      EXPECT_EQ(node.right, next) << "node " << id;
    }
  }
  std::vector<int> seen(g.NumVertices(), 0);
  for (const auto& node : tree.nodes) {
    EXPECT_FALSE(node.vertices.empty());
    EXPECT_TRUE(std::is_sorted(node.vertices.begin(), node.vertices.end()));
    for (Vertex v : node.vertices) ++seen[v];
  }
  for (Vertex v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(seen[v], 1);
}

TEST(BisectionTest, PathGraphGivesLogDepth) {
  Graph g = GeneratePath(256, 2);
  PartitionTree tree = BuildPartitionTree(g, HierarchyOptions{});
  // Depth should be logarithmic, far below n.
  std::vector<uint32_t> depth(tree.nodes.size(), 0);
  uint32_t max_depth = 0;
  for (uint32_t id = 0; id < tree.nodes.size(); ++id) {
    const auto& n = tree.nodes[id];
    if (n.parent != PartitionTree::kNoChild) {
      depth[id] = depth[n.parent] + 1;
    }
    max_depth = std::max(max_depth, depth[id]);
  }
  EXPECT_LE(max_depth, 24u);
}

}  // namespace
}  // namespace stl
