#include "core/labelling.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/min_heap.h"
#include "util/rng.h"

namespace stl {
namespace {

struct Built {
  Graph g;
  TreeHierarchy h;
  Labelling labels;
};

Built BuildAll(Graph g, uint64_t seed) {
  HierarchyOptions opt;
  opt.seed = seed;
  TreeHierarchy h = TreeHierarchy::Build(g, opt);
  Labelling labels = BuildLabelling(g, h);
  return Built{std::move(g), std::move(h), std::move(labels)};
}

TEST(LabellingTest, ShapeMatchesHierarchy) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(10, 1), 1);
  EXPECT_EQ(b.labels.NumVertices(), b.g.NumVertices());
  for (Vertex v = 0; v < b.g.NumVertices(); ++v) {
    EXPECT_EQ(b.labels.LabelSize(v), b.h.LabelSize(v));
    EXPECT_EQ(b.labels.At(v, b.h.Tau(v)), 0u);  // self entry
  }
  EXPECT_EQ(b.labels.TotalEntries(), b.h.TotalLabelEntries());
}

TEST(LabellingTest, EntriesAreSubgraphDistances) {
  // Definition 4.6: L_v[tau(r)] is the distance in G[Desc(r)], not in G.
  auto b = BuildAll(testing_util::SmallRoadNetwork(8, 3), 3);
  Rng rng(3);
  int checked = 0;
  for (int i = 0; i < 400 && checked < 120; ++i) {
    Vertex v = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    uint32_t col = static_cast<uint32_t>(rng.NextBounded(b.h.LabelSize(v)));
    Vertex r = b.h.AncestorAt(v, col);
    // Build the induced subgraph Desc(r) = {x : tau(x) >= tau(r)}.
    const uint32_t tr = b.h.Tau(r);
    std::vector<uint32_t> remap(b.g.NumVertices(), UINT32_MAX);
    uint32_t next = 0;
    for (Vertex x = 0; x < b.g.NumVertices(); ++x) {
      // Desc(r): on or below r's node, i.e. tau >= tau(r) AND r on the
      // root path. Comparability via path prefix.
      if (b.h.Tau(x) < tr) continue;
      auto px = b.h.PathOf(b.h.NodeOf(x));
      auto pr = b.h.PathOf(b.h.NodeOf(r));
      if (px.size() < pr.size() || px[pr.size() - 1] != pr[pr.size() - 1]) {
        continue;
      }
      remap[x] = next++;
    }
    if (remap[v] == UINT32_MAX) continue;  // v not below r (can't happen)
    std::vector<Edge> edges;
    for (const Edge& e : b.g.edges()) {
      if (remap[e.u] != UINT32_MAX && remap[e.v] != UINT32_MAX) {
        edges.push_back(Edge{remap[e.u], remap[e.v], e.w});
      }
    }
    Graph sub = testing_util::MakeGraph(next, std::move(edges));
    Dijkstra dij(sub);
    EXPECT_EQ(b.labels.At(v, col), dij.Distance(remap[r], remap[v]))
        << "v=" << v << " r=" << r;
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(LabellingTest, TwoHopCoverProperty) {
  // Lemma 4.7: for every pair some common-ancestor column is tight.
  auto b = BuildAll(testing_util::SmallRoadNetwork(9, 5), 5);
  Dijkstra dij(b.g);
  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    Weight want = dij.Distance(s, t);
    uint32_t k = b.h.CommonAncestorCount(s, t);
    Weight best = kInfDistance;
    bool never_below = true;
    for (uint32_t j = 0; j < k; ++j) {
      Weight cand = SaturatingAdd(b.labels.At(s, j), b.labels.At(t, j));
      never_below = never_below && cand >= want;
      best = std::min(best, cand);
    }
    EXPECT_TRUE(never_below);  // labels never undercut the true distance
    EXPECT_EQ(best, want) << "s=" << s << " t=" << t;
  }
}

class QueryAgreement
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(QueryAgreement, MatchesDijkstra) {
  auto [side, seed] = GetParam();
  auto b = BuildAll(testing_util::SmallRoadNetwork(side, seed), seed);
  Dijkstra dij(b.g);
  Rng rng(seed * 101 + side);
  for (int i = 0; i < 250; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    EXPECT_EQ(QueryDistance(b.h, b.labels, s, t), dij.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryAgreement,
    ::testing::Combine(::testing::Values(6u, 10u, 16u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(LabellingTest, QueryIsSymmetric) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(10, 7), 7);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    EXPECT_EQ(QueryDistance(b.h, b.labels, s, t),
              QueryDistance(b.h, b.labels, t, s));
  }
}

TEST(LabellingTest, SelfQueryIsZero) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(7, 2), 2);
  for (Vertex v = 0; v < b.g.NumVertices(); v += 3) {
    EXPECT_EQ(QueryDistance(b.h, b.labels, v, v), 0u);
  }
}

TEST(LabellingTest, DisconnectedPairsAreInf) {
  auto b = BuildAll(testing_util::TwoComponentGraph(), 9);
  EXPECT_EQ(QueryDistance(b.h, b.labels, 0, 3), kInfDistance);
  EXPECT_EQ(QueryDistance(b.h, b.labels, 4, 1), kInfDistance);
  Dijkstra dij(b.g);
  EXPECT_EQ(QueryDistance(b.h, b.labels, 0, 2), dij.Distance(0, 2));
  EXPECT_EQ(QueryDistance(b.h, b.labels, 3, 4), 7u);
}

TEST(LabellingTest, RandomGraphsNotJustGrids) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = GenerateRandomConnectedGraph(150, 120, 1, 40, seed);
    auto b = BuildAll(std::move(g), seed);
    Dijkstra dij(b.g);
    Rng rng(seed);
    for (int i = 0; i < 150; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
      Vertex t = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
      ASSERT_EQ(QueryDistance(b.h, b.labels, s, t), dij.Distance(s, t))
          << "seed=" << seed << " s=" << s << " t=" << t;
    }
  }
}

TEST(LabellingTest, SerializeRoundTrip) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(8, 13), 13);
  const std::string path = std::string(::testing::TempDir()) + "/lab.bin";
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 1, 1).ok());
    ASSERT_TRUE(b.labels.Serialize(&w).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  Labelling l2;
  BinaryReader r;
  ASSERT_TRUE(r.Open(path, 1, 1).ok());
  ASSERT_TRUE(l2.Deserialize(&r).ok());
  EXPECT_TRUE(b.labels == l2);
}

TEST(LabellingTest, PagedLayoutKeepsEachLabelContiguous) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(16, 15), 15);
  // Data(v) must be one contiguous block equal to the At() view — the
  // paging layer may never split a label across pages.
  for (Vertex v = 0; v < b.g.NumVertices(); ++v) {
    const Weight* data = b.labels.Data(v);
    for (uint32_t i = 0; i < b.labels.LabelSize(v); ++i) {
      ASSERT_EQ(data[i], b.labels.At(v, i)) << "v=" << v << " i=" << i;
    }
  }
  // A 16x16 network has well over one page of label entries.
  EXPECT_GT(b.labels.PageCount(), 1u);
  EXPECT_GT(b.labels.MemoryBytes(),
            b.labels.TotalEntries() * sizeof(Weight));
}

TEST(LabellingTest, CowCopiesAreIsolatedFromWriterMutations) {
  // The randomized aliasing audit: hold N structurally shared copies
  // (simulated old snapshots), keep mutating the master through the CoW
  // write path, and verify every held copy stays byte-for-byte equal to
  // the deep copy frozen at its capture time.
  auto b = BuildAll(testing_util::SmallRoadNetwork(10, 17), 17);
  Rng rng(17);
  std::vector<Labelling> held;
  std::vector<Labelling> frozen;
  for (int round = 0; round < 8; ++round) {
    held.push_back(b.labels);            // refcount bumps only
    frozen.push_back(b.labels.DeepCopy());
    for (int i = 0; i < 60; ++i) {
      Vertex v = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
      uint32_t idx =
          static_cast<uint32_t>(rng.NextBounded(b.labels.LabelSize(v)));
      Weight val = static_cast<Weight>(rng.NextBounded(kInfDistance));
      if (rng.NextBounded(2) == 0) {
        b.labels.Set(v, idx, val);
      } else {
        b.labels.MutableData(v)[idx] = val;  // the engines' fast path
      }
    }
    for (size_t c = 0; c < held.size(); ++c) {
      ASSERT_TRUE(held[c] == frozen[c]) << "round " << round << " copy "
                                        << c << " mutated through aliasing";
    }
  }
  const CowChunkStats cow = b.labels.cow_stats();
  EXPECT_GT(cow.chunks_cloned, 0u);
  // Clone cost is bounded by the page granularity: never more bytes than
  // dirty pages times the largest physical page (the CI bench guard's
  // invariant; MaxPageBytes == kPageEntries * 4 unless a label overflows
  // a page and owns a dedicated one).
  const uint64_t page_cap =
      std::max<uint64_t>(Labelling::kPageEntries * sizeof(Weight),
                         b.labels.MaxPageBytes());
  EXPECT_LE(cow.bytes_cloned, cow.chunks_cloned * page_cap);
}

TEST(LabellingTest, SoleOwnerWritesDoNotClone) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(8, 19), 19);
  EXPECT_EQ(b.labels.cow_stats().chunks_cloned, 0u);  // build never clones
  b.labels.Set(0, 0, 5);
  EXPECT_EQ(b.labels.cow_stats().chunks_cloned, 0u);
  {
    Labelling copy = b.labels;
    b.labels.Set(0, 0, 6);  // shared now: must detach
    EXPECT_EQ(b.labels.cow_stats().chunks_cloned, 1u);
    EXPECT_EQ(copy.At(0, 0), 5u);
    b.labels.Set(0, 0, 7);  // same page, already detached
    EXPECT_EQ(b.labels.cow_stats().chunks_cloned, 1u);
  }
}

TEST(LabellingTest, ResidentBytesDeduplicatesSharedPages) {
  auto b = BuildAll(testing_util::SmallRoadNetwork(12, 21), 21);
  std::unordered_set<const void*> seen;
  const uint64_t solo = b.labels.AddResidentBytes(&seen);
  EXPECT_GT(solo, b.labels.TotalEntries() * sizeof(Weight));
  Labelling copy = b.labels;
  const uint64_t extra = copy.AddResidentBytes(&seen);
  EXPECT_LT(extra, solo / 4);  // only the per-copy pointer tables
  b.labels.Set(0, 0, 99);      // detach one page
  std::unordered_set<const void*> seen2;
  uint64_t both = b.labels.AddResidentBytes(&seen2);
  both += copy.AddResidentBytes(&seen2);
  EXPECT_GT(both, solo);
  EXPECT_LT(both, 2 * solo);
}

// SIMD vs. scalar equivalence on adversarial labels: lengths crossing
// every vector-width boundary and entries at/near kInfDistance (the
// saturation band of Equation 3's reduction).
TEST(LabellingTest, MinPlusReduceMatchesScalarOnAdversarialInputs) {
  Rng rng(23);
  const Weight interesting[] = {0,
                                1,
                                2,
                                7,
                                kInfDistance - 2,
                                kInfDistance - 1,
                                kInfDistance};
  for (uint32_t k = 0; k <= 70; ++k) {
    for (int variant = 0; variant < 8; ++variant) {
      std::vector<Weight> a(k), b(k);
      for (uint32_t i = 0; i < k; ++i) {
        if (variant < 4) {
          a[i] = interesting[rng.NextBounded(std::size(interesting))];
          b[i] = interesting[rng.NextBounded(std::size(interesting))];
        } else {
          a[i] = static_cast<Weight>(rng.NextBounded(kInfDistance + 1));
          b[i] = static_cast<Weight>(rng.NextBounded(kInfDistance + 1));
        }
      }
      // Plant the unique minimum at a specific position so a dropped
      // lane or bad tail handling cannot go unnoticed.
      if (k > 0 && variant % 2 == 1) {
        uint32_t pos = static_cast<uint32_t>(rng.NextBounded(k));
        a[pos] = 0;
        b[pos] = static_cast<Weight>(rng.NextBounded(5));
      }
      ASSERT_EQ(MinPlusReduce(a.data(), b.data(), k),
                MinPlusReduceScalar(a.data(), b.data(), k))
          << "k=" << k << " variant=" << variant
          << " avx2=" << MinPlusReduceUsesAvx2();
    }
  }
  // k == 0 returns the out-of-band sentinel both ways.
  EXPECT_EQ(MinPlusReduce(nullptr, nullptr, 0),
            kInfDistance + kInfDistance);
}

// Same equivalence for the gathered shape (H2H's position-array scan):
// arbitrary index permutations with repeats, entries in the saturation
// band, lengths crossing every vector-width boundary.
TEST(LabellingTest, MinPlusGatherReduceMatchesScalarOnAdversarialInputs) {
  Rng rng(29);
  const uint32_t pool = 97;  // gather source array length
  std::vector<Weight> a(pool), b(pool);
  for (uint32_t i = 0; i < pool; ++i) {
    a[i] = static_cast<Weight>(rng.NextBounded(kInfDistance + 1));
    b[i] = static_cast<Weight>(rng.NextBounded(kInfDistance + 1));
  }
  a[13] = kInfDistance;
  b[13] = kInfDistance;  // wrap band: sum exceeds kInfDistance
  for (uint32_t k = 0; k <= 70; ++k) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<uint32_t> idx(k);
      for (uint32_t p = 0; p < k; ++p) {
        idx[p] = static_cast<uint32_t>(rng.NextBounded(pool));
      }
      if (k > 0 && variant % 2 == 1) {
        // Plant the unique minimum at one gathered position.
        uint32_t pos = static_cast<uint32_t>(rng.NextBounded(k));
        a[idx[pos]] = 0;
        b[idx[pos]] = static_cast<Weight>(rng.NextBounded(5));
      }
      ASSERT_EQ(MinPlusGatherReduce(a.data(), b.data(), idx.data(), k),
                MinPlusGatherReduceScalar(a.data(), b.data(), idx.data(), k))
          << "k=" << k << " variant=" << variant
          << " avx2=" << MinPlusReduceUsesAvx2();
    }
  }
  EXPECT_EQ(MinPlusGatherReduce(nullptr, nullptr, nullptr, 0),
            kInfDistance + kInfDistance);
}

TEST(LabellingTest, QueryDistanceAgreesWithScalarReduction) {
  // End-to-end: the dispatched reduction inside QueryDistance returns
  // exactly what a scalar recomputation over the same labels gives.
  auto b = BuildAll(testing_util::SmallRoadNetwork(14, 27), 27);
  Rng rng(27);
  for (int i = 0; i < 500; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(b.g.NumVertices()));
    if (s == t) continue;
    const uint32_t k = b.h.CommonAncestorCount(s, t);
    const Weight scalar =
        MinPlusReduceScalar(b.labels.Data(s), b.labels.Data(t), k);
    const Weight want = scalar >= kInfDistance ? kInfDistance : scalar;
    ASSERT_EQ(QueryDistance(b.h, b.labels, s, t), want);
  }
}

// The construction the grouped search replaced, kept as the oracle: one
// Dijkstra per cut vertex r, restricted to G[Desc(r)] by the test
// tau(head) > tau(r), writing column tau(r) of every settled vertex.
Labelling PerColumnReference(const Graph& g, const TreeHierarchy& h) {
  Labelling labels = Labelling::AllocateFor(h);
  std::vector<Weight> dist(g.NumVertices(), kInfDistance);
  std::vector<uint32_t> stamp(g.NumVertices(), 0);
  uint32_t epoch = 0;
  RadixHeap<Vertex> heap;
  for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
    for (Vertex r : h.VerticesOf(nid)) {
      const uint32_t col = h.Tau(r);
      ++epoch;
      heap.clear();
      dist[r] = 0;
      stamp[r] = epoch;
      heap.Push(0, r);
      while (!heap.empty()) {
        auto [d, v] = heap.Pop();
        if (stamp[v] != epoch || d != dist[v]) continue;
        labels.Set(v, col, d);
        for (const Arc& a : g.ArcsOf(v)) {
          if (h.Tau(a.head) <= col) continue;
          const Weight nd = SaturatingAdd(d, a.weight);
          if (stamp[a.head] != epoch || nd < dist[a.head]) {
            dist[a.head] = nd;
            stamp[a.head] = epoch;
            heap.Push(nd, a.head);
          }
        }
      }
    }
  }
  return labels;
}

// A rows x (2 * side_cols + 1) grid whose hierarchy is cut by hand: the
// root holds the middle column (`rows` cut vertices), and each half is
// one leaf of rows * side_cols vertices. Weights 1..3, so ties abound.
struct HandCutGrid {
  Graph g;
  TreeHierarchy h;
};

HandCutGrid MakeHandCutGrid(uint32_t rows, uint32_t side_cols,
                            uint64_t seed) {
  const uint32_t cols = 2 * side_cols + 1;
  Rng rng(seed);
  std::vector<Edge> edges;
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      const Vertex v = r * cols + c;
      if (c + 1 < cols) {
        edges.push_back(
            {v, v + 1, 1 + static_cast<Weight>(rng.NextBounded(3))});
      }
      if (r + 1 < rows) {
        edges.push_back(
            {v, v + cols, 1 + static_cast<Weight>(rng.NextBounded(3))});
      }
    }
  }
  Graph g = testing_util::MakeGraph(rows * cols, std::move(edges));
  PartitionTree tree;
  tree.nodes.resize(3);
  tree.nodes[0].left = 1;
  tree.nodes[0].right = 2;
  tree.nodes[1].parent = 0;
  tree.nodes[2].parent = 0;
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      const uint32_t node = c == side_cols ? 0 : (c < side_cols ? 1 : 2);
      tree.nodes[node].vertices.push_back(r * cols + c);
    }
  }
  TreeHierarchy h = TreeHierarchy::FromPartitionTree(g, tree);
  return HandCutGrid{std::move(g), std::move(h)};
}

// Three components (a road network, a random graph, a path) and two
// isolated vertices: lanes that never leave kInfDistance.
Graph ManyComponents(uint64_t seed) {
  const Graph parts[] = {testing_util::SmallRoadNetwork(6, seed),
                         GenerateRandomConnectedGraph(30, 20, 1, 5, seed),
                         GeneratePath(12, 3)};
  std::vector<Edge> edges;
  uint32_t base = 2;  // vertices 0 and 1 stay isolated
  for (const Graph& part : parts) {
    for (const Edge& e : part.edges()) {
      edges.push_back({base + e.u, base + e.v, e.w});
    }
    base += part.NumVertices();
  }
  return testing_util::MakeGraph(base, std::move(edges));
}

// A road network whose every fifth edge is closed (kMaxEdgeWeight), plus
// a 150-vertex path of closed roads: sums past kInfDistance saturate.
Graph ClosedRoads(uint64_t seed) {
  Graph g = testing_util::SmallRoadNetwork(9, seed);
  for (EdgeId e = 0; e < g.NumEdges(); e += 5) {
    g.SetEdgeWeight(e, kMaxEdgeWeight);
  }
  const uint32_t n = g.NumVertices();
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  const uint32_t path = 150;
  edges.push_back({0, n, kMaxEdgeWeight});
  for (uint32_t i = 0; i + 1 < path; ++i) {
    edges.push_back({n + i, n + i + 1, kMaxEdgeWeight});
  }
  return testing_util::MakeGraph(n + path, std::move(edges));
}

// BuildLabelling against the per-column oracle, byte for byte, for every
// worker count and both relax steps (the AVX2 one where the CPU has it).
// Graph rejects zero weights, so weight-1 edges give the tightest ties;
// the relax-step test below covers w = 0.
TEST(LabellingTest, MatchesPerColumnReference) {
  std::vector<bool> kernels = {false};
  if (CpuHasAvx2()) kernels.push_back(true);
  std::set<uint32_t> node_sizes;
  auto check = [&](const Graph& g, const TreeHierarchy& h,
                   const std::string& what) {
    for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
      node_sizes.insert(h.GetNode(nid).num_vertices);
    }
    const Labelling want = PerColumnReference(g, h);
    for (int threads : {1, 2, 4}) {
      for (bool avx2 : kernels) {
        const Labelling got =
            labelling_internal::BuildLabelling(g, h, threads, avx2);
        ASSERT_TRUE(got == want)
            << what << " threads=" << threads << " avx2=" << avx2
            << " differing entries=" << testing_util::LabelDiffCount(got, want);
      }
    }
  };
  auto check_seeds = [&](const Graph& g, const std::string& what,
                         uint32_t leaf_size) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      HierarchyOptions opt;
      opt.seed = seed;
      opt.leaf_size = leaf_size;
      check(g, TreeHierarchy::Build(g, opt),
            what + " seed=" + std::to_string(seed) +
                " leaf_size=" + std::to_string(leaf_size));
    }
  };
  check_seeds(testing_util::SmallRoadNetwork(12, 31), "road", 2);
  check_seeds(GenerateRandomConnectedGraph(150, 120, 1, 40, 32), "random", 2);
  check_seeds(GenerateRandomConnectedGraph(120, 200, 1, 2, 33), "ties", 2);
  check_seeds(ManyComponents(34), "components", 2);
  check_seeds(ClosedRoads(35), "closed", 2);
  // Leaves of up to 24 vertices: one node, groups of 8, 8, 8 and less.
  check_seeds(testing_util::SmallRoadNetwork(10, 36), "road", 24);
  for (uint32_t rows : {1u, 7u, 8u, 9u, 17u, 20u}) {
    HandCutGrid grid = MakeHandCutGrid(rows, 2, rows);
    check(grid.g, grid.h, "hand cut rows=" + std::to_string(rows));
  }
  // Full, partial and split groups were all exercised.
  for (uint32_t size : {1u, 7u, 8u, 9u}) {
    EXPECT_TRUE(node_sizes.count(size)) << size;
  }
  EXPECT_GT(*node_sizes.rbegin(), 16u);
}

// The AVX2 relax step against the scalar one, and the scalar one against
// its definition, on lanes at and near kInfDistance, weights up to
// kMaxEdgeWeight and beyond (w = 0 included), and every open-lane count.
TEST(LabellingTest, RelaxLanesMatchesScalarOnAdversarialInputs) {
  Rng rng(41);
  const Weight lanes[] = {0,
                          1,
                          2,
                          kMaxEdgeWeight - 1,
                          kMaxEdgeWeight,
                          kInfDistance - kMaxEdgeWeight,
                          kInfDistance - 2,
                          kInfDistance - 1,
                          kInfDistance};
  const Weight weights[] = {0, 1, 2, kMaxEdgeWeight - 1, kMaxEdgeWeight,
                            kInfDistance};
  auto pick = [&](int variant) {
    return variant % 2 == 0
               ? lanes[rng.NextBounded(std::size(lanes))]
               : static_cast<Weight>(rng.NextBounded(kInfDistance + 1));
  };
  constexpr Weight kUntouched = 12345;
  for (int trial = 0; trial < 2000; ++trial) {
    const int variant = trial % 4;
    Weight from[kSearchLanes], to[kSearchLanes];
    for (uint32_t l = 0; l < kSearchLanes; ++l) {
      from[l] = pick(variant);
      to[l] = pick(variant / 2);
    }
    const Weight w = variant == 3
                         ? static_cast<Weight>(rng.NextBounded(kMaxEdgeWeight))
                         : weights[rng.NextBounded(std::size(weights))];
    for (uint32_t open = 0; open <= kSearchLanes; ++open) {
      Weight want[kSearchLanes];
      uint32_t want_bits = 0;
      Weight want_key = kUntouched;
      for (uint32_t l = 0; l < kSearchLanes; ++l) {
        want[l] = to[l];
        const Weight nd = SaturatingAdd(from[l], w);
        if (l < open && nd < to[l]) {
          want[l] = nd;
          want_bits |= 1u << l;
          want_key = want_bits == (1u << l) ? nd : std::min(want_key, nd);
        }
      }
      Weight scalar[kSearchLanes];
      std::copy(to, to + kSearchLanes, scalar);
      Weight scalar_key = kUntouched;
      const uint32_t scalar_bits =
          RelaxLanesScalar(from, w, open, scalar, &scalar_key);
      ASSERT_EQ(scalar_bits, want_bits) << "trial=" << trial;
      ASSERT_EQ(scalar_key, want_key) << "trial=" << trial;
      ASSERT_TRUE(std::equal(want, want + kSearchLanes, scalar));
#ifdef STL_HAVE_AVX2_KERNEL
      if (CpuHasAvx2()) {
        Weight avx2[kSearchLanes];
        std::copy(to, to + kSearchLanes, avx2);
        Weight avx2_key = kUntouched;
        const uint32_t avx2_bits =
            simd_internal::RelaxLanesAvx2(from, w, open, avx2, &avx2_key);
        ASSERT_EQ(avx2_bits, scalar_bits) << "trial=" << trial;
        ASSERT_EQ(avx2_key, scalar_key) << "trial=" << trial;
        ASSERT_TRUE(std::equal(scalar, scalar + kSearchLanes, avx2))
            << "trial=" << trial << " open=" << open;
      }
#endif
    }
  }
}

// A whole labelling through the scalar relax step equals the dispatched
// build, serial and threaded.
TEST(LabellingTest, ScalarRelaxBuildsTheDispatchedLabels) {
  Graph g = testing_util::SmallRoadNetwork(24, 43);
  TreeHierarchy h = TreeHierarchy::Build(g, HierarchyOptions{});
  for (int threads : {1, 4}) {
    EXPECT_TRUE(labelling_internal::BuildLabelling(g, h, threads, false) ==
                BuildLabelling(g, h, threads))
        << threads;
  }
}

TEST(LabellingTest, SaturatingAdd) {
  EXPECT_EQ(SaturatingAdd(1, 2), 3u);
  EXPECT_EQ(SaturatingAdd(kInfDistance, 5), kInfDistance);
  EXPECT_EQ(SaturatingAdd(kInfDistance, kInfDistance), kInfDistance);
  EXPECT_EQ(SaturatingAdd(kInfDistance - 1, 0), kInfDistance - 1);
  EXPECT_EQ(SaturatingAdd(kInfDistance - 1, 1), kInfDistance);
}

}  // namespace
}  // namespace stl
