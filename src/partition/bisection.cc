#include "partition/bisection.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "partition/separator.h"
#include "util/logging.h"
#include "util/rng.h"

namespace stl {

namespace {

/// Regions at least this large are handed to the work queue; smaller ones
/// are recursed on by the worker that cut them. A build runs at most
/// n / kMinTaskVertices workers.
constexpr size_t kMinTaskVertices = 256;

/// Streams forked from a region's stream: its children's, and its own
/// separator draws. A region's stream is thus a function of the seed and
/// its root-path bits alone, whichever worker cuts it.
constexpr uint64_t kLeftStream = 0;
constexpr uint64_t kRightStream = 1;
constexpr uint64_t kDrawStream = 2;

/// Marks a child id that indexes Fragment::spawned instead of nodes.
constexpr uint32_t kSpawned = 1u << 31;

/// A subtree cut by one worker: nodes in preorder with fragment-local ids
/// (root 0, its parent unset). A child id with kSpawned set names a
/// region that went to the work queue; its fragment is filled by
/// whichever worker takes it.
struct Fragment {
  std::vector<PartitionTree::Node> nodes;
  std::vector<std::unique_ptr<Fragment>> spawned;
};

struct Task {
  std::vector<Vertex> region;
  Rng rng;
  Fragment* out;
};

/// The regions waiting for a worker, in a max-heap by size: the biggest
/// region not yet started bounds how soon the build can finish.
class WorkQueue {
 public:
  explicit WorkQueue(Task root) { tasks_.push_back(std::move(root)); }

  void Push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      std::push_heap(tasks_.begin(), tasks_.end(), Smaller);
      ++unfinished_;
    }
    cv_.notify_one();
  }

  /// Blocks until a task is available (true) or every task has finished
  /// (false).
  bool Pop(Task* task) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !tasks_.empty() || unfinished_ == 0; });
    if (tasks_.empty()) return false;
    std::pop_heap(tasks_.begin(), tasks_.end(), Smaller);
    *task = std::move(tasks_.back());
    tasks_.pop_back();
    return true;
  }

  /// Marks a popped task finished, after it pushed all its children.
  void Finish() {
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      all_done = --unfinished_ == 0;
    }
    if (all_done) cv_.notify_all();
  }

 private:
  static bool Smaller(const Task& a, const Task& b) {
    return a.region.size() < b.region.size();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> tasks_;
  size_t unfinished_ = 1;  // pushed and not yet finished, root included
};

/// One worker's recursion. Regions move down the recursion, so a worker
/// holds one root-to-leaf path of regions (a geometric series, ~5n
/// vertices at beta = 0.2, for a path from the root); the regions waiting
/// in the queue are disjoint.
class Bisector {
 public:
  Bisector(const Graph& g, const HierarchyOptions& options, WorkQueue* queue)
      : options_(options), finder_(g), queue_(queue) {}

  // A worker thread holds its bisector's address.
  Bisector(const Bisector&) = delete;
  Bisector& operator=(const Bisector&) = delete;

  void Run(Task task) {
    Recurse(task.out, std::move(task.region), task.rng,
            PartitionTree::kNoChild);
  }

 private:
  static uint32_t NewNode(Fragment* frag, uint32_t parent,
                          std::vector<Vertex> vertices) {
    std::sort(vertices.begin(), vertices.end());
    uint32_t id = static_cast<uint32_t>(frag->nodes.size());
    frag->nodes.emplace_back();
    frag->nodes.back().parent = parent;
    frag->nodes.back().vertices = std::move(vertices);
    return id;
  }

  /// A child region: spawned if large enough, else recursed on here.
  uint32_t Child(Fragment* frag, std::vector<Vertex> region, Rng rng,
                 uint32_t parent) {
    if (region.size() < kMinTaskVertices) {
      return Recurse(frag, std::move(region), rng, parent);
    }
    frag->spawned.push_back(std::make_unique<Fragment>());
    const uint32_t slot = static_cast<uint32_t>(frag->spawned.size() - 1);
    queue_->Push(Task{std::move(region), rng, frag->spawned.back().get()});
    return kSpawned | slot;
  }

  uint32_t Recurse(Fragment* frag, std::vector<Vertex> region, Rng rng,
                   uint32_t parent) {
    if (region.size() <= options_.leaf_size) {
      return NewNode(frag, parent, std::move(region));
    }

    Rng draws = rng.Fork(kDrawStream);
    std::vector<Vertex> separator, left, right;
    auto comps = finder_.RegionComponents(region);
    if (comps.size() == 1) {
      SeparatorResult res = finder_.Find(region, options_.num_starts, &draws);
      separator = std::move(res.separator);
      left = std::move(res.left);
      right = std::move(res.right);
    } else {
      // Disconnected region. If one component dominates, split it with a
      // separator and pack the remaining components onto the smaller side;
      // otherwise pack components into two halves and promote one vertex
      // to keep the ell mapping surjective (the node must be non-empty).
      std::sort(comps.begin(), comps.end(),
                [](const auto& a, const auto& b) {
                  if (a.size() != b.size()) return a.size() > b.size();
                  return a.front() < b.front();
                });
      double limit = (1.0 - options_.beta) * static_cast<double>(region.size());
      if (static_cast<double>(comps[0].size()) > limit &&
          comps[0].size() > options_.leaf_size) {
        SeparatorResult res =
            finder_.Find(comps[0], options_.num_starts, &draws);
        separator = std::move(res.separator);
        left = std::move(res.left);
        right = std::move(res.right);
        for (size_t i = 1; i < comps.size(); ++i) {
          auto& side = left.size() <= right.size() ? left : right;
          side.insert(side.end(), comps[i].begin(), comps[i].end());
        }
      } else {
        for (auto& comp : comps) {
          auto& side = left.size() <= right.size() ? left : right;
          side.insert(side.end(), comp.begin(), comp.end());
        }
        auto& bigger = left.size() >= right.size() ? left : right;
        separator.push_back(bigger.back());
        bigger.pop_back();
      }
    }

    if (separator.empty() || (left.empty() && right.empty())) {
      // Degenerate split; close off as a leaf.
      return NewNode(frag, parent, std::move(region));
    }
    region.clear();
    region.shrink_to_fit();

    uint32_t id = NewNode(frag, parent, std::move(separator));
    if (!left.empty()) {
      uint32_t child = Child(frag, std::move(left), rng.Fork(kLeftStream), id);
      frag->nodes[id].left = child;
    }
    if (!right.empty()) {
      uint32_t child =
          Child(frag, std::move(right), rng.Fork(kRightStream), id);
      frag->nodes[id].right = child;
    }
    return id;
  }

  const HierarchyOptions& options_;
  SeparatorFinder finder_;
  WorkQueue* queue_;
};

/// Appends fragment node `local` and its subtree to `tree` in preorder,
/// following spawned children into their fragments. Returns its id.
uint32_t Splice(Fragment* frag, uint32_t local, uint32_t parent,
                PartitionTree* tree) {
  PartitionTree::Node& src = frag->nodes[local];
  const uint32_t id = static_cast<uint32_t>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes.back().parent = parent;
  tree->nodes.back().vertices = std::move(src.vertices);
  auto splice_child = [&](uint32_t child) {
    if (child == PartitionTree::kNoChild) return child;
    if (child & kSpawned) {
      return Splice(frag->spawned[child & ~kSpawned].get(), 0, id, tree);
    }
    return Splice(frag, child, id, tree);
  };
  const uint32_t left = splice_child(src.left);
  tree->nodes[id].left = left;
  const uint32_t right = splice_child(src.right);
  tree->nodes[id].right = right;
  return id;
}

}  // namespace

PartitionTree BuildPartitionTree(const Graph& g,
                                 const HierarchyOptions& options) {
  STL_CHECK(options.beta > 0.0 && options.beta <= 0.5);
  STL_CHECK_GE(options.leaf_size, 1u);
  STL_CHECK_GE(options.num_threads, 1);
  STL_CHECK_LT(g.NumVertices(), kSpawned);
  PartitionTree tree;
  if (g.NumVertices() == 0) return tree;
  std::vector<Vertex> all(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) all[v] = v;

  Fragment root;
  WorkQueue queue(Task{std::move(all), Rng(options.seed), &root});
  const size_t workers = std::clamp<size_t>(
      g.NumVertices() / kMinTaskVertices, 1,
      static_cast<size_t>(options.num_threads));
  // Every worker's finder (its O(n) scratch) is allocated here, before
  // any worker starts.
  std::vector<std::unique_ptr<Bisector>> bisectors;
  for (size_t t = 0; t < workers; ++t) {
    bisectors.push_back(std::make_unique<Bisector>(g, options, &queue));
  }
  auto work = [&queue](Bisector* bisector) {
    Task task{{}, Rng(0), nullptr};
    while (queue.Pop(&task)) {
      bisector->Run(std::move(task));
      queue.Finish();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t t = 1; t < workers; ++t) {
    threads.emplace_back(work, bisectors[t].get());
  }
  work(bisectors[0].get());
  for (auto& t : threads) t.join();
  tree.root = Splice(&root, 0, PartitionTree::kNoChild, &tree);

  // Invariant: the ell mapping is total — every vertex in exactly one node.
  size_t total = 0;
  for (const auto& node : tree.nodes) total += node.vertices.size();
  STL_CHECK_EQ(total, g.NumVertices());
  return tree;
}

}  // namespace stl
