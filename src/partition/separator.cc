#include "partition/separator.h"

#include <algorithm>
#include <unordered_map>

namespace stl {

std::vector<Vertex> GreedyCutCover(
    const std::vector<std::pair<Vertex, Vertex>>& cut) {
  std::unordered_map<Vertex, uint32_t> deg;
  for (const auto& [a, b] : cut) {
    ++deg[a];
    ++deg[b];
  }
  std::vector<uint8_t> covered(cut.size(), 0);
  std::vector<Vertex> cover;
  size_t remaining = cut.size();
  while (remaining > 0) {
    Vertex best = UINT32_MAX;
    uint32_t best_deg = 0;
    for (const auto& [v, d] : deg) {
      if (d > best_deg || (d == best_deg && v < best)) {
        best = v;
        best_deg = d;
      }
    }
    STL_CHECK(best != UINT32_MAX && best_deg > 0);
    cover.push_back(best);
    for (size_t i = 0; i < cut.size(); ++i) {
      if (covered[i]) continue;
      if (cut[i].first == best || cut[i].second == best) {
        covered[i] = 1;
        --remaining;
        --deg[cut[i].first];
        --deg[cut[i].second];
      }
    }
    deg.erase(best);
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

SeparatorFinder::SeparatorFinder(const Graph& g)
    : g_(g),
      region_stamp_(g.NumVertices(), 0),
      side_stamp_(g.NumVertices(), 0),
      side_(g.NumVertices(), 0),
      visit_stamp_(g.NumVertices(), 0) {}

void SeparatorFinder::MarkRegion(const std::vector<Vertex>& region) {
  ++epoch_;
  for (Vertex v : region) region_stamp_[v] = epoch_;
}

void SeparatorFinder::BfsOrder(Vertex start,
                               const std::vector<Vertex>& region,
                               std::vector<Vertex>* order) {
  ++visit_epoch_;
  order->clear();
  order->reserve(region.size());
  queue_.clear();
  queue_.push_back(start);
  visit_stamp_[start] = visit_epoch_;
  size_t head = 0;
  while (head < queue_.size()) {
    Vertex v = queue_[head++];
    order->push_back(v);
    for (const Arc& a : g_.ArcsOf(v)) {
      if (InRegion(a.head) && visit_stamp_[a.head] != visit_epoch_) {
        visit_stamp_[a.head] = visit_epoch_;
        queue_.push_back(a.head);
      }
    }
  }
}

uint32_t SeparatorFinder::TrySplit(Vertex start,
                                   const std::vector<Vertex>& region,
                                   SeparatorResult* out) {
  std::vector<Vertex> order;
  BfsOrder(start, region, &order);
  if (order.size() != region.size()) return UINT32_MAX;  // not connected

  const size_t half = (region.size() + 1) / 2;
  ++side_epoch_;
  for (size_t i = 0; i < order.size(); ++i) {
    side_stamp_[order[i]] = side_epoch_;
    side_[order[i]] = i < half ? 0 : 1;
  }
  // Collect A-B cut edges.
  std::vector<std::pair<Vertex, Vertex>> cut;  // (a-side, b-side)
  for (size_t i = 0; i < half; ++i) {
    Vertex v = order[i];
    for (const Arc& a : g_.ArcsOf(v)) {
      if (InRegion(a.head) && side_[a.head] == 1) {
        cut.emplace_back(v, a.head);
      }
    }
  }
  if (cut.empty()) return UINT32_MAX;  // should not happen when connected

  // Build the sides minus the (sorted) separator.
  out->separator = GreedyCutCover(cut);
  const std::vector<Vertex>& separator = out->separator;
  auto in_sep = [&separator](Vertex v) {
    return std::binary_search(separator.begin(), separator.end(), v);
  };
  out->left.clear();
  out->right.clear();
  for (size_t i = 0; i < order.size(); ++i) {
    Vertex v = order[i];
    if (in_sep(v)) continue;
    (i < half ? out->left : out->right).push_back(v);
  }
  return static_cast<uint32_t>(separator.size());
}

SeparatorResult SeparatorFinder::Find(const std::vector<Vertex>& region,
                                      int num_starts, Rng* rng) {
  STL_CHECK_GE(region.size(), 2u);
  MarkRegion(region);

  // Candidate starts: two peripheral vertices (double BFS) plus randoms.
  std::vector<Vertex> starts;
  {
    std::vector<Vertex> order;
    BfsOrder(region[0], region, &order);
    STL_CHECK_EQ(order.size(), region.size()) << "region must be connected";
    Vertex p1 = order.back();
    BfsOrder(p1, region, &order);
    Vertex p2 = order.back();
    starts.push_back(p1);
    if (p2 != p1) starts.push_back(p2);
  }
  while (static_cast<int>(starts.size()) < num_starts) {
    Vertex r = region[rng->NextBounded(region.size())];
    if (std::find(starts.begin(), starts.end(), r) == starts.end()) {
      starts.push_back(r);
    } else if (region.size() <= starts.size()) {
      break;
    }
  }

  SeparatorResult best;
  uint32_t best_size = UINT32_MAX;
  SeparatorResult attempt;
  for (Vertex s : starts) {
    uint32_t size = TrySplit(s, region, &attempt);
    if (size < best_size) {
      best_size = size;
      best = std::move(attempt);
      attempt = SeparatorResult();
    }
  }
  STL_CHECK(best_size != UINT32_MAX)
      << "no separator found on region of size " << region.size();
  return best;
}

std::vector<std::vector<Vertex>> SeparatorFinder::RegionComponents(
    const std::vector<Vertex>& region) {
  MarkRegion(region);
  std::vector<std::vector<Vertex>> comps;
  ++visit_epoch_;
  for (Vertex s : region) {
    if (visit_stamp_[s] == visit_epoch_) continue;
    comps.emplace_back();
    auto& comp = comps.back();
    queue_.clear();
    queue_.push_back(s);
    visit_stamp_[s] = visit_epoch_;
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex v = queue_[head++];
      comp.push_back(v);
      for (const Arc& a : g_.ArcsOf(v)) {
        if (InRegion(a.head) && visit_stamp_[a.head] != visit_epoch_) {
          visit_stamp_[a.head] = visit_epoch_;
          queue_.push_back(a.head);
        }
      }
    }
  }
  return comps;
}

}  // namespace stl
