#include "broadcast/cds.hpp"

#include <algorithm>

namespace mstc::broadcast {

namespace {

using graph::NodeId;

/// Sorted neighbor id list (closed when include_self).
std::vector<NodeId> neighbor_ids(const graph::Graph& g, NodeId u,
                                 bool include_self) {
  std::vector<NodeId> ids;
  ids.reserve(g.degree(u) + 1);
  for (const auto& e : g.neighbors(u)) ids.push_back(e.to);
  if (include_self) ids.push_back(u);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool subset(const std::vector<NodeId>& inner,
            const std::vector<NodeId>& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(),
                       inner.end());
}

std::vector<NodeId> set_union(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> result;
  result.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(result));
  return result;
}

}  // namespace

std::vector<bool> wu_li_marking(const graph::Graph& g,
                                const obs::Probe* probe) {
  const std::size_t n = g.node_count();
  std::vector<bool> marked(n, false);
  for (NodeId u = 0; u < n; ++u) {
    const auto neighbors = g.neighbors(u);
    for (std::size_t i = 0; i < neighbors.size() && !marked[u]; ++i) {
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        if (!g.has_edge(neighbors[i].to, neighbors[j].to)) {
          marked[u] = true;
          break;
        }
      }
    }
    if (marked[u] && probe != nullptr) {
      probe->count(obs::Counter::kCdsMarked);
    }
  }
  return marked;
}

std::vector<bool> prune(const graph::Graph& g, std::vector<bool> marked,
                        const obs::Probe* probe) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<NodeId>> open(n), closed(n);
  for (NodeId u = 0; u < n; ++u) {
    open[u] = neighbor_ids(g, u, /*include_self=*/false);
    closed[u] = neighbor_ids(g, u, /*include_self=*/true);
  }
  // Rule 1: coverage by a single higher-id marked neighbor.
  for (NodeId u = 0; u < n; ++u) {
    if (!marked[u]) continue;
    for (const auto& e : g.neighbors(u)) {
      const NodeId v = e.to;
      if (marked[v] && v > u && subset(closed[u], closed[v])) {
        marked[u] = false;
        if (probe != nullptr) probe->count(obs::Counter::kCdsPruned);
        break;
      }
    }
  }
  // Rule 2: joint coverage by two adjacent higher-id marked neighbors.
  for (NodeId u = 0; u < n; ++u) {
    if (!marked[u]) continue;
    const auto& candidates = g.neighbors(u);
    bool pruned = false;
    for (std::size_t i = 0; i < candidates.size() && !pruned; ++i) {
      const NodeId v = candidates[i].to;
      if (!marked[v] || v <= u) continue;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        const NodeId w = candidates[j].to;
        if (w == v || !marked[w] || w <= u || !g.has_edge(v, w)) continue;
        if (subset(open[u], set_union(closed[v], closed[w]))) {
          marked[u] = false;
          if (probe != nullptr) probe->count(obs::Counter::kCdsPruned);
          pruned = true;
          break;
        }
      }
    }
  }
  return marked;
}

std::vector<bool> connected_dominating_set(const graph::Graph& g,
                                           const obs::Probe* probe) {
  return prune(g, wu_li_marking(g, probe), probe);
}

bool is_connected_dominating_set(const graph::Graph& g,
                                 const std::vector<bool>& in_set) {
  const std::size_t n = g.node_count();
  // Domination.
  for (NodeId u = 0; u < n; ++u) {
    if (in_set[u]) continue;
    bool dominated = false;
    for (const auto& e : g.neighbors(u)) {
      if (in_set[e.to]) {
        dominated = true;
        break;
      }
    }
    if (!dominated && g.degree(u) > 0) return false;
  }
  // Connectivity of the induced subgraph.
  NodeId start = n;
  std::size_t members = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (in_set[u]) {
      ++members;
      if (start == n) start = u;
    }
  }
  if (members <= 1) return true;
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack{start};
  seen[start] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const auto& e : g.neighbors(u)) {
      if (in_set[e.to] && !seen[e.to]) {
        seen[e.to] = true;
        ++visited;
        stack.push_back(e.to);
      }
    }
  }
  return visited == members;
}

namespace {

/// BFS where only the source and set members forward; returns (receivers
/// including source, transmissions).
std::pair<std::size_t, std::size_t> simulate_broadcast(
    const graph::Graph& g, const std::vector<bool>& in_set, NodeId source) {
  const std::size_t n = g.node_count();
  if (source >= n) return {0, 0};
  std::vector<bool> received(n, false);
  std::vector<NodeId> frontier{source};
  received[source] = true;
  std::size_t receivers = 1;
  std::size_t transmissions = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    if (u != source && !in_set[u]) continue;  // non-members do not forward
    ++transmissions;
    for (const auto& e : g.neighbors(u)) {
      if (!received[e.to]) {
        received[e.to] = true;
        ++receivers;
        frontier.push_back(e.to);
      }
    }
  }
  return {receivers, transmissions};
}

}  // namespace

std::size_t forward_count(const graph::Graph& g,
                          const std::vector<bool>& in_set, NodeId source,
                          const obs::Probe* probe) {
  const std::size_t transmissions =
      simulate_broadcast(g, in_set, source).second;
  if (probe != nullptr) {
    probe->count(obs::Counter::kBroadcastForwards, transmissions);
  }
  return transmissions;
}

double broadcast_coverage(const graph::Graph& g,
                          const std::vector<bool>& in_set, NodeId source) {
  if (g.node_count() == 0) return 0.0;
  const auto [receivers, transmissions] =
      simulate_broadcast(g, in_set, source);
  (void)transmissions;
  return static_cast<double>(receivers) /
         static_cast<double>(g.node_count());
}

}  // namespace mstc::broadcast
