// Frozen reference for the spath Dijkstra kernels: the allocating
// node/link loops as they stood before spath::dijkstra_node and
// spath::dijkstra_link became wrappers over the workspace row kernels,
// kept verbatim so differential tests and the kernel_throughput bench can
// pin every live kernel (`_into`, row, wrapper) to the original algorithm
// bit for bit. The edits: the functions are inline, and the link loop is
// templated on the heap like the node loop (dijkstra_link_impl), so the
// quad and pairing `_into` link kernels have an oracle too.
// Do not optimize this file; its value is that it does not change.
#pragma once

#include <vector>

#include "graph/link_graph.hpp"
#include "graph/mask.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"
#include "spath/heap.hpp"
#include "spath/pairing_heap.hpp"
#include "util/check.hpp"

namespace tc::spath::reference {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

template <typename Heap>
[[nodiscard]] SptResult dijkstra_node_impl(const graph::NodeGraph& g,
                                           NodeId source,
                                           const graph::NodeMask& mask) {
  const std::size_t n = g.num_nodes();
  TC_CHECK_MSG(source < n, "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");

  SptResult r;
  r.source = source;
  r.dist.assign(n, kInfCost);
  r.parent.assign(n, kInvalidNode);

  Heap heap(n);
  std::vector<bool> settled(n, false);
  r.dist[source] = 0.0;
  heap.push_or_decrease(source, 0.0);

  while (!heap.empty()) {
    const auto [du, u] = heap.pop_min();
    if (settled[u]) continue;
    settled[u] = true;
    // Expanding u makes u interior on any extension, so its own cost is
    // charged now — except for the source, whose cost is excluded by the
    // path-cost convention.
    const Cost through = du + (u == source ? 0.0 : g.node_cost(u));
    for (NodeId v : g.neighbors(u)) {
      if (settled[v] || !mask.allowed(v)) continue;
      if (through < r.dist[v]) {
        r.dist[v] = through;
        r.parent[v] = u;
        heap.push_or_decrease(v, through);
      }
    }
  }
  return r;
}

[[nodiscard]] inline SptResult dijkstra_node(const graph::NodeGraph& g,
                                             NodeId source,
                                             const graph::NodeMask& mask = {}) {
  return dijkstra_node_impl<BinaryHeap>(g, source, mask);
}

[[nodiscard]] inline SptResult dijkstra_node_quad(
    const graph::NodeGraph& g, NodeId source,
    const graph::NodeMask& mask = {}) {
  return dijkstra_node_impl<QuadHeap>(g, source, mask);
}

[[nodiscard]] inline SptResult dijkstra_node_pairing(
    const graph::NodeGraph& g, NodeId source,
    const graph::NodeMask& mask = {}) {
  return dijkstra_node_impl<PairingHeap>(g, source, mask);
}

template <typename Heap>
[[nodiscard]] SptResult dijkstra_link_impl(const graph::LinkGraph& g,
                                           NodeId source,
                                           const graph::NodeMask& mask) {
  const std::size_t n = g.num_nodes();
  TC_CHECK_MSG(source < n, "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");

  SptResult r;
  r.source = source;
  r.dist.assign(n, kInfCost);
  r.parent.assign(n, kInvalidNode);

  Heap heap(n);
  std::vector<bool> settled(n, false);
  r.dist[source] = 0.0;
  heap.push_or_decrease(source, 0.0);

  while (!heap.empty()) {
    const auto [du, u] = heap.pop_min();
    if (settled[u]) continue;
    settled[u] = true;
    for (const graph::Arc& a : g.out_arcs(u)) {
      if (settled[a.to] || !mask.allowed(a.to)) continue;
      if (!graph::finite_cost(a.cost)) continue;
      const Cost cand = du + a.cost;
      if (cand < r.dist[a.to]) {
        r.dist[a.to] = cand;
        r.parent[a.to] = u;
        heap.push_or_decrease(a.to, cand);
      }
    }
  }
  return r;
}

[[nodiscard]] inline SptResult dijkstra_link(const graph::LinkGraph& g,
                                             NodeId source,
                                             const graph::NodeMask& mask = {}) {
  return dijkstra_link_impl<BinaryHeap>(g, source, mask);
}

/// Explicit arc-reversed copy of `g` (what LinkGraph::reverse() memoizes).
[[nodiscard]] inline graph::LinkGraph reverse_graph(const graph::LinkGraph& g) {
  graph::LinkGraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Arc& a : g.out_arcs(u)) {
      b.add_arc(a.to, u, a.cost);
    }
  }
  return b.build();
}

[[nodiscard]] inline SptResult dijkstra_link_to_target(
    const graph::LinkGraph& g, NodeId target,
    const graph::NodeMask& mask = {}) {
  return dijkstra_link(g.reverse(), target, mask);
}

}  // namespace tc::spath::reference
