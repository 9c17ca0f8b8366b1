// Dijkstra shortest paths for both network models.
//
// Node-weighted convention (paper Section II.C): the cost of a path
// excludes the source and target nodes' own costs; only interior (relay)
// node costs count. Hence dist[v] below is "total relay cost of the best
// s->v path", dist[neighbor of s] = 0, and relaxing u->v adds c_u (u
// becomes interior) except when u is the source.
//
// Link-weighted convention (Section III.F): the cost of a directed path is
// the sum of its arc costs.
#pragma once

#include <vector>

#include "graph/link_graph.hpp"
#include "graph/mask.hpp"
#include "graph/node_graph.hpp"
#include "util/check.hpp"

namespace tc::spath {

/// Shortest-path tree from a single source.
struct SptResult {
  graph::NodeId source = graph::kInvalidNode;
  /// dist[v]: interior/arc cost of the best source->v path (model-specific
  /// convention above); kInfCost if unreachable.
  std::vector<graph::Cost> dist;
  /// parent[v]: predecessor of v on its best path; kInvalidNode for the
  /// source and unreachable nodes.
  std::vector<graph::NodeId> parent;

  [[nodiscard]] bool reached(graph::NodeId v) const {
    TC_DCHECK(v < dist.size());
    return graph::finite_cost(dist[v]);
  }

  /// Node sequence source..t inclusive; empty when t is unreachable.
  [[nodiscard]] std::vector<graph::NodeId> path_to(graph::NodeId t) const;

  /// As path_to, but reuses the caller's vector (cleared first) — for
  /// loops harvesting many paths from one tree without reallocating.
  void path_to_into(graph::NodeId t, std::vector<graph::NodeId>& out) const;
};

/// Node-weighted Dijkstra from `source`, skipping masked nodes entirely
/// (a masked node neither relays nor terminates a path). The source must
/// be allowed by the mask. A wrapper that sizes the result and runs
/// dijkstra_node_row_into (workspace.hpp) on a private per-thread
/// workspace, so readings a caller holds from thread_local_workspace()
/// survive the call.
[[nodiscard]] SptResult dijkstra_node(const graph::NodeGraph& g,
                                      graph::NodeId source,
                                      const graph::NodeMask& mask = {});

/// Link-weighted Dijkstra over out-arcs from `source`. Masked nodes are
/// skipped (cannot be traversed or reached). Wraps dijkstra_link_row_into
/// the same way.
[[nodiscard]] SptResult dijkstra_link(const graph::LinkGraph& g,
                                      graph::NodeId source,
                                      const graph::NodeMask& mask = {});

/// Link-weighted Dijkstra on the *reverse* graph: dist[v] = cost of the
/// best directed path v -> target in `g`. parent[v] is v's successor
/// toward the target. Uses the memoized g.reverse() CSR, so repeated
/// calls on an unmutated graph share one reversal.
[[nodiscard]] SptResult dijkstra_link_to_target(
    const graph::LinkGraph& g, graph::NodeId target,
    const graph::NodeMask& mask = {});

/// Total interior (relay) cost of a node path under graph costs; the path
/// must be a valid node sequence (adjacency is checked in debug builds).
[[nodiscard]] graph::Cost path_interior_cost(
    const graph::NodeGraph& g, const std::vector<graph::NodeId>& path);

/// Total arc cost of a directed path in `g`; kInfCost if an arc is absent.
[[nodiscard]] graph::Cost path_arc_cost(const graph::LinkGraph& g,
                                        const std::vector<graph::NodeId>& path);

}  // namespace tc::spath
