#include "spath/dijkstra.hpp"

#include <algorithm>

#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::spath {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

std::vector<NodeId> SptResult::path_to(NodeId t) const {
  std::vector<NodeId> path;
  path_to_into(t, path);
  return path;
}

void SptResult::path_to_into(NodeId t, std::vector<NodeId>& out) const {
  out.clear();
  if (!reached(t)) return;
  for (NodeId v = t; v != kInvalidNode; v = parent[v]) out.push_back(v);
  std::reverse(out.begin(), out.end());
  TC_DCHECK(out.front() == source);
}

namespace {

// The allocating API's own workspace: never thread_local_workspace(),
// whose readings the caller may be holding across this call.
DijkstraWorkspace& wrapper_workspace() {
  thread_local DijkstraWorkspace ws;
  return ws;
}

}  // namespace

SptResult dijkstra_node(const graph::NodeGraph& g, NodeId source,
                        const graph::NodeMask& mask) {
  SptResult r;
  r.source = source;
  r.dist.resize(g.num_nodes());
  r.parent.resize(g.num_nodes());
  dijkstra_node_row_into(wrapper_workspace(), g, source, r.dist, r.parent,
                         mask);
  return r;
}

SptResult dijkstra_link(const graph::LinkGraph& g, NodeId source,
                        const graph::NodeMask& mask) {
  SptResult r;
  r.source = source;
  r.dist.resize(g.num_nodes());
  r.parent.resize(g.num_nodes());
  dijkstra_link_row_into(wrapper_workspace(), g, source, r.dist, r.parent,
                         mask);
  return r;
}

SptResult dijkstra_link_to_target(const graph::LinkGraph& g, NodeId target,
                                  const graph::NodeMask& mask) {
  return dijkstra_link(g.reverse(), target, mask);
}

Cost path_interior_cost(const graph::NodeGraph& g,
                        const std::vector<NodeId>& path) {
  if (path.size() < 2) return 0.0;
  Cost total = 0.0;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    TC_DCHECK(g.has_edge(path[i - 1], path[i]));
    total += g.node_cost(path[i]);
  }
  TC_DCHECK(g.has_edge(path[path.size() - 2], path.back()));
  return total;
}

Cost path_arc_cost(const graph::LinkGraph& g,
                   const std::vector<NodeId>& path) {
  Cost total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Cost c = g.arc_cost(path[i], path[i + 1]);
    if (!graph::finite_cost(c)) return kInfCost;
    total += c;
  }
  return total;
}

}  // namespace tc::spath
