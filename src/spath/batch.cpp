#include "spath/batch.hpp"

#include "util/check.hpp"

namespace tc::spath {

using graph::Cost;
using graph::NodeId;

SptResult SptMatrix::to_result(std::size_t i) const {
  TC_DCHECK(i < num_roots());
  SptResult r;
  r.source = sources_[i];
  const auto d = dist(i);
  const auto p = parent(i);
  r.dist.assign(d.begin(), d.end());
  r.parent.assign(p.begin(), p.end());
  return r;
}

void SptMatrix::reset(std::span<const NodeId> sources, std::size_t num_nodes) {
  num_nodes_ = num_nodes;
  sources_.assign(sources.begin(), sources.end());
  const std::size_t cells = sources.size() * num_nodes;
  if (dist_.size() < cells) {
    dist_.resize(cells);
    parent_.resize(cells);
  }
}

void spt_multi_into(DijkstraWorkspace& ws, SptMatrix& m,
                    const graph::NodeGraph& g,
                    std::span<const NodeId> sources,
                    const graph::NodeMask& mask, HeapKind heap) {
  m.reset(sources, g.num_nodes());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    dijkstra_node_row_into(ws, g, sources[i], m.mutable_dist(i),
                           m.mutable_parent(i), mask, heap);
  }
}

void spt_multi_into(DijkstraWorkspace& ws, SptMatrix& m,
                    const graph::LinkGraph& g,
                    std::span<const NodeId> sources,
                    const graph::NodeMask& mask, HeapKind heap) {
  m.reset(sources, g.num_nodes());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    dijkstra_link_row_into(ws, g, sources[i], m.mutable_dist(i),
                           m.mutable_parent(i), mask, heap);
  }
}

std::vector<Cost> avoiding_paths_batch(const graph::NodeGraph& g, NodeId s,
                                       NodeId t,
                                       std::span<const NodeId> avoid_list) {
  DijkstraWorkspace& ws = thread_local_workspace();
  dijkstra_node_into(ws, g, s);
  const SptResult base = ws.to_result();
  return avoiding_paths_batch(g, base, t, avoid_list);
}

std::vector<Cost> avoiding_paths_batch(const graph::NodeGraph& g,
                                       const SptResult& base, NodeId t,
                                       std::span<const NodeId> avoid_list) {
  SptChildren children;
  children.build(base);
  DijkstraWorkspace& ws = thread_local_workspace();
  MaskedSptDelta delta(g, base, children, ws);
  std::vector<Cost> out;
  out.reserve(avoid_list.size());
  for (NodeId k : avoid_list) {
    TC_CHECK_MSG(k != base.source && k != t,
                 "cannot avoid an endpoint of the path");
    delta.eval_one(k);
    out.push_back(delta.dist(t));
  }
  return out;
}

}  // namespace tc::spath
