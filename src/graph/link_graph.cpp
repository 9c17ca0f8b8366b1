#include "graph/link_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace tc::graph {

Cost LinkGraph::arc_cost(NodeId u, NodeId v) const {
  for (const Arc& a : out_arcs(u)) {
    if (a.to == v) return a.cost;
  }
  return kInfCost;
}

void LinkGraph::set_arc_cost(NodeId u, NodeId v, Cost c) {
  for (std::size_t i = offsets_.at(u); i < offsets_.at(u + 1); ++i) {
    if (arcs_[i].to == v) {
      arcs_[i].cost = c;
      invalidate_reverse();
      return;
    }
  }
  throw std::invalid_argument("set_arc_cost: arc does not exist");
}

void LinkGraph::set_all_out_costs(NodeId u, Cost c) {
  for (std::size_t i = offsets_.at(u); i < offsets_.at(u + 1); ++i) {
    arcs_[i].cost = c;
  }
  invalidate_reverse();
}

std::vector<Cost> LinkGraph::arc_costs() const {
  std::vector<Cost> out;
  out.reserve(arcs_.size());
  for (const Arc& a : arcs_) out.push_back(a.cost);
  return out;
}

void LinkGraph::restore_arc_costs(const std::vector<Cost>& costs) {
  TC_CHECK_MSG(costs.size() == arcs_.size(), "arc cost snapshot size mismatch");
  for (std::size_t i = 0; i < arcs_.size(); ++i) arcs_[i].cost = costs[i];
  invalidate_reverse();
}

LinkGraph LinkGraph::build_reverse() const {
  // Counting sort over CSR: row v of the reverse receives its in-sources
  // u in ascending order, which is exactly the (from, to)-sorted order
  // the builder would produce — so Dijkstra relaxation order (and hence
  // parent tie-breaks) matches a builder-made reverse bit for bit.
  const std::size_t n = num_nodes();
  LinkGraph rev;
  rev.positions_ = positions_;
  rev.offsets_.assign(n + 1, 0);
  for (const Arc& a : arcs_) ++rev.offsets_[a.to + 1];
  for (std::size_t i = 1; i <= n; ++i) rev.offsets_[i] += rev.offsets_[i - 1];
  rev.arcs_.resize(arcs_.size());
  std::vector<std::size_t> cursor(rev.offsets_.begin(),
                                  rev.offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : out_arcs(u)) {
      rev.arcs_[cursor[a.to]++] = Arc{u, a.cost};
    }
  }
  return rev;
}

const LinkGraph& LinkGraph::reverse() const {
  std::shared_ptr<const LinkGraph> cached =
      reverse_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    std::shared_ptr<const LinkGraph> built =
        std::make_shared<LinkGraph>(build_reverse());
    if (reverse_.compare_exchange_strong(cached, built,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      cached = std::move(built);
    }
    // On CAS failure `cached` now holds the concurrent winner.
  }
  return *cached;
}

LinkGraphBuilder& LinkGraphBuilder::add_arc(NodeId from, NodeId to,
                                            Cost cost) {
  if (from == to) throw std::invalid_argument("self-loops are not allowed");
  if (from >= num_nodes_ || to >= num_nodes_)
    throw std::invalid_argument("arc endpoint out of range");
  if (cost < 0.0) throw std::invalid_argument("arc cost must be non-negative");
  raw_.push_back({from, to, cost});
  return *this;
}

LinkGraphBuilder& LinkGraphBuilder::add_link(NodeId u, NodeId v, Cost cost_uv,
                                             Cost cost_vu) {
  add_arc(u, v, cost_uv);
  add_arc(v, u, cost_vu);
  return *this;
}

LinkGraphBuilder& LinkGraphBuilder::set_positions(
    std::vector<geom::Point> positions) {
  if (positions.size() != num_nodes_)
    throw std::invalid_argument("positions size must match node count");
  positions_ = std::move(positions);
  return *this;
}

LinkGraph LinkGraphBuilder::build() const {
  auto raw = raw_;
  std::sort(raw.begin(), raw.end(), [](const RawArc& a, const RawArc& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.cost < b.cost;
  });
  // Deduplicate parallel arcs, keeping the cheapest.
  std::vector<RawArc> dedup;
  dedup.reserve(raw.size());
  for (const RawArc& a : raw) {
    if (!dedup.empty() && dedup.back().from == a.from &&
        dedup.back().to == a.to) {
      continue;  // sorted by cost within (from, to); first is cheapest
    }
    dedup.push_back(a);
  }

  LinkGraph g;
  g.positions_ = positions_;
  g.offsets_.assign(num_nodes_ + 1, 0);
  for (const RawArc& a : dedup) ++g.offsets_[a.from + 1];
  for (std::size_t i = 1; i <= num_nodes_; ++i)
    g.offsets_[i] += g.offsets_[i - 1];
  g.arcs_.resize(dedup.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const RawArc& a : dedup) {
    g.arcs_[cursor[a.from]++] = Arc{a.to, a.cost};
  }
  return g;
}

}  // namespace tc::graph
