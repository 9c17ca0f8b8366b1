// Edge-agent VCG payments: the Nisan-Ronen baseline (paper Section II.D).
//
// In the edge-agent model each *link* is a selfish agent with a private
// transit cost; the mechanism routes on the least-cost path and pays each
// on-path edge e
//
//     p_e = D_{G-e}(s, t) - D_G(s, t) + w_e
//
// (its declared cost plus the damage its absence would cause). The paper
// contrasts its node-agent wireless model against exactly this classical
// formulation, and its Algorithm 1 borrows the machinery of
// Hershberger-Suri's fast *edge* replacement-path algorithm — which is
// implemented here: all on-path edge payments in one O(n log n + m) pass
// over an undirected edge-weighted graph. That pass is the edge-agent
// mode of Algorithm 1's kernel (fast_payment.hpp, DESIGN.md §1.2.1) with
// link costs: the same step-1 rows, step-2 levels and range-min tree.
//
// Representation: a symmetric LinkGraph (arc costs equal both ways); the
// agent for link {u, v} is the undirected edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/link_graph.hpp"

namespace tc::core {

/// Payment to one on-path edge.
struct EdgePayment {
  graph::NodeId u = graph::kInvalidNode;  ///< tail along the path
  graph::NodeId v = graph::kInvalidNode;  ///< head along the path
  graph::Cost declared = 0.0;             ///< w_e
  graph::Cost payment = 0.0;              ///< p_e (kInfCost for bridges)
};

struct EdgeVcgResult {
  std::vector<graph::NodeId> path;  ///< s..t node sequence
  graph::Cost path_cost = graph::kInfCost;
  std::vector<EdgePayment> payments;  ///< one per path edge, in order

  [[nodiscard]] bool connected() const {
    return graph::finite_cost(path_cost);
  }
  [[nodiscard]] graph::Cost total_payment() const;
};

/// Reference engine: one edge-masked Dijkstra per path edge.
/// Requires symmetric arc costs (checked).
[[nodiscard]] EdgeVcgResult edge_vcg_payments_naive(const graph::LinkGraph& g,
                                                    graph::NodeId source,
                                                    graph::NodeId target);

/// Hershberger-Suri fast engine: all replacement paths D_{G-e}(s,t) for
/// path edges e in one pass. Every node gets Algorithm 1's level (the
/// index of the last LCP node on its SPT(s) tree path); removing path
/// edge e_l cuts levels <= l from levels > l, so each non-LCP edge (a, b)
/// with level(a) < level(b) is a detour for e_level(a) .. e_level(b)-1.
/// One scan min-stamps every such edge onto a range-min tree over levels,
/// whose leaf l is e_l's best detour. Requires symmetric arc costs
/// (checked). Identical output to the naive engine (differential-tested).
[[nodiscard]] EdgeVcgResult edge_vcg_payments_fast(const graph::LinkGraph& g,
                                                   graph::NodeId source,
                                                   graph::NodeId target);

}  // namespace tc::core
