// Frozen reference for the link-cost engines: fast_link_payments (node
// agents, symmetric link costs) and edge_vcg_payments_fast (edge agents)
// as they stood before both moved onto Algorithm 1's fused-scan kernel,
// kept verbatim so differential tests and the kernel_throughput bench can
// pin the live engines to them bit for bit. Step 1 builds two allocating
// SPTs; the node-agent engine then runs one std::priority_queue per level
// over vector-of-vector level buckets, and both engines sweep a
// crossing-edge heap. The edits: the functions are inline, step 1 calls
// the frozen loop (dijkstra_reference.hpp) instead of the live
// spath::dijkstra_link, and the debug payment audit is dropped (this is
// an oracle, not an engine). Step 2 still calls the live
// core::label_levels, which core_fast_payment_bits_test pins to the
// frozen DFS labelling of fast_payment_reference.hpp.
// Do not optimize this file; its value is that it does not change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/edge_vcg.hpp"
#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "core/payment.hpp"
#include "dijkstra_reference.hpp"
#include "graph/link_graph.hpp"
#include "spath/dijkstra.hpp"
#include "util/check.hpp"

namespace tc::core::reference {

using graph::Arc;
using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

[[nodiscard]] inline PaymentResult fast_link_payments(
    const graph::LinkGraph& g, NodeId source, NodeId target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  if (!is_symmetric(g)) {
    throw std::invalid_argument(
        "fast_link_payments requires symmetric link costs; use "
        "link_vcg_payments for directed/asymmetric networks");
  }
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kNoLevel = LevelLabels::kInvalidLevel;

  PaymentResult result;
  result.payments.assign(n, 0.0);

  // --- SPTs and the LCP (arc-cost convention). -------------------------
  const spath::SptResult sptS = spath::reference::dijkstra_link(g, source);
  if (!sptS.reached(target)) return result;
  const spath::SptResult sptT = spath::reference::dijkstra_link(g, target);

  sptS.path_to_into(target, result.path);
  result.path_cost = sptS.dist[target];
  const std::size_t q = result.path.size() - 1;
  if (q < 2) return result;  // no relay agents

  const std::vector<Cost>& L = sptS.dist;  // cost s -> v
  const std::vector<Cost>& R = sptT.dist;  // cost v -> t (== t -> v)

  // --- Levels from SPT(s). ---------------------------------------------
  // path[level[v]] == v exactly for the LCP nodes.
  const std::vector<NodeId>& path = result.path;
  std::vector<std::uint32_t> level;
  std::vector<NodeId> stack;
  label_levels(sptS.parent, path, level, stack);

  std::vector<std::vector<NodeId>> nodes_at_level(q);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t l = level[v];
    if (l == kNoLevel || path[l] == v) continue;
    if (l >= 1 && l <= q - 1) nodes_at_level[l].push_back(v);
  }

  // --- R^{-l} per level (edge-weighted variant). ------------------------
  std::vector<Cost> R_minus(n, kInfCost);
  std::vector<Cost> c_minus(q, kInfCost);
  {
    std::vector<bool> settled(n, false);
    using QEntry = std::pair<Cost, NodeId>;
    for (std::uint32_t l = q - 1; l >= 1; --l) {
      const auto& members = nodes_at_level[l];
      if (!members.empty()) {
        std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
        for (NodeId v : members) {
          Cost base = kInfCost;
          for (const Arc& a : g.out_arcs(v)) {
            const std::uint32_t lw = level[a.to];
            if (lw == kNoLevel || lw <= l) continue;
            if (!graph::finite_cost(R[a.to])) continue;
            base = std::min(base, a.cost + R[a.to]);
          }
          R_minus[v] = base;
          if (graph::finite_cost(base)) pq.emplace(base, v);
        }
        while (!pq.empty()) {
          const auto [dv, v] = pq.top();
          pq.pop();
          if (settled[v] || dv > R_minus[v]) continue;
          settled[v] = true;
          for (const Arc& a : g.out_arcs(v)) {
            const NodeId w = a.to;
            if (level[w] != l || path[l] == w) continue;
            if (settled[w]) continue;
            const Cost cand = dv + a.cost;
            if (cand < R_minus[w]) {
              R_minus[w] = cand;
              pq.emplace(cand, w);
            }
          }
        }
        for (NodeId v : members) {
          if (!graph::finite_cost(R_minus[v])) continue;
          for (const Arc& a : g.out_arcs(v)) {
            const NodeId u = a.to;
            const std::uint32_t lu = level[u];
            if (lu == kNoLevel || lu >= l) continue;
            if (!graph::finite_cost(L[u])) continue;
            c_minus[l] = std::min(c_minus[l], L[u] + a.cost + R_minus[v]);
          }
        }
      }
      if (l == 1) break;
    }
  }

  // --- Crossing-edge heap. ----------------------------------------------
  struct CrossEdge {
    Cost value;
    std::uint32_t alpha;
    bool operator>(const CrossEdge& other) const {
      return value > other.value;
    }
  };
  std::vector<std::vector<CrossEdge>> insert_at(q);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : g.out_arcs(u)) {
      if (u > a.to) continue;  // symmetric: each undirected link once
      const std::uint32_t lu = level[u];
      const std::uint32_t lv = level[a.to];
      if (lu == kNoLevel || lv == kNoLevel || lu == lv) continue;
      const NodeId lo_node = lu < lv ? u : a.to;
      const NodeId hi_node = lu < lv ? a.to : u;
      const std::uint32_t alpha = std::min(lu, lv);
      const std::uint32_t beta = std::max(lu, lv);
      if (beta < alpha + 2) continue;
      if (!graph::finite_cost(L[lo_node]) || !graph::finite_cost(R[hi_node]))
        continue;
      const auto first_l =
          std::min<std::uint32_t>(beta - 1, static_cast<std::uint32_t>(q - 1));
      if (first_l < 1 || first_l <= alpha) continue;
      insert_at[first_l].push_back({L[lo_node] + a.cost + R[hi_node], alpha});
    }
  }

  std::priority_queue<CrossEdge, std::vector<CrossEdge>, std::greater<>> heap;
  for (auto l = static_cast<std::uint32_t>(q - 1); l >= 1; --l) {
    for (const CrossEdge& e : insert_at[l]) heap.push(e);
    while (!heap.empty() && heap.top().alpha >= l) heap.pop();
    const Cost heap_cand = heap.empty() ? kInfCost : heap.top().value;
    const Cost avoid_cost = std::min(heap_cand, c_minus[l]);

    const NodeId r_l = result.path[l];
    if (graph::finite_cost(avoid_cost)) {
      // Node-agent payment: the declared cost of the forwarding arc the
      // path uses plus the avoiding-path improvement (Section III.F).
      const Cost own_arc = g.arc_cost(r_l, result.path[l + 1]);
      result.payments[r_l] = own_arc + (avoid_cost - result.path_cost);
    } else {
      result.payments[r_l] = kInfCost;
    }
    if (l == 1) break;
  }

  return result;
}

[[nodiscard]] inline EdgeVcgResult edge_vcg_payments_fast(
    const graph::LinkGraph& g, NodeId source, NodeId target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  if (!is_symmetric(g)) {
    throw std::invalid_argument(
        "edge-agent VCG requires an undirected (symmetric) graph");
  }
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kNoLevel = LevelLabels::kInvalidLevel;

  EdgeVcgResult result;
  const spath::SptResult sptS = spath::reference::dijkstra_link(g, source);
  if (!sptS.reached(target)) return result;
  const spath::SptResult sptT = spath::reference::dijkstra_link(g, target);

  sptS.path_to_into(target, result.path);
  result.path_cost = sptS.dist[target];
  const std::size_t q = result.path.size() - 1;  // path edges e_0..e_{q-1}

  const std::vector<Cost>& L = sptS.dist;
  const std::vector<Cost>& R = sptT.dist;

  // Node levels: index of the last LCP node on the SPT(s) tree path.
  // Removing path edge e_l strands exactly the nodes with level > l from
  // the source side of the tree (Malik-Mittal-Gupta).
  // path[level[v]] == v exactly for the LCP nodes.
  const std::vector<NodeId>& path = result.path;
  std::vector<std::uint32_t> level;
  std::vector<NodeId> stack;
  label_levels(sptS.parent, path, level, stack);

  // Crossing edges (a, b) with level(a) <= l < level(b) cover cut l with
  // candidate L(a) + w(a,b) + R(b). Path edges are excluded (each would
  // only "cover" its own removal).
  struct CrossEdge {
    Cost value;
    std::uint32_t alpha;  // valid while l >= alpha
    bool operator>(const CrossEdge& other) const {
      return value > other.value;
    }
  };
  std::vector<std::vector<CrossEdge>> insert_at(q);
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& arc : g.out_arcs(u)) {
      if (u > arc.to) continue;  // undirected: each link once
      const std::uint32_t lu = level[u];
      const std::uint32_t lv = level[arc.to];
      if (lu == kNoLevel || lv == kNoLevel || lu == lv) continue;
      // Skip the LCP's own edges: both ends on the path, one level apart.
      if (path[lu] == u && path[lv] == arc.to &&
          (lu + 1 == lv || lv + 1 == lu)) {
        continue;
      }
      const NodeId a = lu < lv ? u : arc.to;
      const NodeId b = lu < lv ? arc.to : u;
      const std::uint32_t alpha = std::min(lu, lv);
      const std::uint32_t beta = std::max(lu, lv);
      // Valid cuts: l in [alpha, beta - 1]; first touched in a descending
      // sweep at l = min(beta - 1, q - 1).
      const auto first_l =
          std::min<std::uint32_t>(beta - 1, static_cast<std::uint32_t>(q - 1));
      if (first_l >= q) continue;
      if (!graph::finite_cost(L[a]) || !graph::finite_cost(R[b])) continue;
      insert_at[first_l].push_back({L[a] + arc.cost + R[b], alpha});
    }
  }

  std::vector<Cost> detour(q, kInfCost);
  std::priority_queue<CrossEdge, std::vector<CrossEdge>, std::greater<>> heap;
  for (std::uint32_t l = static_cast<std::uint32_t>(q); l-- > 0;) {
    for (const CrossEdge& e : insert_at[l]) heap.push(e);
    while (!heap.empty() && heap.top().alpha > l) heap.pop();
    if (!heap.empty()) detour[l] = heap.top().value;
  }

  for (std::uint32_t l = 0; l < q; ++l) {
    EdgePayment payment;
    payment.u = result.path[l];
    payment.v = result.path[l + 1];
    payment.declared = g.arc_cost(payment.u, payment.v);
    payment.payment = graph::finite_cost(detour[l])
                          ? detour[l] - result.path_cost + payment.declared
                          : kInfCost;
    result.payments.push_back(payment);
  }
  return result;
}

}  // namespace tc::core::reference
