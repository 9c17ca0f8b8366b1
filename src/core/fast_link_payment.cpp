#include "core/fast_link_payment.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/audit_hooks.hpp"
#include "core/fast_payment.hpp"
#include "spath/dijkstra.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Arc;
using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

bool is_symmetric(const graph::LinkGraph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Arc& a : g.out_arcs(u)) {
      if (g.arc_cost(a.to, u) != a.cost) return false;
    }
  }
  return true;
}

PaymentResult fast_link_payments(const graph::LinkGraph& g, NodeId source,
                                 NodeId target) {
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
  const spath::SptResult sptS = spath::dijkstra_link(g, source);
  if (!sptS.reached(target)) return result;
  const spath::SptResult sptT = spath::dijkstra_link(g, target);

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

  TC_DCHECK(internal::audit_ok(g, source, target, result));
  return result;
}

}  // namespace tc::core
