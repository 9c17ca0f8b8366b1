// Frozen reference for Algorithm 1 (node model): the payment engine as it
// stood before the allocation-free core, kept verbatim so differential
// tests and the kernel_throughput bench can pin the live engine to it bit
// for bit. Step 1 runs the frozen allocating Dijkstra loop
// (dijkstra_reference.hpp) twice; steps 2-5 build children lists,
// per-level std::priority_queues and a crossing-edge heap. The edits: the
// functions are inline, the old from-scratch overload's out-pointers
// default to null, step 1 calls the frozen loop instead of the live
// spath::dijkstra_node, and the debug payment audit is dropped (this is
// an oracle, not an engine).
// Do not optimize this file; its value is that it does not change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/fast_payment.hpp"
#include "core/payment.hpp"
#include "dijkstra_reference.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"
#include "util/check.hpp"

namespace tc::core::reference {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

/// Children lists of the SPT(s) tree, from the parent array.
inline std::vector<std::vector<NodeId>> tree_children(
    const spath::SptResult& spt) {
  std::vector<std::vector<NodeId>> children(spt.parent.size());
  for (NodeId v = 0; v < spt.parent.size(); ++v) {
    if (spt.parent[v] != kInvalidNode) children[spt.parent[v]].push_back(v);
  }
  return children;
}

/// The old step-2 labelling: a top-down DFS over the children lists.
[[nodiscard]] inline LevelLabels compute_levels(const graph::NodeGraph& g,
                                               NodeId source, NodeId target) {
  const spath::SptResult sptS = spath::reference::dijkstra_node(g, source);
  LevelLabels out;
  out.levels.assign(g.num_nodes(), LevelLabels::kInvalidLevel);
  if (!sptS.reached(target)) return out;
  sptS.path_to_into(target, out.path);

  // Index of each LCP node along the path.
  std::vector<std::uint32_t> path_index(g.num_nodes(),
                                        LevelLabels::kInvalidLevel);
  for (std::uint32_t l = 0; l < out.path.size(); ++l)
    path_index[out.path[l]] = l;

  // Top-down tree walk: a node inherits its parent's level unless it is on
  // the LCP itself, in which case its level is its path index.
  const auto children = tree_children(sptS);
  std::vector<NodeId> stack{source};
  out.levels[source] = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : children[u]) {
      out.levels[v] = path_index[v] != LevelLabels::kInvalidLevel
                          ? path_index[v]
                          : out.levels[u];
      stack.push_back(v);
    }
  }
  return out;
}

/// Steps 2-5 of Algorithm 1 given the two step-1 trees; requires
/// sptS.reached(target). Shared by the from-scratch overloads and the
/// SPT-accepting one.
[[nodiscard]] inline PaymentResult fast_payments_from_spts(
    const graph::NodeGraph& g, NodeId source, NodeId target,
    const spath::SptResult& sptS, const spath::SptResult& sptT) {
  const std::size_t n = g.num_nodes();

  PaymentResult result;
  result.payments.assign(n, 0.0);

  sptS.path_to_into(target, result.path);
  result.path_cost = sptS.dist[target];
  const std::size_t q = result.path.size() - 1;  // path r_0..r_q
  if (q < 2) {                                   // no relay nodes
    return result;
  }

  const std::vector<Cost>& L = sptS.dist;  // relay cost s -> v (excl. both)
  const std::vector<Cost>& R = sptT.dist;  // relay cost v -> t (excl. both)

  // --- Step 2: levels. -------------------------------------------------
  std::vector<std::uint32_t> path_index(n, LevelLabels::kInvalidLevel);
  for (std::uint32_t l = 0; l <= q; ++l) path_index[result.path[l]] = l;

  std::vector<std::uint32_t> level(n, LevelLabels::kInvalidLevel);
  {
    const auto children = tree_children(sptS);
    std::vector<NodeId> stack{source};
    level[source] = 0;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : children[u]) {
        level[v] = path_index[v] != LevelLabels::kInvalidLevel ? path_index[v]
                                                               : level[u];
        stack.push_back(v);
      }
    }
  }

  // Cost contribution of a node when it is interior on a candidate path;
  // the endpoints' own costs are excluded by the path-cost convention.
  auto interior_cost = [&](NodeId v) -> Cost {
    return (v == source || v == target) ? 0.0 : g.node_cost(v);
  };

  // Off-path nodes grouped by level (only levels 1..q-1 ever matter).
  std::vector<std::vector<NodeId>> nodes_at_level(q);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t l = level[v];
    if (l == LevelLabels::kInvalidLevel) continue;      // unreachable
    if (path_index[v] != LevelLabels::kInvalidLevel) continue;  // on path
    if (l >= 1 && l <= q - 1) nodes_at_level[l].push_back(v);
  }

  // --- Step 3: R^{-l}(v) per level, high to low. -----------------------
  // R_minus[v] = ||P(v, t, G \ r_l)|| for v of level l, computed by a
  // Dijkstra restricted to level-l nodes, seeded by transitions to
  // higher-level neighbors whose R already avoids r_l (Lemma 2). Lemma 3
  // lets us ignore transitions to lower levels.
  std::vector<Cost> R_minus(n, kInfCost);
  // c_minus[l]: step-4 candidate value of ||P_{-r_l}(s, t)|| via level-l
  // nodes.
  std::vector<Cost> c_minus(q, kInfCost);

  {
    std::vector<bool> settled(n, false);
    using QEntry = std::pair<Cost, NodeId>;
    for (std::uint32_t l = q - 1; l >= 1; --l) {
      const auto& members = nodes_at_level[l];
      if (members.empty()) {
        if (l == 1) break;
        continue;
      }
      std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
      for (NodeId v : members) {
        Cost base = kInfCost;
        for (NodeId w : g.neighbors(v)) {
          const std::uint32_t lw = level[w];
          if (lw == LevelLabels::kInvalidLevel || lw <= l) continue;
          if (!graph::finite_cost(R[w])) continue;
          base = std::min(base, interior_cost(w) + R[w]);
        }
        R_minus[v] = base;
        if (graph::finite_cost(base)) pq.emplace(base, v);
      }
      while (!pq.empty()) {
        const auto [dv, v] = pq.top();
        pq.pop();
        if (settled[v] || dv > R_minus[v]) continue;
        settled[v] = true;
        for (NodeId w : g.neighbors(v)) {
          // Within-level relaxation only: w must be an off-path node of
          // the same level.
          if (level[w] != l || path_index[w] != LevelLabels::kInvalidLevel)
            continue;
          if (settled[w]) continue;
          const Cost cand = interior_cost(v) + dv;
          if (cand < R_minus[w]) {
            R_minus[w] = cand;
            pq.emplace(cand, w);
          }
        }
      }

      // --- Step 4: crossings s -> (level < l) -> v(level l) -> t. ------
      for (NodeId v : members) {
        if (!graph::finite_cost(R_minus[v])) continue;
        for (NodeId u : g.neighbors(v)) {
          const std::uint32_t lu = level[u];
          if (lu == LevelLabels::kInvalidLevel || lu >= l) continue;
          if (!graph::finite_cost(L[u])) continue;
          const Cost cand =
              L[u] + interior_cost(u) + g.node_cost(v) + R_minus[v];
          c_minus[l] = std::min(c_minus[l], cand);
        }
      }
      if (l == 1) break;
    }
  }

  // --- Step 5: crossing-edge heap, swept l = q-1 .. 1. ------------------
  struct CrossEdge {
    Cost value;
    std::uint32_t alpha;  // lower endpoint level; valid while alpha < l
    bool operator>(const CrossEdge& other) const {
      return value > other.value;
    }
  };
  // insert_at[l]: edges first valid at level l (= min(beta - 1, q - 1)).
  std::vector<std::vector<CrossEdge>> insert_at(q);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u > v) continue;  // each undirected edge once
      const std::uint32_t lu = level[u];
      const std::uint32_t lv = level[v];
      if (lu == LevelLabels::kInvalidLevel || lv == LevelLabels::kInvalidLevel)
        continue;
      if (lu == lv) continue;
      const NodeId a = lu < lv ? u : v;  // lower-level side (s side)
      const NodeId b = lu < lv ? v : u;  // higher-level side (t side)
      const std::uint32_t alpha = std::min(lu, lv);
      const std::uint32_t beta = std::max(lu, lv);
      if (beta < alpha + 2) continue;  // no integer level strictly between
      if (!graph::finite_cost(L[a]) || !graph::finite_cost(R[b])) continue;
      const std::uint32_t first_l =
          std::min<std::uint32_t>(beta - 1, static_cast<std::uint32_t>(q - 1));
      if (first_l < 1 || first_l <= alpha) continue;
      const Cost value =
          L[a] + interior_cost(a) + interior_cost(b) + R[b];
      insert_at[first_l].push_back({value, alpha});
    }
  }

  std::priority_queue<CrossEdge, std::vector<CrossEdge>, std::greater<>> heap;
  for (std::uint32_t l = static_cast<std::uint32_t>(q - 1); l >= 1; --l) {
    for (const CrossEdge& e : insert_at[l]) heap.push(e);
    // Lazy invalidation: an edge with alpha >= l can never become valid
    // again as l decreases.
    while (!heap.empty() && heap.top().alpha >= l) heap.pop();
    const Cost heap_cand = heap.empty() ? kInfCost : heap.top().value;
    const Cost avoid_cost = std::min(heap_cand, c_minus[l]);

    const NodeId r_l = result.path[l];
    result.payments[r_l] = graph::finite_cost(avoid_cost)
                               ? avoid_cost - result.path_cost +
                                     g.node_cost(r_l)
                               : kInfCost;
    if (l == 1) break;
  }

  return result;
}

/// Step 1 with the allocating Dijkstra, then steps 2-5 above: the old
/// from-scratch vcg_payments_fast.
[[nodiscard]] inline PaymentResult vcg_payments_fast(
    const graph::NodeGraph& g, NodeId source, NodeId target,
    spath::SptResult* spt_source_out = nullptr,
    spath::SptResult* spt_target_out = nullptr) {
  TC_CHECK_MSG(source != target, "source and target must differ");

  // --- Step 1: SPTs and the LCP. -------------------------------------
  spath::SptResult sptS = spath::reference::dijkstra_node(g, source);
  if (!sptS.reached(target)) {
    PaymentResult result;
    result.payments.assign(g.num_nodes(), 0.0);
    if (spt_source_out != nullptr) *spt_source_out = std::move(sptS);
    return result;
  }
  spath::SptResult sptT = spath::reference::dijkstra_node(g, target);
  PaymentResult result =
      fast_payments_from_spts(g, source, target, sptS, sptT);
  if (spt_source_out != nullptr) *spt_source_out = std::move(sptS);
  if (spt_target_out != nullptr) *spt_target_out = std::move(sptT);
  return result;
}

}  // namespace tc::core::reference
