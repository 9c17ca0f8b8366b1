#include "core/edge_vcg.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Arc;
using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

Cost EdgeVcgResult::total_payment() const {
  Cost total = 0.0;
  for (const EdgePayment& p : payments) total += p.payment;
  return total;
}

namespace {

void check_symmetric(const graph::LinkGraph& g) {
  if (!is_symmetric(g)) {
    throw std::invalid_argument(
        "edge-agent VCG requires an undirected (symmetric) graph");
  }
}

}  // namespace

EdgeVcgResult edge_vcg_payments_naive(const graph::LinkGraph& g,
                                      NodeId source, NodeId target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  check_symmetric(g);
  EdgeVcgResult result;

  spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
  spath::dijkstra_link_into(ws, g, source);
  if (!ws.reached(target)) return result;
  ws.path_to_into(target, result.path);
  result.path_cost = ws.dist(target);

  graph::LinkGraph work = g;
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    const NodeId u = result.path[i];
    const NodeId v = result.path[i + 1];
    const Cost w = g.arc_cost(u, v);
    work.set_arc_cost(u, v, kInfCost);
    work.set_arc_cost(v, u, kInfCost);
    // Allocation-free detour run; only the target's distance is read, so
    // the run can stop as soon as the target settles.
    spath::dijkstra_link_into(ws, work, source, {}, /*stop_at=*/target);
    work.set_arc_cost(u, v, w);
    work.set_arc_cost(v, u, w);

    EdgePayment payment;
    payment.u = u;
    payment.v = v;
    payment.declared = w;
    payment.payment = ws.reached(target)
                          ? ws.dist(target) - result.path_cost + w
                          : kInfCost;  // bridge edge: monopoly
    result.payments.push_back(payment);
  }
  return result;
}

EdgeVcgResult edge_vcg_payments_fast(const graph::LinkGraph& g,
                                     NodeId source, NodeId target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  check_symmetric(g);
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kNoLevel = LevelLabels::kInvalidLevel;

  EdgeVcgResult result;
  const spath::SptResult sptS = spath::dijkstra_link(g, source);
  if (!sptS.reached(target)) return result;
  const spath::SptResult sptT = spath::dijkstra_link(g, target);

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

}  // namespace tc::core
