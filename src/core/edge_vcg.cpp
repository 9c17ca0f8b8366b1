#include "core/edge_vcg.hpp"

#include <stdexcept>

#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Cost;
using graph::kInfCost;
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
  EdgeVcgResult result;
  internal::edge_payments_into(g, source, target, result);
  return result;
}

}  // namespace tc::core
